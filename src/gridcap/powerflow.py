"""Polar-form nodal injections and their first/second derivatives.

Everything is built from the single complex matrix

    T[i, j] = Vc_i * conj(Y_ij * Vc_j),   Vc = V * exp(j*theta),

whose real part is V_i V_j (G_ij cos t_ij + B_ij sin t_ij) and imaginary
part V_i V_j (G_ij sin t_ij - B_ij cos t_ij) with t_ij = theta_i - theta_j.
Row sums give the bus injections P and Q; the same entries assemble the
Jacobian and the multiplier-weighted Hessian in closed form.

A point is evaluated once: a model keeps T and (P, Q), read-only, at the
last (V, theta) values it saw, so its four methods share them at one point;
the Jacobian blocks and the Hessian are formed afresh on each call. A model
therefore has one owner, such as one solve; an OPF structure holds only the
admittance matrix.
"""

from __future__ import annotations

import numpy as np


def _readonly(*arrays):
    """arrays, made read-only: a model hands the same ones to every call."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _pq(at: dict):
    if "pq" not in at:
        at["pq"] = _readonly(at["t"].real.sum(axis=1), at["t"].imag.sum(axis=1))
    return at["pq"]


class InjectionModel:
    """Injection evaluator bound to one complex admittance matrix y (dense,
    p.u.); it keeps the values at the last (v, theta) it saw."""

    def __init__(self, y: np.ndarray):
        self.y = np.asarray(y, dtype=complex)
        self.n = self.y.shape[0]
        self._memo = (None, None)  # (key, values) at the last point

    def _at(self, v, theta) -> dict:
        """Values at (v, theta), T under "t", kept until another point comes."""
        key = v.tobytes() + theta.tobytes()
        if self._memo[0] != key:
            self._memo = (key, {"t": self._t(v, theta)})
        return self._memo[1]

    def _t(self, v, theta) -> np.ndarray:
        vc = v * np.exp(1j * theta)
        return _readonly(vc[:, None] * np.conj(self.y * vc[None, :]))[0]

    def injections(self, v, theta):
        """Bus injections (p, q) in p.u. at voltage magnitudes/angles."""
        return _pq(self._at(v, theta))

    def losses(self, v, theta) -> float:
        """Total active-power loss = sum of bus active injections."""
        return float(self._at(v, theta)["t"].real.sum())

    def jacobian(self, v, theta):
        """Partial derivative blocks (dp_dth, dp_dv, dq_dth, dq_dv), each (n, n)
        with [i, k] = d(injection at i)/d(variable at k)."""
        at = self._at(v, theta)
        tr, ti = at["t"].real, at["t"].imag
        p, q = _pq(at)
        rd, sd = tr.diagonal(), ti.diagonal()

        dp_dth = ti.copy()
        np.fill_diagonal(dp_dth, -q + sd)
        dq_dth = -tr
        np.fill_diagonal(dq_dth, p - rd)
        dp_dv = tr / v[None, :]
        np.fill_diagonal(dp_dv, (p + rd) / v)
        dq_dv = ti / v[None, :]
        np.fill_diagonal(dq_dv, (q + sd) / v)
        return dp_dth, dp_dv, dq_dth, dq_dv

    def hessian_weighted(self, v, theta, mu, nu):
        """Hessian of sum_i (mu_i * P_i + nu_i * Q_i) over (theta, V).

        Returns (h_thth, h_vth, h_vv); h_vth[k, l] = d2/dV_k dtheta_l. The
        full symmetric Hessian in (theta, V) ordering is
        [[h_thth, h_vth.T], [h_vth, h_vv]].
        """
        t = self._at(v, theta)["t"]
        mu = np.asarray(mu, dtype=float)[:, None]
        nu = np.asarray(nu, dtype=float)[:, None]

        # a + a.T carries h_vv's diagonal 2 (mu_i Re T_ii + nu_i Im T_ii)
        # exactly (x + x == 2x); h_thth takes it with that diagonal zeroed
        a = mu * t.real + nu * t.imag
        a_sym = a + a.T
        h_vv = a_sym / np.outer(v, v)
        np.fill_diagonal(a_sym, 0.0)
        h_thth = a_sym - np.diag(a_sym.sum(axis=1))

        c = mu * t.imag - nu * t.real
        m = c - c.T  # zero diagonal: x - x == 0 exactly
        h_vth = (m - np.diag(m.sum(axis=1))) / v[:, None]
        return h_thth, h_vth, h_vv
