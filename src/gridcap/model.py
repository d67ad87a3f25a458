"""Network data model for the islanded-microgrid studies.

Buses, branches, generators, grid-following PV units and shunt capacitors,
plus the hourly demand series. Impedances are per-unit on the system MVA
base; device powers are MW / Mvar. Instances are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace

import numpy as np


class GridcapError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GridcapError):
    """A model invariant does not hold."""


def _require_finite(owner: str, **values):
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValidationError(f"{owner}: {name} must be finite, got {value}")


class BusKind(enum.Enum):
    SLACK = "slack"
    PV = "pv"
    PQ = "pq"


class BranchStatus(enum.Enum):
    CLOSED = "closed"
    OPEN = "open"


class PfSign(enum.Enum):
    """Leading injects reactive power, lagging absorbs it."""

    LEADING = "leading"
    LAGGING = "lagging"


@dataclass(frozen=True)
class Bus:
    id: int
    kind: BusKind
    v_min: float
    v_max: float
    base_kv: float

    def validate(self):
        if self.id <= 0:
            raise ValidationError(f"bus id must be a positive integer, got {self.id}")
        _require_finite(
            f"bus {self.id}", v_min=self.v_min, v_max=self.v_max, base_kv=self.base_kv
        )
        if not (0.0 < self.v_min < self.v_max):
            raise ValidationError(
                f"bus {self.id}: voltage bounds must satisfy 0 < v_min < v_max, "
                f"got [{self.v_min}, {self.v_max}]"
            )
        if self.base_kv <= 0.0:
            raise ValidationError(f"bus {self.id}: base_kv must be positive")


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_sh: float = 0.0
    status: BranchStatus = BranchStatus.CLOSED

    @property
    def closed(self) -> bool:
        return self.status is BranchStatus.CLOSED

    def validate(self):
        if self.from_bus == self.to_bus:
            raise ValidationError(f"branch {self.from_bus}-{self.to_bus}: self-loop")
        _require_finite(f"branch {self.from_bus}-{self.to_bus}", r=self.r, x=self.x, b_sh=self.b_sh)
        if self.r < 0.0:
            raise ValidationError(
                f"branch {self.from_bus}-{self.to_bus}: negative resistance {self.r}"
            )
        if self.x == 0.0:
            raise ValidationError(
                f"branch {self.from_bus}-{self.to_bus}: zero reactance"
            )


@dataclass(frozen=True)
class Generator:
    bus: int
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    c2: float  # $/MW^2 h
    c1: float  # $/MWh
    c0: float  # $/h

    def cost(self, p_mw: float) -> float:
        return self.c2 * p_mw * p_mw + self.c1 * p_mw + self.c0

    def validate(self):
        names = ("p_min", "p_max", "q_min", "q_max", "c2", "c1", "c0")
        _require_finite(f"generator at bus {self.bus}", **{k: getattr(self, k) for k in names})
        if self.p_min > self.p_max:
            raise ValidationError(f"generator at bus {self.bus}: p_min > p_max")
        if self.q_min > self.q_max:
            raise ValidationError(f"generator at bus {self.bus}: q_min > q_max")
        if self.c2 < 0.0:
            raise ValidationError(
                f"generator at bus {self.bus}: cost must be convex (c2 >= 0)"
            )


@dataclass(frozen=True)
class PvUnit:
    """Grid-following solar unit modeled as a negative PQ load.

    Reactive output is never dispatched; it follows the power factor,
    leading (injecting Q) or lagging (absorbing Q).
    """

    bus: int
    p_profile: tuple  # MW per timestep, injection positive
    pf_nominal: float = 1.0
    pf_sign: PfSign = PfSign.LEADING

    def validate(self):
        if not (0.0 < self.pf_nominal <= 1.0):
            raise ValidationError(
                f"pv unit at bus {self.bus}: power factor must be in (0, 1], "
                f"got {self.pf_nominal}"
            )
        if len(self.p_profile) == 0:
            raise ValidationError(f"pv unit at bus {self.bus}: empty profile")
        profile = {f"profile hour {t}": p for t, p in enumerate(self.p_profile)}
        _require_finite(f"pv unit at bus {self.bus}", **profile)
        if any(p < 0.0 for p in self.p_profile):
            raise ValidationError(
                f"pv unit at bus {self.bus}: profile values must be >= 0"
            )


@dataclass(frozen=True)
class ShuntCapacitor:
    """Fixed shunt capacitor; injects b_cap * V^2 p.u. reactive power."""

    bus: int
    b_cap: float  # p.u. susceptance; rated Mvar = b_cap * s_base at 1.0 p.u.

    def validate(self):
        _require_finite(f"shunt capacitor at bus {self.bus}", b_cap=self.b_cap)
        if self.b_cap <= 0.0:
            raise ValidationError(
                f"shunt capacitor at bus {self.bus}: b_cap must be positive"
            )


@dataclass(frozen=True)
class Network:
    buses: tuple
    branches: tuple
    generators: tuple
    pv_units: tuple = ()
    shunts: tuple = ()
    s_base: float = 10.0  # MVA

    _index: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(
            self, "_index", {bus.id: i for i, bus in enumerate(self.buses)}
        )
        self.validate()

    # -- lookups -----------------------------------------------------------

    @property
    def n_bus(self) -> int:
        return len(self.buses)

    @property
    def bus_ids(self) -> tuple:
        return tuple(b.id for b in self.buses)

    def bus_index(self, bus_id: int) -> int:
        try:
            return self._index[bus_id]
        except KeyError:
            raise ValidationError(f"unknown bus id {bus_id}") from None

    def bus(self, bus_id: int) -> Bus:
        return self.buses[self.bus_index(bus_id)]

    @property
    def slack_bus(self) -> Bus:
        return next(b for b in self.buses if b.kind is BusKind.SLACK)

    def with_shunts(self, extra: tuple) -> "Network":
        """Copy of the network with additional shunt capacitors attached."""
        return replace(self, shunts=tuple(self.shunts) + tuple(extra))

    # -- topology ----------------------------------------------------------

    def island_bus_ids(self) -> tuple:
        """Bus ids of the energized island (slack-connected, closed branches), in file order."""
        neighbours = {b.id: [] for b in self.buses}
        for br in self.branches:
            if br.closed:
                neighbours[br.from_bus].append(br.to_bus)
                neighbours[br.to_bus].append(br.from_bus)
        stack = [self.slack_bus.id]
        island = set(stack)
        while stack:
            for b in neighbours[stack.pop()]:
                if b not in island:
                    island.add(b)
                    stack.append(b)
        return tuple(b.id for b in self.buses if b.id in island)

    # -- validation ---------------------------------------------------------

    def validate(self):
        _require_finite("network", s_base=self.s_base)
        if self.s_base <= 0.0:
            raise ValidationError(f"s_base must be positive, got {self.s_base}")
        if not self.buses:
            raise ValidationError("network has no buses")

        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"duplicate bus id(s): {dup}")
        for bus in self.buses:
            bus.validate()

        slacks = [b.id for b in self.buses if b.kind is BusKind.SLACK]
        if len(slacks) == 0:
            raise ValidationError("no slack bus declared")
        if len(slacks) > 1:
            raise ValidationError(f"multiple slack buses declared: {slacks}")

        known = set(ids)
        for br in self.branches:
            br.validate()
            for end in (br.from_bus, br.to_bus):
                if end not in known:
                    raise ValidationError(
                        f"branch {br.from_bus}-{br.to_bus} references "
                        f"undeclared bus {end}"
                    )
        gen_buses = set()
        for gen in self.generators:
            gen.validate()
            if gen.bus not in known:
                raise ValidationError(f"generator references undeclared bus {gen.bus}")
            gen_buses.add(gen.bus)
        for pv in self.pv_units:
            pv.validate()
            if pv.bus not in known:
                raise ValidationError(f"pv unit references undeclared bus {pv.bus}")
        for sh in self.shunts:
            sh.validate()
            if sh.bus not in known:
                raise ValidationError(
                    f"shunt capacitor references undeclared bus {sh.bus}"
                )

        for bus in self.buses:
            if bus.kind is BusKind.PV and bus.id not in gen_buses:
                raise ValidationError(f"PV bus {bus.id} has no generator")
            if bus.kind is BusKind.PQ and bus.id in gen_buses:
                raise ValidationError(f"PQ bus {bus.id} hosts a generator")

        # Single energized island: any bus carrying a device must be
        # slack-connected, and no second component may carry devices.
        island = set(self.island_bus_ids())
        device_buses = gen_buses | {pv.bus for pv in self.pv_units}
        device_buses |= {sh.bus for sh in self.shunts}
        outside = sorted(device_buses - island)
        if outside:
            raise ValidationError(
                f"buses {outside} carry devices but are not connected to the "
                f"slack bus through closed branches"
            )


@dataclass(frozen=True)
class DemandSeries:
    """Per-bus hourly demand. Hours with any non-finite entry are invalid
    and excluded from studies (data-quality filtering)."""

    bus_ids: tuple
    p_mw: np.ndarray  # (horizon, n_bus)
    q_mvar: np.ndarray  # (horizon, n_bus)
    dt: float = 1.0  # hours per step

    def __post_init__(self):
        p = np.asarray(self.p_mw, dtype=float)
        q = np.asarray(self.q_mvar, dtype=float)
        object.__setattr__(self, "p_mw", p)
        object.__setattr__(self, "q_mvar", q)
        if p.ndim != 2 or p.shape != q.shape or p.shape[1] != len(self.bus_ids):
            raise ValidationError(
                f"demand arrays must be (horizon, {len(self.bus_ids)}), "
                f"got {p.shape} and {q.shape}"
            )
        if p.shape[0] < 1:
            raise ValidationError("demand horizon must be >= 1")
        if not (math.isfinite(self.dt) and self.dt > 0.0):
            raise ValidationError(f"dt must be finite and positive, got {self.dt}")
        with np.errstate(invalid="ignore"):
            if np.any(p[np.isfinite(p)] < 0.0):
                raise ValidationError("demand p_mw must be >= 0 for true loads")
        p.setflags(write=False)
        q.setflags(write=False)

    @property
    def horizon(self) -> int:
        return self.p_mw.shape[0]

    @property
    def valid_hours(self) -> tuple:
        ok = np.isfinite(self.p_mw).all(axis=1) & np.isfinite(self.q_mvar).all(axis=1)
        return tuple(int(t) for t in np.nonzero(ok)[0])

    def bus_column(self, bus_id: int) -> int:
        try:
            return self.bus_ids.index(bus_id)
        except ValueError:
            raise ValidationError(f"bus {bus_id} not present in demand series") from None


def pv_injection(pv: PvUnit, hour: int, pf_override: tuple = None):
    """Active/reactive injection (MW, Mvar) of a PV unit at one hour.

    Q follows the power factor: +P*tan(acos(pf)) when leading (capacitive),
    negated when lagging.
    """
    pf, sign = pv.pf_nominal, pv.pf_sign
    if pf_override is not None:
        pf, sign = pf_override
        if not (0.0 < pf <= 1.0):
            raise ValidationError(f"power factor override must be in (0, 1], got {pf}")
    if hour < 0 or hour >= len(pv.p_profile):
        raise ValidationError(
            f"pv unit at bus {pv.bus}: hour {hour} outside profile "
            f"of length {len(pv.p_profile)}"
        )
    p = pv.p_profile[hour]
    q = p * math.tan(math.acos(pf))
    if sign is PfSign.LAGGING:
        q = -q
    return p, q
