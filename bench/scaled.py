"""Seeded synthetic network for the scaled-study workload.

k copies of the bundled microgrid9 are chained into one radial feeder:
copy c's feeder end (bus 4) ties to copy c+1's bus 1, which becomes a
`pv` bus carrying its own copy of the diesel unit. Copy c's bus i gets id
10*c + i, so copy 0 keeps the fixture's ids. Each copy keeps its three PV
units and its two open branches (buses 8 and 9 stay de-energized), so the
network has 9k buses of which 7k are on the island.

The seed jitters each copy's demand scale. Only text leaves this module:
the benchmark hands it to the public `parse_network` / `parse_demand`, so
the package's own validation guards the synthetic input.
"""

from __future__ import annotations

import numpy as np

from gridcap.fixtures import fixture_text
from gridcap.netfile import parse_demand, parse_network

COPIES = 10  # 90 buses, 70 on the island
HOURS = range(0, 10)  # before the Case 2 infeasible hours; see README
JITTER = 0.02  # each copy's demand scale is drawn from 1 +/- JITTER
TIE = (0.010, 0.020, 0.0004)  # r, x, b_sh of the tie, p.u.: the fixture's 1-2 line


def _bus_id(copy: int, bus: int) -> int:
    return 10 * copy + bus


def scaled_inputs_text(seed: int) -> tuple:
    """(network_text, demand_text) of the chained network; same seed, same bytes."""
    base = parse_network(fixture_text("microgrid9.grid"))
    demand = parse_demand(fixture_text("microgrid9_demand.csv"), net=base)
    copies, hours = COPIES, list(HOURS)
    scales = 1.0 + JITTER * np.random.default_rng(seed % 2**64).uniform(-1.0, 1.0, copies)
    slack = base.slack_bus.id
    (gen,) = base.generators

    lines = [f"# {copies} chained copies of microgrid9, seed {seed}", f"SBASE {base.s_base!r}", "BUS"]
    for c in range(copies):
        for b in base.buses:
            kind = "pv" if (c > 0 and b.id == slack) else b.kind.value
            lines.append(f"{_bus_id(c, b.id)} {kind} {b.v_min!r} {b.v_max!r} {b.base_kv!r}")
    lines += ["END", "BRANCH"]
    for c in range(copies):
        for br in base.branches:
            lines.append(
                f"{_bus_id(c, br.from_bus)} {_bus_id(c, br.to_bus)} "
                f"{br.r!r} {br.x!r} {br.b_sh!r} {br.status.value}"
            )
        if c + 1 < copies:
            lines.append(f"{_bus_id(c, 4)} {_bus_id(c + 1, slack)} {TIE[0]!r} {TIE[1]!r} {TIE[2]!r} closed")
    lines += ["END", "GEN"]
    for c in range(copies):
        lines.append(
            f"{_bus_id(c, gen.bus)} {gen.p_min!r} {gen.p_max!r} {gen.q_min!r} "
            f"{gen.q_max!r} {gen.c2!r} {gen.c1!r} {gen.c0!r}"
        )
    lines += ["END", "PV"]
    for c in range(copies):
        for pv in base.pv_units:
            profile = ",".join(repr(pv.p_profile[t]) for t in hours)
            lines.append(f"{_bus_id(c, pv.bus)} {pv.pf_nominal!r} {pv.pf_sign.value} {profile}")
    lines.append("END")
    network_text = "\n".join(lines) + "\n"

    rows = ["hour,bus_id,p_mw,q_mvar"]
    for t_new, t in enumerate(hours):
        for c in range(copies):
            for j, bid in enumerate(demand.bus_ids):
                p, q = demand.p_mw[t, j], demand.q_mvar[t, j]
                if p == 0.0 and q == 0.0:
                    continue
                rows.append(f"{t_new},{_bus_id(c, bid)},{p * scales[c]:.6f},{q * scales[c]:.6f}")
    return network_text, "\n".join(rows) + "\n"
