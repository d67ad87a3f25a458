"""Record the study outcomes that the benchmark's checks compare against.

    PYTHONPATH=src python3 bench/record_reference.py [N_SEEDS]

Writes bench/reference.json: the summary (placement, per-case aggregates,
non-optimal hours) of the microgrid9 four-case study, and of the
scaled-study network for seeds 0 .. N_SEEDS-1 (default 100). Re-record
only when a change is meant to alter study results, and say so.
"""

from __future__ import annotations

import json
import sys

from gridcap.fixtures import load_fixture
from gridcap.netfile import parse_demand, parse_network
from gridcap.study import run_four_case_study

from scaled import scaled_inputs_text
from workloads import REFERENCE, summarize


def main(n_seeds: int) -> None:
    net, demand = load_fixture("microgrid9")
    ref = {"mg9-study": summarize(run_four_case_study(net, demand)), "scaled-study": {}}
    for seed in range(n_seeds):
        network_text, demand_text = scaled_inputs_text(seed)
        net = parse_network(network_text)
        ref["scaled-study"][str(seed)] = summarize(
            run_four_case_study(net, parse_demand(demand_text, net=net))
        )
        print(f"seed {seed}: placement {ref['scaled-study'][str(seed)]['placement']}", flush=True)
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 100)
