"""Pin, or re-check, the per-unit outputs of the benchmark's runs.

    python3 perfbench/pin.py --seeds 0-10            # write pins.json
    python3 perfbench/pin.py --seeds 0-2 --check     # compare only
    REPRO_ROUTING_CORE=reference python3 perfbench/pin.py --seeds 0 --check

Each workload's units for a run of the benchmark's own length
(``run_seconds`` in ``BENCHMARK.json``) are run at every seed and their
outputs — the total rate of each sweep task, the ``ServeMetrics`` of
each serve replication — are written bit-exactly to ``pins.json``.  The
benchmark fails any run whose output differs from a pin.  ``--check``
compares instead of writing; run it under the reference routing core to
confirm the pins against the oracle.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINS = ROOT / "perfbench" / "pins.json"
BENCHMARK = ROOT / "BENCHMARK.json"


def parse_seeds(text: str):
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def unit_outputs(workload, seed: int, seconds: float) -> list:
    units = workload.units_for(seconds)
    inputs = workload.setup(seed, units)
    outputs = []
    for index in range(units):
        gc.collect()
        result = workload.run_unit(inputs, index)
        if result.problems:
            raise SystemExit(f"{workload.name} seed {seed}: "
                             f"{result.problems}")
        outputs.append(result.output)
    return outputs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 0-10 or 0,3")
    parser.add_argument("--workloads", default=None,
                        help="comma-separated (default: all)")
    parser.add_argument("--check", action="store_true",
                        help="compare against pins.json, write nothing")
    args = parser.parse_args(argv)

    core = os.environ.get("REPRO_ROUTING_CORE")
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        if key != "REPRO_ROUTING_CORE":
            del os.environ[key]
    if core is not None and not args.check:
        raise SystemExit("write pins with the default routing core; use "
                         "--check to compare another core against them")
    seconds = json.loads(BENCHMARK.read_text())["run_seconds"]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS

    pins = json.loads(PINS.read_text()) if PINS.is_file() else {}
    names = args.workloads.split(",") if args.workloads else list(WORKLOADS)
    mismatches = 0
    for name in names:
        workload = WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            outputs = unit_outputs(workload, seed, seconds)
            if args.check:
                pinned = pins.get(name, {}).get(str(seed))
                same = pinned == outputs
                mismatches += not same
                print(f"{name} seed {seed}: "
                      f"{'match' if same else 'MISMATCH'} "
                      f"({len(outputs)} units, core {core or 'default'})",
                      flush=True)
            else:
                pins.setdefault(name, {})[str(seed)] = outputs
                print(f"{name} seed {seed}: pinned {len(outputs)} units",
                      flush=True)
    if not args.check:
        PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
