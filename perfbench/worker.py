"""One measured run of one workload, in a fresh process.

Started by ``run.py`` with a cleaned environment; prints one JSON
document as its last stdout line.  With ``--setup-only`` it stops after
the inputs are built and reports only its set-up time (process start
through input generation), so that ``run.py`` can take the median over
several process starts.  Exits 2 when the program's source
(``src/repro``) is not next to the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
PINS = ROOT / "perfbench" / "pins.json"


def load_pins(workload: str, seed: int) -> list:
    """Pinned per-unit outputs of *workload* at *seed* (may be empty)."""
    if not PINS.is_file():
        return []
    with PINS.open(encoding="utf-8") as handle:
        return json.load(handle).get(workload, {}).get(str(seed), [])


def measure(workload, inputs, units: int, tracer=None, pins=()):
    """Run *units* units, checking outputs against *pins*.

    The heap is collected before each unit, outside the timing: a
    route or serve session leaves cyclic garbage (a serve replication
    ~100 MB), which would otherwise land in a later unit's timing and
    pile up into the peak resident memory.
    """
    results = []
    for index in range(units):
        gc.collect()
        result = workload.run_unit(inputs, index, tracer)
        if index < len(pins) and result.output != pins[index]:
            result.problems.append(
                f"unit {index}: output {result.output!r} differs from the "
                f"pinned {pins[index]!r}")
            result.failed = result.ops
        results.append(result)
    return results


def summarize_run(workload, results) -> dict:
    """Timings, tails and quality of a list of unit results."""
    from perfbench.workloads import tail

    op_times = [t for r in results for t in r.op_times_s]
    repairs = [t for r in results for t in r.repair_times_s]
    ops = sum(r.ops for r in results)
    wall = sum(r.wall_s for r in results)
    quality = workload.quality(results)
    tail_value = (tail(op_times, workload.tail_pct)
                  if workload.tail_pct is not None else None)
    repair_tail = tail(repairs, 99.0) if repairs else None
    problems = [p for r in results for p in r.problems]
    return {
        "units": len(results),
        "attempted": ops,
        "failed": sum(r.failed for r in results),
        "problems": problems[:20],
        "wall_s": wall,
        "e2e": {
            "ops_per_s": ops / wall if wall else 0.0,
            "op_ms_p50": median(op_times) * 1000.0 if op_times else 0.0,
            "entanglement_rate": quality["entanglement_rate"],
            "admission_ratio": quality["admission_ratio"],
        },
        "extra": {
            "tail.op_ms": tail_value * 1000.0 if tail_value else 0.0,
            "tail.op_pct": workload.tail_pct if tail_value else 0.0,
            "tail.op_samples": len(op_times),
            "faults.repair_ms_p50": (median(repairs) * 1000.0
                                     if repairs else 0.0),
            "faults.repair_ms_tail": (repair_tail * 1000.0
                                      if repair_tail else 0.0),
            "faults.repair_samples": len(repairs),
            "faults.repair_ratio": quality.get("repair_ratio", 0.0),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawn-wall", type=float, default=None,
                        help="wall time at which the parent started us")
    parser.add_argument("--setup-only", action="store_true",
                        help="report the set-up time and stop")
    args = parser.parse_args(argv)
    spawn_wall = args.spawn_wall if args.spawn_wall is not None else time.time()

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(ROOT)]
    import numpy
    import scipy

    import repro
    from perfbench import tracing
    from perfbench.workloads import WORKLOADS

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        print(f"perfbench: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None

    units = workload.units_for(args.seconds)
    inputs = workload.setup(args.seed, units)
    setup_s = time.time() - spawn_wall
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    pins = load_pins(workload.name, args.seed)
    results = measure(workload, inputs, units, tracer, pins)
    report = summarize_run(workload, results)
    report["setup_s"] = setup_s
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    report["pinned_units"] = min(len(pins), len(results))
    report["versions"] = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        tracer.close()
        tracing.check_fired(tracer.rec, workload.expected)
        summary = tracing.summarize(tracer.rec, tracer.layer_of,
                                    workload.roots)
        report["layers"] = tracing.layer_metrics(summary,
                                                 tracer.rec.counts)
        report["spans"] = len(tracer.rec)
        OUT.mkdir(parents=True, exist_ok=True)
        tracing.write_spans(
            tracer.rec, OUT / f"spans-{workload.name}-seed{args.seed}.json.gz")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
