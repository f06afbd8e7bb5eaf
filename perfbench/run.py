"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in a fresh worker process (``worker.py``) with every
``REPRO_*`` variable cleared and BLAS/OpenMP threads capped at the CPU
count, then prints one JSON line: ``correct``, ``attempted``,
``failed`` and ``metrics`` — the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  A traced run starts a
second, untraced worker over the same units to measure the tracing
overhead and the untraced tails.  An untraced run also starts
set-up-only workers, half before and half after the measuring one;
``setup_s`` is the median set-up time over all ``SETUP_STARTS`` worker
starts, so that neither one slow start nor a slow stretch of the
machine sets it.  The run record (code fingerprint, versions,
CPU count, cleared variables) goes to stderr and ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("topology-sweep", "route-800", "serve", "serve-faults")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
#: A worker that runs longer than this is killed and the run fails.
WORKER_TIMEOUT_S = 170.0
#: Worker starts whose set-up times give ``setup_s`` (their median).
SETUP_STARTS = 7


def worker_env(nproc: int):
    """The worker's environment and the ``REPRO_*`` values it dropped."""
    env = dict(os.environ)
    cleared = {key: env.pop(key) for key in sorted(env)
               if key.startswith("REPRO_")}
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    for key in THREAD_VARS:
        env[key] = str(nproc)
    return env, cleared


def code_fingerprint() -> dict:
    """Git commit when available, and a digest of the program source."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def run_worker(args, env, trace: int, deadline: float,
               setup_only: bool = False) -> dict:
    """Start one worker, wait for it, and return its JSON report."""
    command = [
        sys.executable, str(ROOT / "perfbench" / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
        *(["--setup-only"] if setup_only else []),
        "--spawn-wall", repr(time.time()),
    ]
    timeout = max(1.0, deadline - time.monotonic())
    completed = subprocess.run(command, cwd=ROOT, env=env, timeout=timeout,
                               stdout=subprocess.PIPE, text=True)
    if completed.returncode != 0:
        raise SystemExit(completed.returncode or 1)
    return json.loads(completed.stdout.strip().splitlines()[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(report: dict, setup_s: float) -> dict:
    e2e = report["e2e"]
    return {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(report["peak_rss_mb"], "MB"),
        "ops_per_s": metric(e2e["ops_per_s"], "1/s"),
        "op_ms_p50": metric(e2e["op_ms_p50"], "ms"),
        "entanglement_rate": metric(e2e["entanglement_rate"], "states"),
        "admission_ratio": metric(e2e["admission_ratio"], "ratio"),
    }


def layer_unit(name: str) -> str:
    """The unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.startswith(("share.", "layers.")) or name.endswith(
            ("_ratio", "_per_route", "_per_task", "_per_repair")):
        return "ratio"
    return "count"


def per_layer(traced: dict, untraced: dict) -> dict:
    values = dict(traced["layers"])
    values.update(untraced["extra"])
    values["trace.spans"] = traced["spans"]
    values["trace.ops"] = traced["attempted"]
    values["trace.overhead_pct"] = (
        (traced["wall_s"] - untraced["wall_s"]) / untraced["wall_s"] * 100.0
        if untraced["wall_s"] else 0.0)
    return {name: metric(value, layer_unit(name))
            for name, value in sorted(values.items())}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="n-fusion routing benchmark (see perfbench/README.md)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    nproc = os.cpu_count() or 1
    env, cleared = worker_env(nproc)
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    setup_times = []
    try:
        if args.trace:
            traced = run_worker(args, env, 1, deadline)
            untraced = run_worker(args, env, 0, deadline)
            reports = [traced, untraced]
            metrics = per_layer(traced, untraced)
        else:
            for start in range(SETUP_STARTS):
                if start == SETUP_STARTS // 2:
                    reports = [run_worker(args, env, 0, deadline)]
                    setup_times.append(reports[0]["setup_s"])
                else:
                    setup_times.append(run_worker(
                        args, env, 0, deadline, setup_only=True)["setup_s"])
            metrics = end_to_end(reports[0], median(setup_times))
    except subprocess.TimeoutExpired:
        print("perfbench: worker timed out", file=sys.stderr)
        return 3

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        **code_fingerprint(), **reports[0]["versions"], "nproc": nproc,
        "repro_env_cleared": cleared,
        "thread_caps": {key: env[key] for key in THREAD_VARS},
        "problems": [p for r in reports for p in r["problems"]],
        "pinned_units": reports[0]["pinned_units"],
        "units": [r["units"] for r in reports],
        "setup_times_s": setup_times,
        "untraced_tails": reports[-1]["extra"],
    }
    print("perfbench run: " + json.dumps(record), file=sys.stderr)
    OUT.mkdir(parents=True, exist_ok=True)
    record_path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps({**record, "metrics": metrics},
                                      indent=1) + "\n", encoding="utf-8")

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
