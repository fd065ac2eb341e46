"""Benchmark entry point: run one workload once and print its metrics.

Run from the repository root::

    python3 perfbench/run.py --workload campus-fleet --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.  The last line of standard output is
one JSON object ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it are a readable table and a ``perfbench-report`` JSON
line with sample counts, tails, the result digest and where the run ran.
Exits 2 without a result when the program's source is missing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    """Return the checked-out commit when the tree is a git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def _source_digest() -> str:
    """Return a SHA-256 over the program's sources (identifies the code measured)."""
    sha = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        sha.update(str(path.relative_to(SRC)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def host_info(seed: int) -> dict[str, object]:
    """Record where and on what a result was measured."""
    import numpy

    affinity = getattr(os, "sched_getaffinity", None)
    return {
        "nproc": len(affinity(0)) if affinity else os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny shrinks every round and set-up count (for the benchmark's tests)",
    )
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    sys.path[:0] = [str(SRC), str(ROOT)]
    # Every run uses its own memory-only artifact cache.
    os.environ.pop("REPRO_CACHE_DIR", None)

    from perfbench.bench import run_end_to_end, run_traced
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    spool = WORK / str(os.getpid())
    try:
        run = run_traced if args.trace else run_end_to_end
        result, report = run(workload, args.seed, args.seconds, args.size, spool)
    finally:
        shutil.rmtree(spool, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run's spool is still there
    report = {
        "workload": workload.name,
        "trace": args.trace,
        "size": args.size,
        "host": host_info(args.seed),
        **report,
    }
    for name, metric in result["metrics"].items():
        print(f"{name:48s} {metric['value']:14.6g} {metric['unit']}")
    print(
        f"correct={result['correct']} attempted={result['attempted']} "
        f"failed={result['failed']}"
    )
    print("perfbench-report " + json.dumps(report, sort_keys=True))
    # A non-finite metric is not a result: refuse to print one.
    print(json.dumps(result, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
