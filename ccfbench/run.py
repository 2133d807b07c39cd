"""Repository benchmark: one command per workload, every answer checked.

Usage (from the repository root)::

    python3 ccfbench/run.py --workload ingest --seed 1 --seconds 30 --trace 0

Workloads: ``ingest`` (durable write path), ``serve`` (read path through the
worker pool and the coalescing front end), ``joblight`` (the paper's
JOB-light semijoin).  ``--trace 0`` prints the end-to-end metrics; ``--trace
1`` runs the same work with layer wrappers installed for its second half and
prints the per-layer metrics.  The last stdout line is the result object;
the line before it is the detail record.  See README.md.

The program under test is imported from ``src/`` next to this directory;
without it the command exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import shutil
import sys
import tempfile
import time
from pathlib import Path

from metrics import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program is missing ({src / 'repro'} not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    from harness import emit, environment
    from metrics import end_to_end, per_layer

    workload = importlib.import_module(args.workload)
    started = time.perf_counter()
    work = Path(tempfile.mkdtemp(prefix=".ccfbench-", dir=ROOT))
    try:
        out = workload.run(args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    ledger = out["ledger"]
    metrics = per_layer(out["layers"]) if args.trace else end_to_end(out["e2e"])
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "environment": environment(ROOT),
        "end_to_end": out["e2e"],
        **out["detail"],
        "ledger": ledger.summary(),
    }
    if out["layers"] is not None:
        detail["per_layer"] = out["layers"]
    result = {
        "correct": ledger.correct,
        "attempted": int(sum(ledger.attempted.values())),
        "failed": int(sum(ledger.failed.values())),
        "metrics": metrics,
    }
    emit(result, detail)
    return 0


if __name__ == "__main__":
    sys.exit(main())
