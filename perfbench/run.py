#!/usr/bin/env python3
"""Benchmark of the ConTutto twin: one workload per experiment class of the
paper, timed through the campaign engine's inline path.

    python3 perfbench/run.py                      # every workload, both modes
    python3 perfbench/run.py --workload fio_nvm --seed 3 --seconds 30 --trace 0
    python3 perfbench/run.py --ledger             # every registered experiment once
    python3 perfbench/run.py --record-digests     # re-pin digests.json

Run it from the repository root; the program is imported from ``src/``.
Each repetition runs one job through ``repro.campaign.worker.execute_job``
-- what ``regenerate_experiments.py --jobs 1`` and every CLI execute, so a
telemetry session is active -- in one process and one thread, with no pool
and no result cache, seeded by ``--seed``.  On the host this is a closed
batch run; inside the simulation each workload is the paper's own closed
loop.

``--trace 0`` repeats the job for ``--seconds`` with tracing off and
reports the end-to-end metrics.  ``--trace 1`` alternates untraced and
traced repetitions; the traced ones run under the span wrappers of
``layers.py`` and give the per-layer metrics.  Either way the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  README.md describes the workloads and metrics,
RUN_TABLE_COLUMNS.md the run table.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: a run measures for --seconds, then finishes its last repetition
CHILD_TIMEOUT_S = 900


def load_harness():
    """Import the benchmark harness against this checkout's ``src/``.

    Exits with status 2 when the checkout holds no program to benchmark.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to benchmark: {SRC / 'repro'} is missing",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import harness

    return harness


def run_all(names, seed: int, seconds: int, out: Path) -> int:
    """Every workload untraced, then every workload traced, each run in a
    fresh process."""
    status = 0
    for trace in (0, 1):
        for name in names:
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
                 "--out", str(out.resolve())],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            lines = proc.stdout.strip().splitlines() or [""]
            print("\n".join(lines[:-1]), flush=True)
            try:
                correct = json.loads(lines[-1])["correct"]
            except (ValueError, KeyError, TypeError):
                correct = False
            if proc.returncode != 0 or not correct:
                status = 1
                print(proc.stderr, file=sys.stderr)
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload",
                        help="run one workload and print its JSON result "
                             "(default: every workload, both modes)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=BENCH_DIR / "out",
                        help="directory for run_table.csv and ledger.json")
    parser.add_argument("--ledger", action="store_true",
                        help="run every public registered experiment once (ungated)")
    parser.add_argument("--record-digests", action="store_true",
                        help="re-pin digests.json for --workload (default: all)")
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    harness = load_harness()
    if args.workload is not None and args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(known: {', '.join(harness.WORKLOADS)})")
    if args.ledger:
        print(f"ledger written to {harness.ledger(args.seed, args.out)}")
        return 0
    if args.record_digests:
        harness.record_digests([args.workload] if args.workload else list(harness.WORKLOADS))
        return 0
    if args.workload is None:
        return run_all(list(harness.WORKLOADS), args.seed, args.seconds, args.out)
    result = harness.measure(args.workload, args.seed, args.seconds, args.trace, args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
