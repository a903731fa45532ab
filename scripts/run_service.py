#!/usr/bin/env python
"""Run the simulated stack as an open-loop service and emit a run table.

A schedule file describes offered load over time (see docs/service.md):

    python scripts/run_service.py --schedule schedules/flashcrowd.json
    python scripts/run_service.py --schedule s.json --shards 4 --repetitions 3
    python scripts/run_service.py --schedule s.json --faults plan.json

The run is two campaign phases.  First a single **calibration job**
measures every request class the schedule references — one shared
artifact per invocation, instead of every (repetition, shard) job
re-running the simulator for the same profiles.  Then each
(repetition, shard) runs as a campaign job — cached, retried,
manifest-journaled like any sweep — carrying the calibration artifact
in its kwargs, so the result cache keys on profile content.  The parent
merges the shard demand tables, replays the bounded-queue service loop
over the globally ordered stream, and writes to ``--out``:

* ``run_table.csv``    — one row per (run, repetition, window);
* ``run_table.jsonl``  — the same grid as ``repro.service/v1`` records;
* ``metrics.jsonl``    — merged telemetry of every executed job;
* ``attribution.jsonl``— merged latency attribution of the calibration;
* ``manifest.jsonl``   — the shard job journal;
* ``calib-manifest.jsonl`` — the calibration job journal.

The run table never depends on ``--shards``: the same schedule and seed
reproduce it byte for byte at any shard count.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.campaign import ResultCache
from repro.errors import ConfigurationError, ReproError
from repro.report import load_fault_plan
from repro.service import ArrivalSchedule, ServiceDriver


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--schedule", required=True, metavar="FILE",
        help="arrival-schedule JSON (docs/service.md)",
    )
    parser.add_argument(
        "--shards", type=int, default=1, metavar="N",
        help="campaign workers the demand stream splits across",
    )
    parser.add_argument(
        "--repetitions", type=int, default=1, metavar="N",
        help="independent repetitions (distinct derived seeds)",
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed; repetition seeds derive from it",
    )
    parser.add_argument(
        "--calib-samples", type=int, default=24, metavar="N",
        help="sim operations per request-class calibration",
    )
    parser.add_argument(
        "--faults", default=None, metavar="FILE",
        help="fault plan JSON installed during memory-class calibration "
             "(see docs/faults.md)",
    )
    parser.add_argument(
        "--out", default="service-out", metavar="DIR",
        help="output directory for run_table.csv and friends",
    )
    parser.add_argument(
        "--cache-dir", default=".campaign-cache", metavar="DIR",
        help="content-addressed result cache location",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always run every shard job; don't read or write the cache",
    )
    parser.add_argument(
        "--timeout", type=float, default=None, metavar="S",
        help="per-job wall-clock limit in seconds (needs --shards > 1)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.timeout is not None and args.shards == 1:
        print("--timeout needs --shards > 1: an inline job cannot be preempted",
              file=sys.stderr)
        return 2
    try:
        schedule = ArrivalSchedule.from_json(
            Path(args.schedule).read_text(encoding="utf-8")
        )
    except (OSError, ConfigurationError) as exc:
        print(f"schedule: {exc}", file=sys.stderr)
        return 2
    if args.shards < 1 or args.repetitions < 1:
        print("--shards and --repetitions must be >= 1", file=sys.stderr)
        return 2

    faults = None
    if args.faults:
        try:
            faults = load_fault_plan(args.faults)
        except ConfigurationError as exc:
            print(f"fault plan: {exc}", file=sys.stderr)
            return 2

    out_dir = Path(args.out)
    driver = ServiceDriver(
        schedule,
        out_dir=out_dir,
        seed=args.seed,
        shards=args.shards,
        repetitions=args.repetitions,
        calib_samples=args.calib_samples,
        faults=faults,
        cache=None if args.no_cache else ResultCache(args.cache_dir),
        timeout_s=args.timeout,
    )
    try:
        result = driver.run()
    except ReproError as exc:
        print(f"merge: {exc}", file=sys.stderr)
        return 1
    if result.failed:
        for outcome in result.failed:
            print(f"FAILED {outcome.job.job_id}: {outcome.error}",
                  file=sys.stderr)
        return 1

    print(result.render())
    print(f"calibration: {result.calib_report.summary()}", file=sys.stderr)
    print(f"campaign: {result.shard_report.summary()}", file=sys.stderr)
    print(f"wrote {out_dir / 'run_table.csv'}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
