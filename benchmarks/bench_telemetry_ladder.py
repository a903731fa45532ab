"""What each telemetry layer of a campaign job costs, as a ratio to bare.

Every campaign job, perfbench repetition and paper regeneration runs
under a campaign :class:`~repro.telemetry.TraceSession` (``max_events=0``,
journeys and occupancy sampling on).  This tool climbs the ladder from no
session at all to the full campaign path, one layer per rung:

========== ==============================================================
bare       the experiment with no session (telemetry off)
metrics    a ``max_events=0`` session: counters and histograms only
+journeys  ... plus per-transaction journeys
+occupancy ... plus occupancy sampling (the campaign session itself)
campaign   ``execute_job``: the session plus journey records and snapshot
========== ==============================================================

Runs interleave: each round runs bare, then every rung, and the next
round starts with bare again.  A rung's ratio is its time divided by the
mean of the two bare runs around it, and the tool prints the median
ratio over the rounds.  On a shared host the raw times drift by tens of
percent between minutes; the ratio to adjacent bare runs does not.

Standalone:  python benchmarks/bench_telemetry_ladder.py [--rounds N]
"""

import argparse
import os
import statistics
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from repro.campaign.matrix import CampaignJob  # noqa: E402
from repro.campaign.worker import execute_job, run_experiment  # noqa: E402
from repro.telemetry import TraceSession  # noqa: E402

#: (label, experiment, knobs): the two DMI-heavy perfbench workloads
JOBS = (
    ("table3[samples=600]", "table3", (("samples", 600),)),
    ("fio[ios=16]", "fio", (("ios", 16),)),
)

#: session arguments per rung; ``None`` means no session
SESSIONS = {
    "bare": None,
    "metrics": {"journeys": False, "occupancy_period_ps": None},
    "+journeys": {"journeys": True, "occupancy_period_ps": None},
    "+occupancy": {"journeys": True},
}
RUNGS = tuple(SESSIONS) + ("campaign",)


def _time_rung(rung: str, experiment: str, knobs: tuple, seed: int) -> float:
    job = CampaignJob(experiment, knobs, seed)
    t0 = time.perf_counter()
    if rung == "campaign":
        out = execute_job((experiment, knobs, seed))
        if out["status"] != "ok":
            raise RuntimeError(out["traceback"])
    elif SESSIONS[rung] is None:
        run_experiment(job)
    else:
        with TraceSession(f"ladder:{rung}", max_events=0, **SESSIONS[rung]):
            run_experiment(job)
    return time.perf_counter() - t0


def ladder(experiment: str, knobs: tuple, rounds: int, seed: int = 0) -> dict:
    """``{rung: (median seconds, median ratio to adjacent bare runs)}``."""
    _time_rung("bare", experiment, knobs, seed)  # warm imports and caches
    times = {rung: [] for rung in RUNGS}
    for _ in range(rounds):
        for rung in RUNGS:
            times[rung].append(_time_rung(rung, experiment, knobs, seed))
    times["bare"].append(_time_rung("bare", experiment, knobs, seed))
    bare = times["bare"]
    out = {}
    for rung in RUNGS:
        ratios = [t / ((bare[i] + bare[i + 1]) / 2) for i, t in enumerate(times[rung][:rounds])]
        out[rung] = (statistics.median(times[rung]), statistics.median(ratios))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    print(f"# {args.rounds} rounds, seed {args.seed}, Python "
          f"{sys.version.split()[0]}, {os.cpu_count()} cores")
    print(f"{'job':<22}" + "".join(f"{rung:>18}" for rung in RUNGS))
    for label, experiment, knobs in JOBS:
        result = ladder(experiment, knobs, args.rounds, args.seed)
        cells = "".join(
            f"{f'{secs:.3f} s x{ratio:.3f}':>18}" for secs, ratio in result.values()
        )
        print(f"{label:<22}{cells}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
