"""Python work per kernel event on the campaign path: a deterministic gate.

Wall clock on a shared host drifts by tens of percent between runs, so
the per-event cost of the simulator is gated by a count instead: the
Python function calls (cProfile's total, built-ins included) that one
campaign job makes, divided by the kernel events it dispatches.  For a
given interpreter both numbers are exact, so the ratio repeats to the
last digit.

``execute_job(table3[samples=50])`` — the perfbench ``load_latency``
job at a twelfth of its size, under the same span-capped campaign
session — measured on CPython 3.11:

* 29.76 calls per event before per-event Python overhead was cut (a
  ``ScheduledCall`` constructor per event, a ``now_ps`` property read
  several times per event, spans built and then dropped by the
  ``max_events=0`` session, registry lookups per histogram sample, one
  lambda per DRAM bank per occupancy sample); the same job with no
  session at all then made 18.7;
* 17.34 after that cut (13.6 with no session), before the line-read path
  lost the Python nothing observes: a link-to-endpoint delivery
  trampoline per frame, keyword payload dicts, a frame base-class
  ``__init__``, a replay-buffer object between the endpoint and its held
  frames, properties for fixed timings, a wrapper signal per read at
  each of two layers, registry lookups per command counter, and a
  dataclass rebuilt into a dict per journey stage visit;
* :data:`ACHIEVED` now, session included (9.8 with no session).

The gate allows :data:`SLACK` over the achieved value.  A change that
adds per-event work fails it; one that removes work should lower
:data:`ACHIEVED` in the same change.  Other interpreter versions count
calls differently (3.12 inlines comprehensions), so the gate runs on
3.11 only.
"""

import cProfile
import pstats
import sys

import pytest

from repro.campaign.worker import execute_job

#: calls per kernel event measured for the job below (CPython 3.11)
ACHIEVED = 12.26

#: allowed growth over ACHIEVED before the gate fails
SLACK = 0.05

JOB = ("table3", (("samples", 50),), 0)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="cProfile call counts are pinned on CPython 3.11")
def test_calls_per_event_on_the_campaign_path():
    # warm up first: lazy imports and first-use caches are not per-event work
    execute_job(("table3", (("samples", 2),), 0))
    profiler = cProfile.Profile()
    profiler.enable()
    out = execute_job(JOB)
    profiler.disable()
    assert out["status"] == "ok", out.get("traceback")
    events = out["metrics"]["kernel.events"]
    assert events == 10169  # the work itself must not have changed
    per_event = pstats.Stats(profiler).total_calls / events
    assert per_event <= ACHIEVED * (1 + SLACK), (
        f"{per_event:.2f} Python calls per kernel event, over the gate of "
        f"{ACHIEVED} + {SLACK:.0%}: new per-event work on the campaign path"
    )
