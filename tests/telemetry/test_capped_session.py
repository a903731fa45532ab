"""A span-capped session never builds a span.

Campaign jobs run under ``TraceSession(max_events=0)``: metrics, journeys
and occupancy, but no stored spans.  Such a session is span-free by
construction — every instrumented site tests ``records_spans`` before it
formats a span — so ``complete``/``instant`` must never be reached, and
the job's metrics snapshot must not change for it.

``capped_session_snapshots.json`` pins the final snapshot of two campaign
jobs.  Apart from ``telemetry.dropped_events``, it is key for key the
snapshot the same jobs produced when every span was built and then
dropped at the cap (that key then read 705 and 7091: the dropped spans).
Regenerate it only for a change that is meant to move these metrics::

    PYTHONPATH=src python -c "import json; from repro.campaign.worker import \\
        execute_job; print(json.dumps(execute_job(('table3', (('samples', 8),), \\
        0))['metrics'], sort_keys=True))"
"""

import json
from pathlib import Path

import pytest

from repro.campaign.worker import execute_job
from repro.telemetry import TraceSession

PINNED = json.loads(
    (Path(__file__).with_name("capped_session_snapshots.json")).read_text()
)

JOBS = {
    "table3[samples=8]": ("table3", (("samples", 8),)),
    "fio[ios=2]": ("fio", (("ios", 2),)),
}


def _refuse(*args, **kwargs):
    raise AssertionError("a max_events=0 session was asked to build a span")


@pytest.mark.parametrize("label", sorted(JOBS))
def test_capped_job_never_reaches_span_calls(monkeypatch, label):
    monkeypatch.setattr(TraceSession, "complete", _refuse)
    monkeypatch.setattr(TraceSession, "instant", _refuse)
    experiment, knobs = JOBS[label]
    out = execute_job((experiment, knobs, 0))
    assert out["status"] == "ok", out.get("traceback")
    assert out["metrics"] == PINNED[label]


@pytest.mark.parametrize("label", sorted(JOBS))
def test_unpatched_job_matches_the_pin(label):
    experiment, knobs = JOBS[label]
    out = execute_job((experiment, knobs, 0))
    assert out["status"] == "ok", out.get("traceback")
    assert out["metrics"] == PINNED[label]
    assert out["metrics"]["telemetry.dropped_events"] == 0


def test_records_spans_follows_the_cap():
    assert not TraceSession("t", max_events=0).records_spans
    assert TraceSession("t", max_events=1).records_spans


def test_positive_cap_still_counts_drops():
    with TraceSession("t", max_events=1) as session:
        for ts in range(3):
            session.instant("dmi", "x", ts)
    assert session.snapshots[-1]["metrics"]["telemetry.dropped_events"] == 2
