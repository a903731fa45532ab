"""The kernel's event order, pinned: what the simulator runs, when, in order.

Each job below runs under a span-recording session with ``kernel_events``
on, so the kernel emits one instant per dispatched event, named by the
callback's ``__qualname__``.  The digest covers the whole sequence of
``(time_ps, qualname)`` pairs.  A refactor of the DMI frame loop or of the
transaction path that keeps every event, its timestamp and its
same-timestamp order passes unchanged; one that adds, drops, reorders or
renames a scheduled callback fails.  Re-pin only in a change that means to
move events, and say so.
"""

import hashlib

import pytest

from repro.campaign.registry import get_experiment
from repro.telemetry import TraceSession

#: (experiment, kwargs) -> (kernel events, sha256 of the event sequence)
PINNED = {
    ("table3", (("samples", 8),)): (
        1765, "892c846b72277685b06f0941bb174c9a49c1cd845d0987b0de7c07b24d3a20ef",
    ),
    ("fio", (("ios", 2),)): (
        19976, "fc33d7feb8db655faf056fe8fdb189f864ae777cac7a5ad36846deb39820722f",
    ),
}


def kernel_event_digest(experiment, kwargs):
    """(count, sha256) of the ``(time_ps, qualname)`` kernel-event sequence."""
    spec = get_experiment(experiment)
    with TraceSession(experiment, kernel_events=True) as session:
        spec.runner(**dict(kwargs), seed=0)
    assert not session.dropped_events, "the span cap clipped the event stream"
    digest = hashlib.sha256()
    count = 0
    for event in session.events:
        if event.ph == "i" and event.category == "kernel":
            digest.update(f"{event.ts_ps}:{event.name}\n".encode())
            count += 1
    return count, digest.hexdigest()


@pytest.mark.parametrize("job", sorted(PINNED), ids=lambda job: job[0])
def test_kernel_event_sequence_is_pinned(job):
    assert kernel_event_digest(*job) == PINNED[job]
