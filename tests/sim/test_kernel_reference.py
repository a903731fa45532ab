"""The kernel against the list-based reference scheduler.

Random programs of scheduling, cancelling (handles still pending, already
dispatched or already cancelled), signal triggers, single ``step`` calls,
bounded and unbounded ``run`` calls and ``run_until_signal`` waits (with
and without deadlines and ``max_events`` limits) run on both
:class:`~repro.sim.Simulator` and :class:`~tests.sim.reference.ReferenceScheduler`.
Callbacks schedule children, cancel earlier calls, trigger signals and try
to re-enter the dispatch loop.  Every program runs in three modes, so that
both of the kernel's drain bodies are covered: plain (the untimed body),
under a ``kernel_events`` trace session and under the profiler (the
instrumented body).  Execution order, clock, pending count, return values
and error kinds must all match the reference.
"""

from contextlib import nullcontext

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.sim import Signal, Simulator
from repro.sim.profile import profiled
from repro.telemetry import TraceSession

from .reference import ReferenceScheduler

SIGNALS = 2

#: substrings that tell the kernel's error messages apart
ERROR_KINDS = ("re-entrant", "max_events", "timeout", "deadlock", "past", "twice")

MODES = {
    "plain": nullcontext,
    "traced": lambda: TraceSession("reference", kernel_events=True),
    "profiled": profiled,
}

def grid(low, high):
    """Times on a coarse 10 ps grid, so that ties and events landing exactly
    on a run's ``until_ps`` or a wait's deadline are common."""
    return st.integers(low, high).map(lambda k: 10 * k)


DELAYS = grid(0, 3)
HANDLES = st.none() | st.integers(0, 15)
SIGNAL_INDEX = st.integers(0, SIGNALS - 1)
LIMITS = st.none() | st.integers(0, 6)

#: a callback: (cancel handle, signal to trigger, re-entry attempt, children)
CALLBACKS = st.recursive(
    st.tuples(
        HANDLES,
        st.none() | SIGNAL_INDEX,
        st.none() | st.sampled_from(["run", "wait"]),
        st.just(()),
    ),
    lambda children: st.tuples(
        HANDLES,
        st.none() | SIGNAL_INDEX,
        st.none(),
        st.lists(st.tuples(DELAYS, children), max_size=3).map(tuple),
    ),
    max_leaves=6,
)

OPS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS, CALLBACKS),
    st.tuples(st.just("at"), grid(0, 12), CALLBACKS),
    st.tuples(st.just("trigger"), DELAYS, SIGNAL_INDEX),
    st.tuples(st.just("cancel"), st.integers(0, 15)),
    st.tuples(st.just("run"), st.none() | grid(-1, 4), LIMITS),
    st.tuples(st.just("step")),
    st.tuples(st.just("wait"), SIGNAL_INDEX, st.none() | grid(0, 4), LIMITS),
)


def outcome(action, *args):
    """``("ok", value)`` or ``("error", type, kind)`` for one call."""
    try:
        return ("ok", action(*args))
    except (SimulationError, RuntimeError) as exc:
        kind = next(kind for kind in ERROR_KINDS if kind in str(exc))
        return ("error", type(exc).__name__, kind)


def limit(max_events):
    return {} if max_events is None else {"max_events": max_events}


def execute(world, program):
    """Run ``program`` on ``world``; returns the log of everything observable."""
    signals = [Signal(f"s{i}") for i in range(SIGNALS)]
    calls, log = [], []

    def schedule(time_ps, fn, *args):
        calls.append(world.call_at(time_ps, fn, *args))

    def fire(label, callback):
        cancel, trigger, reenter, children = callback
        log.append((label, world.now_ps))
        if cancel is not None and calls:
            calls[cancel % len(calls)].cancel()
        if trigger is not None and not signals[trigger].triggered:
            signals[trigger].trigger(label)
        if reenter == "run":
            log.append(outcome(world.run))
        elif reenter == "wait":
            log.append(outcome(world.run_until_signal, signals[0]))
        for i, (delay, child) in enumerate(children):
            schedule(world.now_ps + delay, fire, f"{label}.{i}", child)

    def perform(step, op):
        kind, now = op[0], world.now_ps
        if kind == "schedule":
            schedule(now + op[1], fire, str(step), op[2])
        elif kind == "at":
            schedule(op[1], fire, str(step), op[2])
        elif kind == "trigger":
            schedule(now + op[1], signals[op[2]].trigger, f"v{step}")
        elif kind == "cancel":
            if calls:
                calls[op[1] % len(calls)].cancel()
        elif kind == "run":
            return world.run(None if op[1] is None else now + op[1], **limit(op[2]))
        elif kind == "step":
            return world.step()
        else:
            return world.run_until_signal(signals[op[1]], op[2], **limit(op[3]))

    for step, op in enumerate(program):
        log.append(outcome(perform, step, op) + (world.now_ps, world.pending_events))
    return log


LEAF = (None, None, None, ())


@pytest.mark.parametrize("mode", sorted(MODES))
@settings(max_examples=150, deadline=None)
@given(program=st.lists(OPS, min_size=8, max_size=30))
# one pinned boundary each: a cancelled head, the last event under
# max_events, an event exactly at until_ps, a wait on a fired signal
@example(program=[("schedule", 0, LEAF), ("cancel", 0), ("run", None, None)])
@example(program=[("schedule", 0, LEAF), ("schedule", 0, LEAF), ("run", None, 1)])
@example(program=[("schedule", 10, LEAF), ("run", 10, None)])
@example(program=[
    ("trigger", 0, 0), ("schedule", 0, LEAF), ("wait", 0, None, None), ("wait", 0, None, None),
])
# the handle itself: cancel before dispatch, cancel after dispatch (a
# no-op), double cancel, and step() past a cancelled head
@example(program=[("schedule", 10, LEAF), ("schedule", 20, LEAF), ("cancel", 0),
                  ("run", None, None)])
@example(program=[("schedule", 10, LEAF), ("schedule", 20, LEAF), ("run", 10, None),
                  ("cancel", 0), ("run", None, None)])
@example(program=[("schedule", 10, LEAF), ("schedule", 20, LEAF), ("cancel", 0),
                  ("cancel", 0), ("run", None, None)])
@example(program=[("schedule", 10, LEAF), ("schedule", 20, LEAF), ("cancel", 0),
                  ("step",), ("step",), ("step",)])
def test_simulator_matches_reference(mode, program):
    expected = execute(ReferenceScheduler(), program)
    with MODES[mode]():
        assert execute(Simulator(), program) == expected
