"""Regression tests for the kernel's timeout/guard edge cases.

``run()`` and ``run_until_signal()`` share one drain with two bodies
(untimed, and instrumented for kernel-events traces and the profiler).
These pin guard bugs fixed in earlier dispatch loops, plus the
cancelled-event semantics both wrappers and both bodies must share:

* ``run_until_signal``'s deadline check must look past *cancelled* heap
  heads — a stale cancelled entry timestamped before the deadline used
  to let the next live event execute past the timeout;
* ``run()`` / the profiled drain must execute **exactly** ``max_events``
  events before raising, never one more;
* ``run_until_signal`` must honour ``max_events`` at all (a
  self-rescheduling loop that never fires the signal and never passes a
  timeout would otherwise spin forever), and, like ``run()``, raise only
  when one more event is due: a queue that drains at the limit is a
  deadlock;
* the heap entry is the handle :meth:`Simulator.call_at` returns:
  cancelling it before dispatch removes it from ``pending_events`` once,
  cancelling it again or after it ran changes nothing, ``step()`` skips
  it like the drains do, and scheduling runs no Python code but the
  scheduling call itself.
"""

import sys

import pytest

from repro.errors import SimulationError
from repro.sim import ScheduledCall, Signal, Simulator
from repro.sim.profile import profiled
from repro.telemetry import TraceSession


class TestSignalDeadline:
    def test_deadline_ignores_cancelled_head(self):
        # a cancelled event *inside* the deadline must not mask a live
        # event *beyond* it
        sim = Simulator()
        sig = Signal("late")
        sim.call_after(500, lambda: None).cancel()
        sim.trigger_after(5_000, sig)
        with pytest.raises(SimulationError, match="timeout"):
            sim.run_until_signal(sig, timeout_ps=1_000)
        assert not sig.triggered  # the live event never executed

    def test_live_event_inside_deadline_still_runs(self):
        sim = Simulator()
        sig = Signal("ok")
        sim.call_after(500, lambda: None).cancel()
        sim.trigger_after(800, sig, "v")
        assert sim.run_until_signal(sig, timeout_ps=1_000) == "v"

    def test_signal_max_events_guard(self):
        sim = Simulator()
        sig = Signal("never")
        executed = []

        def reschedule():
            executed.append(sim.now_ps)
            sim.call_after(1, reschedule)

        sim.call_after(1, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run_until_signal(sig, max_events=50)
        assert len(executed) == 50

    def test_signal_max_events_guard_traced(self):
        sim = Simulator()
        sig = Signal("never")

        def reschedule():
            sim.call_after(1, reschedule)

        sim.call_after(1, reschedule)
        with TraceSession("unit", kernel_events=True):
            with pytest.raises(SimulationError, match="max_events"):
                sim.run_until_signal(sig, max_events=50)


class TestExactMaxEvents:
    def test_run_executes_exactly_max_events(self):
        sim = Simulator()
        executed = []

        def reschedule():
            executed.append(sim.now_ps)
            sim.call_after(1, reschedule)

        sim.call_after(1, reschedule)
        with pytest.raises(SimulationError, match="max_events"):
            sim.run(max_events=100)
        assert len(executed) == 100

    def test_run_at_the_limit_does_not_raise(self):
        sim = Simulator()
        seen = []
        for i in range(5):
            sim.call_after(10 * (i + 1), lambda i=i: seen.append(i))
        assert sim.run(max_events=5) == 5
        assert seen == [0, 1, 2, 3, 4]

    def test_signal_wait_at_the_limit_reports_deadlock(self):
        # exactly max_events ran and nothing else is due: the queue
        # drained without the signal, so this is a deadlock
        sim = Simulator()
        for i in range(5):
            sim.call_after(10 * (i + 1), lambda: None)
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_signal(Signal("never"), max_events=5)
        assert sim.now_ps == 50

    def test_profiled_run_executes_exactly_max_events(self):
        sim = Simulator()
        executed = []

        def reschedule():
            executed.append(sim.now_ps)
            sim.call_after(1, reschedule)

        sim.call_after(1, reschedule)
        with profiled():
            with pytest.raises(SimulationError, match="max_events"):
                sim.run(max_events=100)
        assert len(executed) == 100


class TestCancelledAcrossDispatchLoops:
    """One cancelled + one live event through both wrappers and bodies."""

    def _schedule(self, sim):
        seen = []
        sim.call_after(100, lambda: seen.append("dead")).cancel()
        sim.call_after(200, lambda: seen.append("live"))
        return seen

    def test_plain_run(self):
        sim = Simulator()
        seen = self._schedule(sim)
        assert sim.run() == 1
        assert seen == ["live"]
        assert sim.pending_events == 0

    def test_traced_run(self):
        sim = Simulator()
        seen = self._schedule(sim)
        with TraceSession("unit", kernel_events=True) as session:
            assert sim.run() == 1
        assert seen == ["live"]
        names = [e.name for e in session.events if e.category == "kernel" and e.ph == "i"]
        assert len(names) == 1  # the cancelled event emits no instant

    def test_profiled_run(self):
        sim = Simulator()
        seen = self._schedule(sim)
        with profiled() as prof:
            assert sim.run() == 1
        assert seen == ["live"]
        assert prof.events == 1  # the cancelled event was never timed

    def test_run_until_signal(self):
        sim = Simulator()
        seen = self._schedule(sim)
        sig = Signal("done")
        sim.trigger_after(300, sig, "v")
        assert sim.run_until_signal(sig) == "v"
        assert seen == ["live"]
        assert sim.pending_events == 0

    def test_run_until_signal_profiled(self):
        sim = Simulator()
        seen = self._schedule(sim)
        sig = Signal("done")
        sim.trigger_after(300, sig)
        with profiled():
            sim.run_until_signal(sig)
        assert seen == ["live"]


class TestScheduledCallHandle:
    """The heap entry doubles as the cancel handle."""

    def test_cancel_before_dispatch(self):
        sim = Simulator()
        seen = []
        call = sim.call_after(100, lambda: seen.append("dead"))
        sim.call_after(200, lambda: seen.append("live"))
        assert sim.pending_events == 2
        call.cancel()
        assert call.cancelled
        assert sim.pending_events == 1
        assert sim.run() == 1
        assert seen == ["live"]
        assert sim.pending_events == 0

    def test_cancel_after_dispatch_is_a_noop(self):
        sim = Simulator()
        seen = []
        ran = sim.call_after(100, lambda: seen.append("ran"))
        sim.call_after(200, lambda: seen.append("later"))
        sim.run(until_ps=150)
        assert seen == ["ran"] and sim.pending_events == 1
        ran.cancel()
        assert sim.pending_events == 1  # the counter never saw it twice
        assert sim.run() == 1
        assert seen == ["ran", "later"]
        assert sim.pending_events == 0

    def test_double_cancel_counts_once(self):
        sim = Simulator()
        call = sim.call_after(100, lambda: None)
        sim.call_after(200, lambda: None)
        call.cancel()
        call.cancel()
        assert sim.pending_events == 1
        assert sim.run() == 1
        assert sim.pending_events == 0

    def test_cancel_from_inside_a_callback(self):
        sim = Simulator()
        seen = []
        later = sim.call_after(200, lambda: seen.append("dead"))
        sim.call_after(100, later.cancel)
        assert sim.run() == 1
        assert seen == [] and sim.pending_events == 0

    def test_step_skips_cancelled_entries(self):
        sim = Simulator()
        seen = []
        sim.call_after(100, lambda: seen.append("dead")).cancel()
        sim.call_after(200, lambda: seen.append("live"))
        assert sim.step()
        assert seen == ["live"] and sim.now_ps == 200
        assert sim.pending_events == 0
        assert not sim.step()

    def test_step_then_cancel_is_a_noop(self):
        sim = Simulator()
        call = sim.call_after(100, lambda: None)
        sim.call_after(200, lambda: None)
        assert sim.step()
        call.cancel()
        assert sim.pending_events == 1

    def test_handle_exposes_its_call(self):
        sim = Simulator()

        def fn(a, b):
            return None

        call = sim.call_at(300, fn, 1, 2)
        assert isinstance(call, ScheduledCall)
        assert (call.time_ps, call.fn, call.args) == (300, fn, (1, 2))
        assert not call.cancelled

    def test_scheduling_runs_no_python_constructor(self):
        # the entry is built from a tuple in C: the only Python frames a
        # schedule opens are call_at / call_after themselves
        sim = Simulator()
        frames = []

        def tracer(frame, event, arg):
            if event == "call":
                frames.append(frame.f_code.co_name)

        sys.setprofile(tracer)
        try:
            sim.call_after(10, print)
            sim.call_at(20, print)
        finally:
            sys.setprofile(None)
        assert [name for name in frames if name != "tracer"] == [
            "call_after", "call_at",
        ]
