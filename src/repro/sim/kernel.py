"""The discrete-event simulation kernel.

:class:`Simulator` owns the clock (integer picoseconds) and the event queue.
Everything else in the library — DMI links, memory controllers, accelerators —
is driven by callbacks and generator processes scheduled here.

Design notes
------------
* Events with equal timestamps run in the order they were scheduled
  (``(time_ps, seq)`` ordering), making runs bit-reproducible.
* The kernel never consults wall-clock time or global randomness; anything
  stochastic takes an explicit :class:`repro.sim.rng.Rng`.
* Processes are plain generators (see :mod:`repro.sim.process`); the kernel
  only knows about scheduled callbacks, keeping the core small and auditable.
* Heap entries are :class:`~repro.sim.event.ScheduledCall` lists
  ``[time_ps, seq, fn, args, sim]``, built from a tuple with no Python
  constructor: ``heapq`` sifts compare C integers, and ``seq`` is unique so
  the callback is never compared.  The entry is also the handle
  :meth:`Simulator.call_at` returns.  A live (not-yet-cancelled) event
  counter is maintained O(1) across scheduling, cancellation, and dispatch
  so :attr:`pending_events` never scans the heap.
* :attr:`Simulator.now_ps` is a plain attribute the kernel writes at each
  dispatch; models read it several times per event.
* :meth:`Simulator.run` and :meth:`Simulator.run_until_signal` share one
  drain, :meth:`Simulator._dispatch`, so they share one set of guards.
  See ``docs/kernel.md`` for the hot-path design rules.
"""

from __future__ import annotations

from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, List, Optional

from ..errors import SimulationError
from ..telemetry import probe
from . import profile as _profile
from .event import ARGS, FN, SIM, TIME, ScheduledCall, Signal

#: default runaway-loop guard: exactly this many events may execute before
#: a dispatch loop raises :class:`SimulationError`
DEFAULT_MAX_EVENTS = 50_000_000

#: the stop signal of :meth:`Simulator.run`: never triggered
_NEVER = Signal("never")


class Simulator:
    """A deterministic discrete-event simulator with picosecond resolution."""

    def __init__(self) -> None:
        #: current simulated time in picoseconds; written only by the kernel
        self.now_ps = 0
        self._seq = 0
        self._queue: List[ScheduledCall] = []
        self._live_events = 0
        self._running = False

    # -- time ----------------------------------------------------------

    @property
    def now_ns(self) -> float:
        """Current simulated time in nanoseconds (convenience for reports)."""
        return self.now_ps / 1_000

    # -- scheduling ------------------------------------------------------

    def call_at(self, time_ps: int, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Schedule ``fn(*args)`` at absolute simulated time ``time_ps``."""
        if time_ps < self.now_ps:
            raise SimulationError(
                f"cannot schedule in the past: {time_ps} < now {self.now_ps}"
            )
        seq = self._seq
        self._seq = seq + 1
        call = ScheduledCall((time_ps, seq, fn, args, self))
        self._live_events += 1
        heappush(self._queue, call)
        return call

    def call_after(self, delay_ps: int, fn: Callable[..., Any], *args: Any) -> ScheduledCall:
        """Schedule ``fn(*args)`` ``delay_ps`` picoseconds from now."""
        if delay_ps < 0:
            raise SimulationError(f"negative delay: {delay_ps}")
        # Inlined call_at (minus the cannot-happen past check): this is the
        # kernel's most-called scheduling entry point.
        time_ps = self.now_ps + delay_ps
        seq = self._seq
        self._seq = seq + 1
        call = ScheduledCall((time_ps, seq, fn, args, self))
        self._live_events += 1
        heappush(self._queue, call)
        return call

    def trigger_after(self, delay_ps: int, signal: Signal, value: Any = None) -> ScheduledCall:
        """Trigger ``signal`` with ``value`` after ``delay_ps``."""
        return self.call_after(delay_ps, signal.trigger, value)

    # -- execution -------------------------------------------------------

    def step(self) -> bool:
        """Run the single next event.  Returns ``False`` if the queue is empty."""
        # Uncounted and uninstrumented on purpose: AccelBlock.run_to_completion
        # drives table5 through here, and its pinned kernel.* counters say 0.
        queue = self._queue
        while queue:
            time_ps, _, fn, args, _ = call = heappop(queue)
            if fn is None:
                continue
            call[SIM] = None
            self._live_events -= 1
            self.now_ps = time_ps
            fn(*args)
            return True
        return False

    def run(self, until_ps: Optional[int] = None, max_events: int = DEFAULT_MAX_EVENTS) -> int:
        """Run events until the queue drains or simulated time passes ``until_ps``.

        Returns the number of events executed.  ``max_events`` guards against
        runaway self-rescheduling loops in model bugs: exactly ``max_events``
        events may execute; the error raises when one more is due.
        """
        trace = probe.session
        start_ps = self.now_ps
        executed = self._dispatch(until_ps, max_events, _NEVER)
        if until_ps is not None and self.now_ps < until_ps:
            self.now_ps = until_ps
        if trace is not None:
            if trace.records_spans:
                trace.complete(
                    "kernel", "run", start_ps, self.now_ps, {"events": executed}
                )
            counters = trace.counters
            counters["kernel.runs"].count += 1
            counters["kernel.events"].count += executed
        return executed

    def run_until_signal(
        self,
        signal: Signal,
        timeout_ps: Optional[int] = None,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> Any:
        """Run until ``signal`` triggers; returns its value.

        Raises :class:`SimulationError` if the event queue drains (deadlock),
        the next live event lies past the optional timeout, or one more event
        is due after ``max_events`` executed (a self-rescheduling loop that
        never fires the signal would otherwise spin forever with no timeout).
        """
        trace = probe.session
        start_ps = self.now_ps
        deadline = None if timeout_ps is None else start_ps + timeout_ps
        executed = self._dispatch(deadline, max_events, signal)
        if not signal.triggered:
            if self._live_events:
                raise SimulationError(
                    f"timeout waiting for signal {signal.name!r} after {timeout_ps}ps"
                )
            raise SimulationError(
                f"deadlock: event queue empty, signal {signal.name!r} never fired"
            )
        if trace is not None:
            if trace.records_spans:
                trace.complete(
                    "kernel", "run_until_signal", start_ps, self.now_ps,
                    {"signal": signal.name, "events": executed},
                )
            counters = trace.counters
            counters["kernel.signal_waits"].count += 1
            counters["kernel.events"].count += executed
        return signal.value

    def _dispatch(self, until_ps: Optional[int], max_events: int, stop: Signal) -> int:
        """The one drain behind :meth:`run` and :meth:`run_until_signal`.

        Executes live events in ``(time_ps, seq)`` order until ``stop`` has
        fired, the queue is empty, or the next live event lies past
        ``until_ps``; returns how many ran.  Raises when event
        ``max_events + 1`` is due, or when called from inside a callback.
        """
        if self._running:
            raise SimulationError(
                "simulator is already running (re-entrant run()/run_until_signal())"
            )
        self._running = True
        # Instrumentation is looked up once per call, never per event: with
        # it off, the untimed body below pays nothing for its existence.
        trace = probe.session
        trace_events = trace is not None and trace.kernel_events and trace.records_spans
        prof = _profile.active
        queue = self._queue
        executed = 0
        try:
            if not trace_events and prof is None:
                while queue and not stop._triggered:
                    call = queue[0]
                    fn = call[FN]
                    if fn is None:
                        heappop(queue)
                        continue
                    time_ps = call[TIME]
                    if until_ps is not None and time_ps > until_ps:
                        break
                    if executed >= max_events:
                        raise SimulationError(
                            f"exceeded max_events={max_events}; likely a scheduling loop"
                        )
                    heappop(queue)
                    call[SIM] = None
                    self._live_events -= 1
                    self.now_ps = time_ps
                    fn(*call[ARGS])
                    executed += 1
                return executed
            if prof is not None:
                prof.runs += 1
            while queue and not stop._triggered:
                call = queue[0]
                fn = call[FN]
                if fn is None:
                    heappop(queue)
                    continue
                time_ps = call[TIME]
                if until_ps is not None and time_ps > until_ps:
                    break
                if executed >= max_events:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a scheduling loop"
                    )
                heappop(queue)
                call[SIM] = None
                self._live_events -= 1
                self.now_ps = time_ps
                if trace_events:
                    trace.instant("kernel", getattr(fn, "__qualname__", "event"), time_ps)
                if prof is None:
                    fn(*call[ARGS])
                else:
                    t0 = perf_counter()
                    fn(*call[ARGS])
                    prof.record(_profile.event_key(fn), perf_counter() - t0)
                executed += 1
            return executed
        finally:
            self._running = False

    @property
    def pending_events(self) -> int:
        """Number of not-yet-cancelled events in the queue (O(1))."""
        return self._live_events
