"""Event primitives for the discrete-event kernel.

Two things live here:

* :class:`ScheduledCall` — an entry in the simulator's event queue binding a
  callback to a simulated timestamp.  The kernel queues it in a
  ``(time_ps, seq, call)`` heap tuple, so simultaneous events run in
  scheduling order, which keeps runs deterministic; calls themselves are
  never compared.
* :class:`Signal` — a wake-up point processes can wait on.  A signal can be
  triggered at most once with an optional value; waiting on an already
  triggered signal resumes immediately.  This matches the "event" concept in
  simpy but with a deliberately smaller surface.
"""

from __future__ import annotations

from typing import Any, Callable, List


class ScheduledCall:
    """A callback scheduled at an absolute simulated time.

    Instances are created by :meth:`repro.sim.kernel.Simulator.call_at` and
    friends; user code normally only keeps them to :meth:`cancel`.
    """

    __slots__ = ("time_ps", "fn", "args", "cancelled", "_sim")

    def __init__(self, time_ps: int, fn: Callable[..., Any], args: tuple, sim=None):
        self.time_ps = time_ps
        self.fn = fn
        self.args = args
        self.cancelled = False
        # Back-reference to the owning kernel while the entry is still
        # queued; the kernel clears it at dispatch so its O(1) live-event
        # counter only moves for calls actually sitting in the queue.
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives."""
        if not self.cancelled:
            self.cancelled = True
            sim = self._sim
            if sim is not None:
                self._sim = None
                sim._live_events -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledCall t={self.time_ps}ps {self.fn!r} {state}>"


class Signal:
    """A one-shot wake-up point carrying an optional value.

    Processes wait on a signal by yielding it; :meth:`trigger` resumes all
    waiters at the current simulated time.  Triggering twice raises, because
    a silently re-armed signal is a classic source of lost wake-ups.
    """

    __slots__ = ("name", "_triggered", "_value", "_waiters")

    def __init__(self, name: str = ""):
        self.name = name
        self._triggered = False
        self._value: Any = None
        self._waiters: List[Callable[[Any], None]] = []

    @property
    def triggered(self) -> bool:
        """Whether :meth:`trigger` has been called."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value passed to :meth:`trigger` (``None`` before triggering)."""
        return self._value

    def trigger(self, value: Any = None) -> None:
        """Fire the signal, waking every waiter with ``value``."""
        if self._triggered:
            raise RuntimeError(f"signal {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for waiter in waiters:
            waiter(value)

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)``; called immediately if already fired."""
        if self._triggered:
            callback(self._value)
        else:
            self._waiters.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"triggered={self._value!r}" if self._triggered else "pending"
        return f"<Signal {self.name!r} {state}>"
