"""Event primitives for the discrete-event kernel.

Two things live here:

* :class:`ScheduledCall` — an entry in the simulator's event queue binding a
  callback to a simulated timestamp.  The entry *is* the heap item: a list
  ``[time_ps, seq, fn, args, sim]`` that ``heapq`` orders by its first two
  slots, so simultaneous events run in scheduling order, which keeps runs
  deterministic; ``seq`` is unique, so the callback is never compared.
* :class:`Signal` — a wake-up point processes can wait on.  A signal can be
  triggered at most once with an optional value; waiting on an already
  triggered signal resumes immediately.  This matches the "event" concept in
  simpy but with a deliberately smaller surface.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

#: slot indices of a :class:`ScheduledCall`
TIME, SEQ, FN, ARGS, SIM = range(5)


class ScheduledCall(list):
    """A callback scheduled at an absolute simulated time.

    Instances are created by :meth:`repro.sim.kernel.Simulator.call_at` and
    friends; user code normally only keeps them to :meth:`cancel`.

    The kernel builds one per event straight from a tuple (no Python-level
    constructor runs) and pushes it onto its heap as is.  The slots are
    ``[time_ps, seq, fn, args, sim]``: ``fn`` is cleared to ``None`` by
    :meth:`cancel`, and ``sim`` — the owning kernel — is cleared when the
    entry leaves the queue (dispatch or cancel), so the kernel's O(1)
    live-event counter only moves for calls actually sitting in the queue.
    """

    __slots__ = ()

    @property
    def time_ps(self) -> int:
        return self[TIME]

    @property
    def fn(self) -> Callable[..., Any]:
        return self[FN]

    @property
    def args(self) -> tuple:
        return self[ARGS]

    @property
    def cancelled(self) -> bool:
        return self[FN] is None

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives.

        A no-op on an entry already cancelled; on one already dispatched it
        only marks the entry cancelled.
        """
        if self[FN] is not None:
            self[FN] = None
            sim = self[SIM]
            if sim is not None:
                self[SIM] = None
                sim._live_events -= 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledCall t={self[TIME]}ps {self[FN]!r} {state}>"


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
        # created by the first add_waiter: most signals get one waiter or none
        self._waiters: Optional[List[Callable[[Any], None]]] = None

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
        waiters = self._waiters
        if waiters is not None:
            self._waiters = None
            for waiter in waiters:
                waiter(value)

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)``; called immediately if already fired."""
        if self._triggered:
            callback(self._value)
        elif self._waiters is None:
            self._waiters = [callback]
        else:
            self._waiters.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"triggered={self._value!r}" if self._triggered else "pending"
        return f"<Signal {self.name!r} {state}>"
