"""A list-based reference scheduler for the kernel differential tests.

The textbook definition of :class:`repro.sim.Simulator` dispatch: every
scheduled call sits in a plain list, and the scheduler repeatedly runs the
live call with the smallest ``(time_ps, seq)``.  There is no heap and no
live-event counter, and one loop serves both ``run`` and
``run_until_signal``; ``step`` runs one call outside that loop.  Cancelling
a call that already ran, or cancelling twice, changes nothing.
"""

from repro.errors import SimulationError
from repro.sim.kernel import DEFAULT_MAX_EVENTS


class ReferenceCall:
    def __init__(self, key, fn, args):
        self.key, self.fn, self.args, self.cancelled = key, fn, args, False

    def cancel(self):
        self.cancelled = True


class ReferenceScheduler:
    def __init__(self):
        self.now_ps, self._seq, self._calls, self._running = 0, 0, [], False

    @property
    def pending_events(self):
        return sum(not call.cancelled for call in self._calls)

    def call_at(self, time_ps, fn, *args):
        if time_ps < self.now_ps:
            raise SimulationError("cannot schedule in the past")
        self._seq += 1
        self._calls.append(ReferenceCall((time_ps, self._seq), fn, args))
        return self._calls[-1]

    def _next_live(self):
        live = [call for call in self._calls if not call.cancelled]
        return min(live, key=lambda c: c.key) if live else None

    def _execute(self, call):
        self._calls.remove(call)
        self.now_ps = call.key[0]
        call.fn(*call.args)

    def _drain(self, until_ps, max_events, stopped):
        if self._running:
            raise SimulationError("re-entrant dispatch")
        self._running, executed = True, 0
        try:
            while not stopped():
                call = self._next_live()
                if call is None:
                    break
                if until_ps is not None and call.key[0] > until_ps:
                    break
                if executed == max_events:
                    raise SimulationError(f"exceeded max_events={max_events}")
                self._execute(call)
                executed += 1
            return executed
        finally:
            self._running = False

    def step(self):
        """Run the single next live call, outside any drain's guards."""
        call = self._next_live()
        if call is None:
            return False
        self._execute(call)
        return True

    def run(self, until_ps=None, max_events=DEFAULT_MAX_EVENTS):
        executed = self._drain(until_ps, max_events, lambda: False)
        if until_ps is not None:
            self.now_ps = max(self.now_ps, until_ps)
        return executed

    def run_until_signal(self, signal, timeout_ps=None, max_events=DEFAULT_MAX_EVENTS):
        deadline = None if timeout_ps is None else self.now_ps + timeout_ps
        self._drain(deadline, max_events, lambda: signal.triggered)
        if not signal.triggered:
            raise SimulationError("timeout" if self.pending_events else "deadlock")
        return signal.value
