"""Arrival-driven occupancy sampling: queue depths without sim events.

The simulator's :meth:`run` drains its event queue, so a self-rescheduling
periodic sampler would either never let the run terminate or artificially
extend simulated time past the last real event — corrupting every
time-derived measurement.  Instead, sampling is *arrival driven*: the
host memory controller (the one point every transaction passes) calls
:meth:`OccupancySampler.maybe_sample` from inside its existing
ambient-probe nil-check, and the sampler takes at most one sample per
``period_ps`` of simulated time.  Idle systems take no samples (nothing
arrives), which is exactly right — there is no occupancy to observe.

Sources are plain callables returning the current depth of one queue:
DMI tag windows, replay buffers, the buffer write cache, memory
controller queues, DRAM banks, MBS command engines.  A source keyed by a
tuple of names returns one depth per name, so one read serves a whole
device (a DRAM rank reports its busy-bank count and every bank's flag
together).  They are registered per system build (:func:`occupancy_sources`)
and recorded as ``occupancy.<name>`` histograms, so snapshots report
p50/p95/max depth.  The histograms are bound on a session's first sample,
so a sample costs one read per source and one append per depth.
"""

from __future__ import annotations

from typing import Callable, Dict, Sequence, Tuple, Union

#: default sampling period: 100 ns of simulated time
DEFAULT_OCCUPANCY_PERIOD_PS = 100_000

#: one metric name, or a tuple of names read together
SourceKey = Union[str, Tuple[str, ...]]


class OccupancySampler:
    """Periodic (in simulated time) sampling of registered depth sources."""

    def __init__(self, period_ps: int = DEFAULT_OCCUPANCY_PERIOD_PS):
        if period_ps <= 0:
            raise ValueError("occupancy sampling period must be positive")
        self.period_ps = period_ps
        self.sources: Dict[SourceKey, Callable[[], Union[float, Sequence[float]]]] = {}
        #: (histogram appender, reader) for single sources and
        #: (appenders, reader) for grouped ones, bound to the registry
        #: ``_bound_to`` (not the session: a sampler pointing back at the
        #: session that owns it would keep a finished session, and every
        #: journey it holds, alive until the cyclic collector runs)
        self._singles: list = []
        self._groups: list = []
        self._bound_to = None
        self.samples_taken = 0
        self._next_due_ps = 0

    def set_sources(
        self, sources: Dict[SourceKey, Callable[[], Union[float, Sequence[float]]]]
    ) -> None:
        """Replace the source set (one system build owns the sampler at a
        time — experiments that build several systems re-register)."""
        self.sources = dict(sources)
        self._bound_to = None

    def _bind(self, trace) -> None:
        """Create (or look up) every source's histogram in ``trace``'s
        registry and keep its sample list's ``append``."""
        def appender(name: str):
            return trace.registry.histogram(f"occupancy.{name}").samples.append

        self._singles, self._groups = [], []
        for key, read in self.sources.items():
            if isinstance(key, tuple):
                self._groups.append((tuple(appender(name) for name in key), read))
            else:
                self._singles.append((appender(key), read))
        self._bound_to = trace.registry

    def maybe_sample(self, trace, now_ps: int) -> bool:
        """Sample every source if the period has elapsed; returns whether
        a sample was taken.  Call sites are already under the ambient
        probe nil-check, so the disabled cost stays one attribute load."""
        if now_ps < self._next_due_ps or not self.sources:
            return False
        self._next_due_ps = now_ps + self.period_ps
        self.samples_taken += 1
        trace.counters["occupancy.samples"].count += 1
        if self._bound_to is not trace.registry:
            self._bind(trace)
        for append, read in self._singles:
            append(read())
        for appends, read in self._groups:
            for append, depth in zip(appends, read()):
                append(depth)
        return True


def occupancy_sources(socket) -> Dict[SourceKey, Callable[[], object]]:
    """Depth sources for every queue behind a :class:`Power8Socket`.

    Covers, per populated channel: the host tag window, both replay
    buffers (unacknowledged frames in flight), the buffer cache line
    count, each memory controller's request queue, busy DRAM banks, and
    — on ConTutto — the MBS command-engine pool.
    """
    sources: Dict[SourceKey, Callable[[], object]] = {}
    sim = socket.sim
    for index in sorted(socket.slots):
        slot = socket.slots[index]
        ch = f"ch{index}"
        tags = slot.host_mc.tags
        sources[f"dmi.{ch}.tags_in_flight"] = lambda t=tags: t.in_flight_count
        host_ep = slot.channel.host_endpoint
        buf_ep = slot.channel.buffer_endpoint
        sources[f"dmi.{ch}.host_unacked"] = lambda e=host_ep: len(e._held)
        sources[f"dmi.{ch}.buffer_unacked"] = lambda e=buf_ep: len(e._held)

        buffer = slot.buffer
        cache = getattr(buffer, "cache", None)
        if cache is not None:
            sources[f"buffer.{buffer.name}.cache_lines"] = (
                lambda c=cache: c.lines_held
            )
        mbs = getattr(buffer, "mbs", None)
        if mbs is not None:
            sources[f"buffer.{buffer.name}.engines_busy"] = (
                lambda m=mbs: m.engines.busy_count
            )
        for mc in getattr(buffer, "ports", []):
            sources[f"memory.{mc.name}.in_flight"] = lambda m=mc: m._in_flight
            device = mc.device
            if hasattr(device, "hot_slow_pages"):
                # tiered hybrid memory: slow-tier pages currently over
                # the promotion threshold — the migration backlog
                sources[f"tier.{device.name}.hot_slow_pages"] = (
                    lambda d=device: float(d.hot_slow_pages)
                )
            if hasattr(device, "bank_occupancy"):
                # busy-bank count, then per-bank busy flags: the contention
                # histogram shows how evenly an address stream spreads
                # across the rank
                names = (f"memory.{device.name}.banks_busy",) + tuple(
                    f"memory.{device.name}.bank{bank}_busy"
                    for bank in range(device.NUM_BANKS)
                )
                sources[names] = lambda d=device, s=sim: d.bank_occupancy(s.now_ps)
    return sources
