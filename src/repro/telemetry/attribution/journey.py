"""Request journeys: per-transaction latency attribution.

A *journey* follows one memory transaction from the moment the host
memory controller decides to issue it until the DMI *done* retires its
tag, stamping every stage boundary on the way:

    host.tag_wait -> dmi.down -> buffer -> dmi.up
                                   |
                                   +-- memory.queue / memory.service
                                       (nested controller visits)

Top-level stages partition the journey exactly — each one runs from the
journey's *cursor* (the end of the previous stage) to the timestamp the
recording site supplies — so their durations always sum to the end-to-end
latency.  Memory-controller visits are recorded as *nested* spans inside
the buffer window with explicit start/end stamps; the breakdown layer
subtracts them from the buffer stage to get the buffer's exclusive time.

Every visit is classified **queueing** (time spent waiting for a resource:
a free command tag, a controller queue slot) or **service** (time the
transaction is actually being worked on).  The classification is fixed at
the recording site, not inferred afterwards.

Journey ids cannot ride the DMI wire — frames pack to raw bytes — so the
host side *binds* ``(channel name, tag)`` to the journey id at issue and
the buffer side looks the binding up when it reassembles the command.

Storage IOs are journeys too.  A block-layer transfer (FIO IO, GPFS
write, write-cache destage) opens its own journey and the layers below
stage into it through the tracker's *context stack*: the issuing layer
``push()``-es its journey id around the downstream call, the lower layer
stages into ``current()``.  The 128-byte line commands a pmem transfer
fans out into still get their own DMI journeys — orders of magnitude
shorter than the 4K transfer that spawned them — so they are *linked*
(``parent``) rather than merged, and land in a ``:lines``-suffixed
scenario lane to keep the two latency populations separate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

#: visit classification: waiting for a resource vs being serviced
QUEUE = "queue"
SERVICE = "service"

#: default cap on completed journeys held in memory; beyond it new
#: journeys are counted but not recorded (a campaign job holds the full
#: set of a Table-3 run comfortably; this bounds pathological loops)
DEFAULT_MAX_JOURNEYS = 250_000

#: canonical top-level stage order (nested memory stages indented under
#: the buffer window in reports)
STAGE_ORDER = (
    "host.tag_wait",
    "dmi.down",
    "buffer",
    "memory.queue",
    "memory.service",
    # tiered-memory visits, nested inside the memory.service window:
    # migration traffic first (it runs before the demand access it was
    # triggered by), then the demand access on the tier that served it
    "tier.migrate",
    "tier.fast",
    "tier.slow",
    "dmi.up",
    # storage-stack stages, in the order a GPFS/FIO transfer visits them
    "gpfs.software",
    "wcache.admit",
    "storage.driver",
    "storage.lines",
    "storage.persist",
    "storage.queue",
    "storage.service",
    # write-cache read path: hits replay from the NVM log, misses pass
    # through to the backing store
    "wcache.read_hit",
    "wcache.read_miss",
    "storage.io",
    # accelerator DMA stages: pacing waits for a DIMM port's next burst
    # slot, then the streamed transfer itself
    "accel.pace",
    "accel.dma",
)

#: which canonical stages are queueing time
QUEUE_STAGES = frozenset({"host.tag_wait", "memory.queue",
                          "wcache.admit", "storage.queue", "accel.pace"})

#: which parent stage a *nested* span overlaps.  The breakdown layer
#: subtracts each nested stage's time from its parent so the report's
#: parent rows are exclusive and the stages still tile the journey.
#: Stages absent from the map nest under the default "buffer" window.
NESTED_UNDER = {
    "tier.fast": "memory.service",
    "tier.slow": "memory.service",
    "tier.migrate": "memory.service",
}


@dataclass(init=False)
class Journey:
    """One transaction's life: identity, scenario, and its stage visits."""

    jid: int
    op: str
    addr: int
    channel: str
    scenario: str
    start_ps: int
    end_ps: Optional[int] = None
    #: stage visits in recording order, each stored as the dict its
    #: record holds — ``{"stage", "kind", "nested", "start_ps",
    #: "end_ps"}``, in that key order — so writing a journey record copies
    #: no visit.  ``kind`` is :data:`QUEUE` or :data:`SERVICE`; ``nested``
    #: visits (memory controller, tier) overlap a parent stage instead of
    #: advancing the cursor
    stages: List[dict] = field(default_factory=list)
    #: where the next top-level stage starts (the end of the last one)
    cursor_ps: int = 0
    #: labels of fault windows this journey overlapped (empty = clean run)
    faults: Tuple[str, ...] = ()
    #: journey id of the enclosing journey (a pmem 4K transfer spawns DMI
    #: line journeys); None for top-level journeys
    parent: Optional[int] = None
    #: queue depth observed at issue (commands already in flight on the
    #: channel, this one excluded); None where the issuing layer has no
    #: depth notion — the raw material of depth-vs-latency correlation
    depth: Optional[int] = None

    # Written out rather than generated: one journey is opened per line
    # read, and a generated __init__ would call a __post_init__ hook too.
    def __init__(
        self,
        jid: int,
        op: str,
        addr: int,
        channel: str,
        scenario: str,
        start_ps: int,
        end_ps: Optional[int] = None,
        stages: Optional[List[dict]] = None,
        cursor_ps: int = 0,
        faults: Tuple[str, ...] = (),
        parent: Optional[int] = None,
        depth: Optional[int] = None,
    ):
        self.jid = jid
        self.op = op
        self.addr = addr
        self.channel = channel
        self.scenario = scenario
        self.start_ps = start_ps
        self.end_ps = end_ps
        self.stages = [] if stages is None else stages
        self.cursor_ps = cursor_ps or start_ps
        self.faults = faults
        self.parent = parent
        self.depth = depth

    @property
    def complete(self) -> bool:
        return self.end_ps is not None

    @property
    def total_ps(self) -> int:
        return (self.end_ps or self.cursor_ps) - self.start_ps

    def attributed_ps(self) -> int:
        """Sum of top-level stage durations (nested visits excluded)."""
        return sum(v["end_ps"] - v["start_ps"] for v in self.stages if not v["nested"])

    def unattributed_ps(self) -> int:
        """End-to-end time not covered by any top-level stage."""
        return self.total_ps - self.attributed_ps()


class JourneyTracker:
    """Creates, stamps, and completes journeys for one trace session."""

    def __init__(self, max_journeys: int = DEFAULT_MAX_JOURNEYS):
        self.max_journeys = max_journeys
        self.scenario = ""
        self.completed: List[Journey] = []
        #: journeys refused because the completed store hit ``max_journeys``
        self.dropped = 0
        self._active: Dict[int, Journey] = {}
        self._bindings: Dict[Tuple[str, int], int] = {}
        #: ambient journey-context stack: the storage layers push their
        #: journey id around downstream calls so lower layers can stage
        #: into (or parent under) the enclosing journey
        self._context: List[Optional[int]] = []
        self._next_jid = 1
        #: when a FaultController is active it installs a callable
        #: ``(start_ps, end_ps) -> tuple[str, ...]`` here; journeys that
        #: overlap an active fault window get tagged at finish time.
        #: Nil-checked like the ambient probe: zero cost with no plan.
        self.fault_probe: Optional[Callable[[int, int], Tuple[str, ...]]] = None

    # -- scenario labelling -------------------------------------------------

    def set_scenario(self, label: str) -> None:
        """Stamp journeys begun from now on with ``label`` (e.g. a Table 3
        configuration name); grouping key for the breakdown reports."""
        self.scenario = label

    # -- lifecycle ----------------------------------------------------------

    def begin(
        self,
        op: str,
        addr: int,
        channel: str,
        now_ps: int,
        parent: Optional[int] = None,
        lane: Optional[str] = None,
        depth: Optional[int] = None,
    ) -> Optional[int]:
        """Open a journey; returns its id, or None when over the cap.

        ``parent`` links a spawned journey (a DMI line command inside a
        pmem transfer) to its enclosing one.  ``lane`` suffixes the
        scenario label so journeys of very different magnitudes aggregate
        separately; parented journeys default to the ``lines`` lane.
        ``depth`` stamps the issuing queue's in-flight count at begin
        time (this journey excluded).
        """
        if len(self.completed) >= self.max_journeys:
            self.dropped += 1
            return None
        if lane is None and parent is not None:
            lane = "lines"
        scenario = self.scenario
        if lane:
            scenario = f"{scenario}:{lane}" if scenario else lane
        jid = self._next_jid
        self._next_jid += 1
        self._active[jid] = Journey(
            jid, op, addr, channel, scenario, now_ps, parent=parent,
            depth=depth,
        )
        return jid

    def finish(self, jid: int, now_ps: int) -> Optional[Journey]:
        """Close a journey; implicitly closes the trailing stage gap."""
        journey = self._active.pop(jid, None)
        if journey is None:
            return None
        journey.end_ps = now_ps
        if self.fault_probe is not None:
            tags = self.fault_probe(journey.start_ps, now_ps)
            if tags:
                journey.faults = tuple(tags)
        self.completed.append(journey)
        return journey

    # -- stage recording ----------------------------------------------------

    def stage_to(self, jid: int, stage: str, end_ps: int, kind: str = SERVICE) -> None:
        """Record the top-level stage from the journey cursor to ``end_ps``.

        Zero-length stages (the transaction did not wait / the boundary
        coincides) are skipped rather than recorded, but the cursor always
        advances, so the partition property holds regardless.
        """
        journey = self._active.get(jid)
        if journey is None:
            return
        if end_ps > journey.cursor_ps:
            journey.stages.append({
                "stage": stage, "kind": kind, "nested": False,
                "start_ps": journey.cursor_ps, "end_ps": end_ps,
            })
            journey.cursor_ps = end_ps

    def stage_span(
        self, jid: int, stage: str, start_ps: int, end_ps: int, kind: str = SERVICE
    ) -> None:
        """Record a nested visit with explicit bounds (cursor untouched)."""
        journey = self._active.get(jid)
        if journey is None or end_ps <= start_ps:
            return
        journey.stages.append({
            "stage": stage, "kind": kind, "nested": True,
            "start_ps": start_ps, "end_ps": end_ps,
        })

    # -- journey context (storage-stack nesting) ----------------------------

    def push(self, jid: Optional[int]) -> None:
        """Enter a journey context: downstream layers stage into — and
        parent new journeys under — ``current()`` until the matching
        :meth:`pop`.  Pushing ``None`` (journey refused over the cap) is
        legal and keeps push/pop strictly paired."""
        self._context.append(jid)

    def pop(self) -> Optional[int]:
        """Leave the innermost journey context."""
        return self._context.pop() if self._context else None

    def current(self) -> Optional[int]:
        """The enclosing journey id, or None outside any context."""
        return self._context[-1] if self._context else None

    # -- wire-boundary correlation ------------------------------------------

    def bind(self, channel: str, tag: int, jid: int) -> None:
        """Associate a (channel, tag) pair with a journey for the buffer
        side to look up — journey ids never cross the serialized wire."""
        self._bindings[(channel, tag)] = jid

    def bound(self, channel: str, tag: int) -> Optional[int]:
        return self._bindings.get((channel, tag))

    def unbind(self, channel: str, tag: int) -> None:
        self._bindings.pop((channel, tag), None)

    # -- accounting ---------------------------------------------------------

    @property
    def active_count(self) -> int:
        """Journeys begun but not finished (abandoned ones linger here —
        e.g. commands lost to a channel reset)."""
        return len(self._active)

    def scenarios(self) -> List[str]:
        return sorted({j.scenario for j in self.completed})


def journey_chrome_extras(journeys: List[Journey]) -> List[dict]:
    """Chrome trace extras for journeys: stage spans linked by flow events.

    Every stage visit becomes a complete span on the ``journey`` track; a
    flow chain (``ph`` s/t/f with ``id`` = journey id) threads the visits
    so the viewer draws arrows from stage to stage of one transaction.
    """
    out: List[dict] = []
    for journey in journeys:
        if not journey.stages:
            continue
        flow_name = f"journey:{journey.op}"
        ordered = sorted(journey.stages, key=lambda v: (v["start_ps"], v["end_ps"]))
        last = len(ordered) - 1
        for i, visit in enumerate(ordered):
            args = {
                "jid": journey.jid,
                "kind": visit["kind"],
                "op": journey.op,
            }
            if journey.scenario:
                args["scenario"] = journey.scenario
            out.append({
                "name": visit["stage"],
                "cat": "journey",
                "ph": "X",
                "ts_ps": visit["start_ps"],
                "dur_ps": visit["end_ps"] - visit["start_ps"],
                "args": args,
            })
            flow_ph = "s" if i == 0 else ("f" if i == last else "t")
            flow = {
                "name": flow_name,
                "cat": "journey",
                "ph": flow_ph,
                "ts_ps": visit["start_ps"],
                "id": journey.jid,
            }
            if flow_ph == "f":
                flow["bp"] = "e"  # bind the flow end to the enclosing slice
            out.append(flow)
    return out
