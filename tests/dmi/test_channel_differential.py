"""The DMI channel on its object-passing links against always-packing links.

:class:`~tests.dmi.reference.PackingLink` packs, CRCs, scrambles (while
desynced) and decodes every frame.  Hypothesis runs random programs of
read, write and partial-write batches through a :class:`DmiChannel` twice —
once on :class:`SerialLink` and once on the reference — with error models
armed (forced drops, rates 0.3 and 1.0) and links resynced while frames are
in flight, recovering the channel like firmware when it fails.  Both runs
must see the same responses and errors, the same telemetry (every counter,
including all ``dmi.*`` and ``kernel.events``, and every trace record), the
same per-link and per-endpoint statistics and the same scheduled-event
count.  The object-passing run must pack exactly the byte images the
reference says were observable.
"""

from dataclasses import dataclass

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.dmi import Command, Opcode, SerialLink
from repro.errors import ReproError
from repro.sim import Simulator
from repro.telemetry import TraceSession
from repro.units import CACHE_LINE_BYTES

from .reference import PackingLink
from .test_channel import make_channel, train
from .test_pack_counts import count_packs

#: how long one command may take before the batch is declared stuck
WAIT_PS = 10**8

COMMANDS = st.tuples(
    st.sampled_from(["read", "write", "partial"]),
    st.integers(0, 15),
    st.integers(0, 255),
)
LINKS = st.sampled_from(["down", "up", "both"])
BATCH = st.tuples(
    st.just("batch"),
    st.lists(COMMANDS, min_size=1, max_size=4),
    # optionally resync links this long after issuing (0 = before any
    # frame leaves, later = with frames in flight)
    st.none() | st.tuples(LINKS, st.sampled_from([0, 3_000, 20_000, 60_000])),
)
ARM = st.tuples(
    st.just("arm"),
    LINKS,
    st.sampled_from([0.0, 0.3, 1.0]),
    st.integers(1, 3),
    st.integers(0, 2),
)
PROGRAM = st.lists(st.one_of(BATCH, ARM, st.just(("disarm",))), max_size=8)

LINK_STATS = ("frames_sent", "frames_corrupted", "busy_ps", "desynced")
ENDPOINT_STATS = (
    "frames_accepted", "crc_drops", "seq_drops", "duplicates_seen",
    "replays_triggered", "ack_timeouts", "freeze_frames_sent",
)


@dataclass
class Run:
    log: list
    counters: dict
    events: list
    stats: list
    store: dict
    scheduled: int
    now_ps: int
    #: byte images an object-passing link needs (PackingLink only)
    images: int


def command(kind, line, fill, tag):
    addr = line * CACHE_LINE_BYTES
    data = bytes((fill + i) & 0xFF for i in range(CACHE_LINE_BYTES))
    if kind == "read":
        return Command(Opcode.READ, addr, tag)
    if kind == "write":
        return Command(Opcode.WRITE, addr, tag, data)
    mask = bytes((fill >> (i % 8)) & 1 for i in range(CACHE_LINE_BYTES))
    return Command(Opcode.PARTIAL_WRITE, addr, tag, data, mask)


def failure(stage, exc):
    return (stage, type(exc).__name__, str(exc))


def recover(sim, channel):
    """Firmware-style recovery: fence, drain the wire, reset, retrain."""
    channel.host_endpoint.failed = True
    channel.buffer_endpoint.failed = True
    sim.run()
    channel.reset()
    try:
        return ("trained", train(sim, channel).frtl_ps)
    except ReproError as exc:
        return failure("train", exc)


def execute(program, link_cls, seed):
    sim = Simulator()
    with TraceSession("differential") as session:
        channel, store = make_channel(sim, seed=seed, link_cls=link_cls)
        links = {"down": channel.down_link, "up": channel.up_link}
        chosen = lambda which: links.values() if which == "both" else [links[which]]
        log = [recover(sim, channel)]
        next_tag = 0
        for op in program:
            if op[0] == "arm":
                _, which, rate, max_flips, drops = op
                for link in chosen(which):
                    link.error_model.frame_error_rate = rate
                    link.error_model.max_flips = max_flips
                    link.error_model.force_drops = drops
            elif op[0] == "disarm":
                for link in links.values():
                    link.error_model.frame_error_rate = 0.0
                    link.error_model.force_drops = 0
            else:
                _, commands, resync = op
                waits = []
                for kind, line, fill in commands:
                    tag, next_tag = next_tag % 32, next_tag + 1
                    try:
                        waits.append(channel.host.issue(command(kind, line, fill, tag)))
                    except ReproError as exc:
                        log.append(failure("issue", exc))
                if resync is not None:
                    which, delay_ps = resync
                    sim.run(until_ps=sim.now_ps + delay_ps)
                    for link in chosen(which):
                        link.resync()
                stuck = len(waits) < len(commands)
                for done in waits:
                    try:
                        response = sim.run_until_signal(done, timeout_ps=WAIT_PS)
                    except ReproError as exc:
                        log.append(failure("wait", exc))
                        stuck = True
                        break
                    log.append((response.tag, response.opcode.value, response.data))
                if stuck or not channel.operational or any(
                    link.desynced for link in links.values()
                ):
                    log.append(recover(sim, channel))
        sim.run()
    endpoints = (channel.host_endpoint, channel.buffer_endpoint)
    return Run(
        log=log,
        counters=session.registry.snapshot(),
        events=session.events,
        stats=[[getattr(link, k) for k in LINK_STATS] for link in links.values()]
        + [[getattr(ep, k) for k in ENDPOINT_STATS] for ep in endpoints],
        store=dict(store),
        scheduled=sim._seq,
        now_ps=sim.now_ps,
        images=sum(getattr(link, "images", 0) for link in links.values()),
    )


class TestObjectLinksMatchPackingLinks:
    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(program=PROGRAM, seed=st.integers(0, 2**16))
    @example(  # errors on both links with several commands in flight
        program=[("arm", "both", 0.3, 2, 1),
                 ("batch", [("write", 1, 7), ("read", 2, 0), ("partial", 3, 5)], None),
                 ("batch", [("read", 1, 0), ("write", 4, 9)], None)],
        seed=11,
    )
    @example(  # replays and freezes while earlier copies are still on the
        # wire: a retransmission must not change a frame already sent
        program=[("arm", "both", 0.3, 3, 1), ("batch", [("read", 12, 240)], None),
                 ("batch", [("partial", 0, 47), ("read", 10, 74),
                            ("partial", 10, 90), ("write", 1, 174)], None),
                 ("batch", [("read", 4, 117), ("write", 5, 36)], None)],
        seed=41116,
    )
    @example(  # a dirty resync, recovery, then clean traffic
        program=[("batch", [("write", 0, 1), ("read", 0, 0)], ("down", 3_000)),
                 ("batch", [("read", 0, 0)], None)],
        seed=0,
    )
    @example(  # every frame hit: the channel fails and cannot retrain
        program=[("arm", "up", 1.0, 1, 0), ("batch", [("read", 5, 0)], None),
                 ("disarm",), ("batch", [("write", 5, 3)], ("both", 20_000))],
        seed=2,
    )
    def test_same_behaviour_and_observable_packs_only(self, program, seed):
        with pytest.MonkeyPatch.context() as mp:
            packs = count_packs(mp)
            real = execute(program, SerialLink, seed)
        ref = execute(program, PackingLink, seed)
        assert real.log == ref.log
        assert real.counters == ref.counters
        assert real.events == ref.events
        assert real.stats == ref.stats
        assert real.store == ref.store
        assert (real.scheduled, real.now_ps) == (ref.scheduled, ref.now_ps)
        assert sum(packs.values()) == ref.images
