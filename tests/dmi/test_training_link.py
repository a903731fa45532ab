"""Tests for link training, FRTL measurement, and the serial link model."""

import pytest

from repro.dmi import (
    DataChunk,
    DownstreamFrame,
    EndpointConfig,
    LinkErrorModel,
    LinkTrainer,
    SerialLink,
    TrainingConfig,
)
from repro.dmi.channel import CrcDrop
from repro.errors import ConfigurationError, FrtlBudgetError, LinkTrainingError
from repro.sim import Rng, Simulator, dmi_link_clock
from repro.units import ns_to_ps

from .test_channel import endpoint_decoder, make_channel


def frame_of(value, seq=0):
    """A downstream frame whose write-data chunk is ``value`` repeated."""
    return DownstreamFrame(seq, chunk=DataChunk(0, 0, bytes([value]) * 16))


def is_payload_drop(got):
    return isinstance(got, CrcDrop) and not got.training


def bare_link(**kwargs):
    """A downstream link whose receiver records ``(time, delivery)`` pairs."""
    sim = Simulator()
    link = SerialLink(sim, "l", 14, dmi_link_clock(8.0), **kwargs)
    seen = []
    link.connect(
        lambda got: seen.append((sim.now_ps, got)),
        endpoint_decoder(sim, DownstreamFrame),
    )
    return sim, link, seen


class TestSerialLink:
    def test_frame_wire_time_at_8ghz(self):
        sim = Simulator()
        link = SerialLink(sim, "l", 14, dmi_link_clock(8.0))
        # 16 UI at 125 ps = 2 ns per frame
        assert link.frame_wire_ps == 2_000

    def test_delivery_latency(self):
        sim, link, seen = bare_link()
        frame = frame_of(0x01)
        link.send(frame)
        sim.run()
        assert len(seen) == 1
        t, got = seen[0]
        assert t == link.frame_wire_ps + link.latency_ps
        assert got is frame  # a clean lockstep link delivers the frame sent

    def test_cdr_capture_adds_latency(self):
        sim = Simulator()
        fwd = SerialLink(sim, "fwd", 14, dmi_link_clock(8.0), cdr_capture=False)
        cdr = SerialLink(sim, "cdr", 14, dmi_link_clock(8.0), cdr_capture=True)
        assert cdr.latency_ps - fwd.latency_ps == SerialLink.CDR_EXTRA_PS

    def test_back_to_back_frames_serialize(self):
        sim, link, seen = bare_link()
        link.send(frame_of(ord("a")))
        link.send(frame_of(ord("b"), seq=1))
        sim.run()
        assert seen[1][0] - seen[0][0] == link.frame_wire_ps

    def test_error_model_flips_bits(self):
        sim, link, seen = bare_link(
            error_model=LinkErrorModel(frame_error_rate=1.0), rng=Rng(3, "l"),
        )
        frame = frame_of(0)
        link.send(frame)
        sim.run()
        got = seen[0][1]
        assert got is not frame
        assert isinstance(got, CrcDrop) or got.pack() != frame.pack()
        assert link.frames_corrupted == 1

    def test_unconnected_send_raises(self):
        sim = Simulator()
        link = SerialLink(sim, "l", 14, dmi_link_clock(8.0))
        with pytest.raises(ConfigurationError):
            link.send(frame_of(ord("x")))

    def test_double_connect_raises(self):
        sim = Simulator()
        link = SerialLink(sim, "l", 14, dmi_link_clock(8.0))
        decode = endpoint_decoder(sim, DownstreamFrame)
        link.connect(lambda got: None, decode)
        with pytest.raises(ConfigurationError):
            link.connect(lambda got: None, decode)

    def test_zero_lanes_rejected(self):
        with pytest.raises(ConfigurationError):
            SerialLink(Simulator(), "l", 0, dmi_link_clock(8.0))


class TestKeystreamCarry:
    """The link generates no keystream while its ends are in lockstep;
    these pin the behaviours that must survive that."""

    def test_forced_corruption_detected(self):
        # a forced drop fails CRC and is counted; the next frame is intact
        sim, link, seen = bare_link(error_model=LinkErrorModel(force_drops=1))
        first, second = frame_of(0x00), frame_of(0x07, seq=1)
        link.send(first)
        link.send(second)
        sim.run()
        assert is_payload_drop(seen[0][1])
        assert seen[1][1] is second
        assert link.frames_corrupted == 1

    def test_forced_drop_flips_bit_zero(self):
        # the exact injected flip, on a byte image and on a frame's image
        rng = Rng(0, "l")
        model = LinkErrorModel(force_drops=2)
        assert model.corrupt(bytes(28), rng) == b"\x01" + bytes(28 - 1)
        frame = frame_of(0x07)
        image = frame.pack()
        assert model.corrupt(frame, rng) == bytes([image[0] ^ 1]) + image[1:]
        assert model.force_drops == 0
        assert model.corrupt(frame, rng) is frame

    def test_resync_with_frames_in_flight_desyncs_receiver(self):
        sim, link, seen = bare_link()
        link.send(frame_of(0x55))
        link.resync()  # before the frame arrives: receiver loses lockstep
        link.send(frame_of(0xAA, seq=1))  # post-resync traffic stays garbled too
        sim.run()
        assert is_payload_drop(seen[0][1])
        assert is_payload_drop(seen[1][1])
        assert link.frames_corrupted == 2

    def test_clean_resync_restores_lockstep(self):
        sim, link, seen = bare_link()
        link.send(frame_of(0x55))
        link.resync()  # mid-flight: desync
        sim.run()      # drain the garbled frame
        link.resync()  # nothing in flight: both sides restart together
        frame = frame_of(0x33, seq=1)
        link.send(frame)
        sim.run()
        assert seen[-1][1] is frame
        assert link.frames_corrupted == 1


class TestTraining:
    def test_training_measures_positive_frtl(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        trainer = LinkTrainer(sim, TrainingConfig(), Rng(7, "t"))
        proc = trainer.train(channel)
        sim.run_until_signal(proc.done, timeout_ps=10**10)
        result = proc.result
        assert result.frtl_ps > 0
        assert channel.host_endpoint.frtl_ps == result.frtl_ps
        assert channel.buffer_endpoint.frtl_ps == result.frtl_ps

    def test_frtl_reflects_buffer_pipeline_depth(self):
        def measure(overhead_ps):
            sim = Simulator()
            config = EndpointConfig(
                tx_overhead_ps=overhead_ps, rx_overhead_ps=overhead_ps,
                replay_prep_ps=0, freeze_workaround=False,
            )
            channel, _ = make_channel(sim, buffer_config=config)
            trainer = LinkTrainer(sim, TrainingConfig(), Rng(7, "t"))
            proc = trainer.train(channel)
            sim.run_until_signal(proc.done, timeout_ps=10**10)
            return proc.result.frtl_ps

        slow, fast = measure(8_000), measure(1_000)
        # two pipeline crossings deeper -> 2 x 7 ns more FRTL
        assert slow - fast == 14_000

    def test_frtl_budget_violation_fails_training(self):
        sim = Simulator()
        config = EndpointConfig(tx_overhead_ps=500_000, rx_overhead_ps=500_000)
        channel, _ = make_channel(sim, buffer_config=config)
        trainer = LinkTrainer(sim, TrainingConfig(), Rng(7, "t"))
        trainer.train(channel)
        with pytest.raises(FrtlBudgetError):
            sim.run()

    def test_alignment_retries_recorded(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        config = TrainingConfig(phase_lock_probability=0.3)
        trainer = LinkTrainer(sim, config, Rng(21, "t"))
        proc = trainer.train(channel)
        sim.run_until_signal(proc.done, timeout_ps=10**12)
        result = proc.result
        assert len(result.phase_attempts) == 3
        assert result.total_attempts >= 3

    def test_hopeless_alignment_raises(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        config = TrainingConfig(phase_lock_probability=0.0, max_phase_attempts=3)
        trainer = LinkTrainer(sim, config, Rng(2, "t"))
        trainer.train(channel)
        with pytest.raises(LinkTrainingError):
            sim.run()

    def test_training_survives_bit_errors(self):
        sim = Simulator()
        channel, _ = make_channel(sim, error_rate=0.10, seed=17)
        trainer = LinkTrainer(sim, TrainingConfig(), Rng(7, "t"))
        proc = trainer.train(channel)
        sim.run_until_signal(proc.done, timeout_ps=10**12)
        assert proc.result.frtl_ps > 0

    def test_training_duration_positive(self):
        sim = Simulator()
        channel, _ = make_channel(sim)
        trainer = LinkTrainer(sim, TrainingConfig(), Rng(7, "t"))
        proc = trainer.train(channel)
        sim.run_until_signal(proc.done, timeout_ps=10**12)
        assert proc.result.duration_ps >= ns_to_ps(6_000)  # 3 phases x 2 us min
