"""Tests for link training, FRTL measurement, and the serial link model."""

import pytest

from repro.dmi import (
    EndpointConfig,
    LinkErrorModel,
    LinkTrainer,
    SerialLink,
    TrainingConfig,
)
from repro.errors import ConfigurationError, FrtlBudgetError, LinkTrainingError
from repro.sim import Rng, Simulator, dmi_link_clock
from repro.units import ns_to_ps

from .test_channel import make_channel


class TestSerialLink:
    def test_frame_wire_time_at_8ghz(self):
        sim = Simulator()
        link = SerialLink(sim, "l", 14, dmi_link_clock(8.0))
        # 16 UI at 125 ps = 2 ns per frame
        assert link.frame_wire_ps == 2_000

    def test_delivery_latency(self):
        sim = Simulator()
        link = SerialLink(sim, "l", 14, dmi_link_clock(8.0))
        seen = []
        link.connect(lambda raw: seen.append((sim.now_ps, raw)))
        link.send(b"\x01" * 28)
        sim.run()
        assert len(seen) == 1
        t, raw = seen[0]
        assert t == link.frame_wire_ps + link.latency_ps
        assert raw == b"\x01" * 28  # scrambled then descrambled

    def test_cdr_capture_adds_latency(self):
        sim = Simulator()
        fwd = SerialLink(sim, "fwd", 14, dmi_link_clock(8.0), cdr_capture=False)
        cdr = SerialLink(sim, "cdr", 14, dmi_link_clock(8.0), cdr_capture=True)
        assert cdr.latency_ps - fwd.latency_ps == SerialLink.CDR_EXTRA_PS

    def test_back_to_back_frames_serialize(self):
        sim = Simulator()
        link = SerialLink(sim, "l", 14, dmi_link_clock(8.0))
        seen = []
        link.connect(lambda raw: seen.append(sim.now_ps))
        link.send(b"a" * 28)
        link.send(b"b" * 28)
        sim.run()
        assert seen[1] - seen[0] == link.frame_wire_ps

    def test_error_model_flips_bits(self):
        sim = Simulator()
        link = SerialLink(
            sim, "l", 14, dmi_link_clock(8.0),
            error_model=LinkErrorModel(frame_error_rate=1.0),
            rng=Rng(3, "l"),
        )
        seen = []
        link.connect(seen.append)
        link.send(bytes(28))
        sim.run()
        assert seen[0] != bytes(28)
        assert link.frames_corrupted == 1

    def test_unconnected_send_raises(self):
        sim = Simulator()
        link = SerialLink(sim, "l", 14, dmi_link_clock(8.0))
        with pytest.raises(ConfigurationError):
            link.send(b"x")

    def test_double_connect_raises(self):
        sim = Simulator()
        link = SerialLink(sim, "l", 14, dmi_link_clock(8.0))
        link.connect(lambda raw: None)
        with pytest.raises(ConfigurationError):
            link.connect(lambda raw: None)

    def test_zero_lanes_rejected(self):
        with pytest.raises(ConfigurationError):
            SerialLink(Simulator(), "l", 0, dmi_link_clock(8.0))


class TestKeystreamCarry:
    """The link generates no keystream while its ends are in lockstep;
    these pin the behaviours that must survive that."""

    def test_forced_corruption_detected(self):
        # the corrupted wire frame must arrive as original-plus-bit-flip
        sim = Simulator()
        link = SerialLink(
            sim, "l", 14, dmi_link_clock(8.0),
            error_model=LinkErrorModel(force_drops=1),
        )
        seen = []
        link.connect(seen.append)
        link.send(bytes(28))
        link.send(b"\x07" * 28)
        sim.run()
        assert seen[0] == b"\x01" + bytes(27)  # the injected single-bit flip
        assert seen[1] == b"\x07" * 28         # next frame is clean again
        assert link.frames_corrupted == 1

    def test_resync_with_frames_in_flight_desyncs_receiver(self):
        sim = Simulator()
        link = SerialLink(sim, "l", 14, dmi_link_clock(8.0))
        seen = []
        link.connect(seen.append)
        link.send(b"\x55" * 28)
        link.resync()  # before the frame arrives: receiver loses lockstep
        link.send(b"\xaa" * 28)  # post-resync traffic stays garbled too
        sim.run()
        assert seen[0] != b"\x55" * 28
        assert seen[1] != b"\xaa" * 28
        assert link.frames_corrupted == 2

    def test_clean_resync_restores_lockstep(self):
        sim = Simulator()
        link = SerialLink(sim, "l", 14, dmi_link_clock(8.0))
        seen = []
        link.connect(seen.append)
        link.send(b"\x55" * 28)
        link.resync()  # mid-flight: desync
        sim.run()      # drain the garbled frame
        link.resync()  # nothing in flight: both sides restart together
        link.send(b"\x33" * 28)
        sim.run()
        assert seen[-1] == b"\x33" * 28
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
