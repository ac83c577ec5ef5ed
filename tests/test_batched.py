"""Differential harness for the batched campaign executor.

The concurrent-fault-simulation tentpole (batched lockstep transients,
``docs/batching.md``) is only safe because this suite pins it to the
serial reference:

* hypothesis-generated RC / inverter circuit families plus random LIFT
  fault lists, simulated by :class:`~repro.anafault.BatchedExecutor` and
  :class:`~repro.anafault.SerialExecutor`, must produce record-for-record
  identical results (verdict, detection time, counters) at batch widths
  1, 3, K and K+1 (ragged tail),
* the VCO family of the paper gets a deterministic spot check,
* early abort may never change a verdict or detection time — including
  never-detected faults, zero-sample traces and detections landing
  exactly on the persistence-window boundary,
* a variant diverging mid-batch (``SingularMatrixError``, the ``dt_min``
  floor) is evicted to the failure record serial execution produces
  without perturbing its batch siblings,
* batched runs share checkpoints with serial runs (fingerprint-pinned
  resume round-trip) and the resumed telemetry step totals no longer
  double-count checkpoint-skipped faults.
"""

from __future__ import annotations

import dataclasses
import gc
import io
import json
import pathlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from repro.anafault import (
    STATUS_DETECTED,
    STATUS_INJECTION_FAILED,
    STATUS_SIM_FAILED,
    BatchedExecutor,
    CampaignSettings,
    FaultSimulator,
    SerialExecutor,
    StreamingDetector,
    ToleranceSettings,
    WaveformComparator,
)
from repro.anafault import inject_fault
from repro.anafault.cli import main as cli_main
from repro.cat import CATFlow
from repro.circuits import OUTPUT_NODE, build_vco
from repro.circuits.library import build_cmos_inverter, build_rc_lowpass
from repro.errors import CampaignError, SingularMatrixError, TransientError
from repro.lift import (BridgingFault, FaultList, OpenFault, ParametricFault,
                        StuckOpenFault)
from repro.spice import Waveform
from repro.spice.analysis import (
    BatchedTransient,
    MNABuilder,
    TransientAnalysis,
    TransientOptions,
)
from repro.spice.devices.mosfet import Mosfet, MosfetBank
from repro.spice.writer import write_netlist_file

# ---------------------------------------------------------------------------
# Campaign helpers (mirrors tests/test_executors.py so the two suites pin
# the same reference campaign)
# ---------------------------------------------------------------------------

#: The pool random fault lists draw from: detected, undetected and
#: injection-failure statuses are all reachable.
FAULT_POOL = (
    lambda i: BridgingFault(i, probability=1e-7, net_a="out", net_b="0"),
    lambda i: OpenFault(i, probability=1e-8, device="R1", terminal="pos"),
    lambda i: ParametricFault(i, probability=1e-9, device="R1",
                              parameter="value", relative_change=0.01),
    lambda i: BridgingFault(i, probability=1e-9, net_a="out",
                            net_b="missing"),
    lambda i: BridgingFault(i, probability=1e-9, net_a="in", net_b="out"),
    lambda i: ParametricFault(i, probability=1e-9, device="C1",
                              parameter="value", relative_change=0.5),
    lambda i: ParametricFault(i, probability=1e-9, device="R1",
                              parameter="value", relative_change=3.0),
)


def _fault_list(choices=range(len(FAULT_POOL))) -> FaultList:
    faults = FaultList("batched differential faults")
    for fault_id, choice in enumerate(choices, start=1):
        faults.add(FAULT_POOL[choice](fault_id))
    return faults


def _settings(**overrides) -> CampaignSettings:
    base = dict(tstop=5e-3, tstep=5e-5, use_ic=True,
                observation_nodes=("out",),
                tolerances=ToleranceSettings(0.3, 2e-4))
    base.update(overrides)
    return CampaignSettings(**base)


def _semantic(record) -> tuple:
    """Everything two executors must agree on (no wall-clock telemetry)."""
    if record is None:
        return None
    return (record.fault.fault_id, record.status, record.detection_time,
            record.detected_on, record.max_deviation,
            record.persistent_deviation,
            record.newton_iterations, record.steps_accepted,
            record.steps_rejected, record.trace_bytes)


def _verdict(record) -> tuple:
    return (record.fault.fault_id, record.status, record.detection_time,
            record.detected_on)


def _run(circuit, faults, settings, executor):
    return FaultSimulator(circuit, faults, settings).run(executor=executor)


def _assert_identical(circuit, faults, settings, width, **kwargs):
    serial = _run(circuit, faults, settings, SerialExecutor())
    batched = _run(circuit, faults, settings,
                   BatchedExecutor(batch_width=width, **kwargs))
    assert ([_semantic(r) for r in batched.records]
            == [_semantic(r) for r in serial.records])
    return serial, batched


def _mosfet_variants() -> list:
    """MOSFET circuits whose banks differ in unknowns, parameters and
    device count: VCO variants with an open that adds an unknown, a W
    change and a stuck-open transistor, plus a two-transistor inverter."""
    vco = build_vco()
    faults = (OpenFault(1, device="M1", terminal="drain"),
              ParametricFault(2, device="M5", parameter="w",
                              relative_change=0.5),
              StuckOpenFault(3, device="M9", terminal="source"))
    return ([inject_fault(vco, fault) for fault in faults]
            + [build_cmos_inverter(input_voltage=2.5)])


# ---------------------------------------------------------------------------
# Differential suite: batched == serial, record for record
# ---------------------------------------------------------------------------

class TestDifferential:

    @pytest.mark.parametrize("width", [1, 3, 7, 8])
    def test_rc_campaign_identical_at_width(self, rc_circuit, width):
        """Widths 1, 3, K and K+1 (ragged tail) over the full 7-fault
        reference list, injection failure included mid-batch."""
        _assert_identical(rc_circuit, _fault_list(), _settings(), width)

    @hyp_settings(max_examples=8, deadline=None)
    @given(resistance=st.sampled_from([3e2, 1e3, 4.7e3]),
           capacitance=st.sampled_from([2.2e-7, 1e-6, 3.3e-6]),
           choices=st.lists(st.integers(0, len(FAULT_POOL) - 1),
                            min_size=1, max_size=6),
           width=st.integers(1, 7))
    def test_rc_family_differential(self, resistance, capacitance, choices,
                                    width):
        """Random RC circuits x random LIFT fault lists x random widths."""
        circuit = build_rc_lowpass(resistance=resistance,
                                   capacitance=capacitance)
        _assert_identical(circuit, _fault_list(choices), _settings(), width)

    @hyp_settings(max_examples=4, deadline=None)
    @given(input_voltage=st.sampled_from([0.0, 2.5, 5.0]),
           width=st.integers(2, 4))
    def test_inverter_family_differential(self, input_voltage, width):
        """The nonlinear (Newton-iterating) family: a CMOS inverter with
        opens and bridges on its transistors."""
        circuit = build_cmos_inverter(input_voltage=input_voltage)
        faults = FaultList("inverter faults")
        faults.add(OpenFault(1, probability=1e-7, device="MN",
                             terminal="drain"))
        faults.add(BridgingFault(2, probability=1e-8, net_a="out",
                                 net_b="vdd"))
        faults.add(BridgingFault(3, probability=1e-9, net_a="out",
                                 net_b="0"))
        settings = _settings(tstop=1e-4, tstep=1e-6,
                             tolerances=ToleranceSettings(1.0, 4e-6))
        _assert_identical(circuit, faults, settings, width)

    def test_vco_family_differential(self, vco_circuit, vco_fault_list,
                                     fast_campaign_settings):
        """Deterministic spot check on the paper's VCO: the three most
        probable GLRFM faults, batched vs serial."""
        faults = vco_fault_list.top(3)
        _assert_identical(vco_circuit, faults, fast_campaign_settings, 3)

    def test_batched_shares_nominal_stats_with_serial(self, rc_circuit):
        serial, batched = _assert_identical(rc_circuit, _fault_list(),
                                            _settings(), 4)
        assert batched.nominal_stats == serial.nominal_stats
        assert batched.executor == "batched"
        assert serial.executor == "serial"


# ---------------------------------------------------------------------------
# Early abort: verdicts and detection times never move
# ---------------------------------------------------------------------------

class TestEarlyAbort:

    def test_verdicts_identical_with_abort_on_and_off(self, rc_circuit):
        faults = _fault_list()
        plain = _run(rc_circuit, faults, _settings(),
                     BatchedExecutor(batch_width=4))
        aborting = _run(rc_circuit, faults, _settings(),
                        BatchedExecutor(batch_width=4, early_abort=True))
        assert ([_verdict(r) for r in aborting.records]
                == [_verdict(r) for r in plain.records])
        # Detected faults abort; only their post-decision telemetry shrinks.
        assert aborting.early_aborted > 0
        for full, cut in zip(plain.records, aborting.records):
            assert cut.steps_accepted <= full.steps_accepted
            assert cut.max_deviation <= full.max_deviation

    def test_never_detected_faults_run_the_full_grid(self, rc_circuit):
        """An undetected verdict is only certain at the last sample, so
        early abort must not fire and the records stay bit-identical."""
        faults = _fault_list(choices=[2])  # 1% parametric drift: undetected
        plain = _run(rc_circuit, faults, _settings(),
                     BatchedExecutor(batch_width=2))
        aborting = _run(rc_circuit, faults, _settings(),
                        BatchedExecutor(batch_width=2, early_abort=True))
        assert aborting.early_aborted == 0
        assert ([_semantic(r) for r in aborting.records]
                == [_semantic(r) for r in plain.records])

    def test_detection_on_window_boundary(self):
        """A violation run exactly as long as the persistence window must
        detect — streamed and batch-scanned alike, at the same sample."""
        comparator = WaveformComparator(ToleranceSettings(0.5, 3.0))
        times = np.arange(10.0)  # dt = 1 -> window = 3 samples
        nominal_y = np.zeros(10)
        faulty_y = np.zeros(10)
        faulty_y[4:7] = 1.0  # exactly 3 consecutive violations
        nominal = {"out": Waveform(times, nominal_y, name="out")}
        reference = comparator.compare_many(
            nominal, {"out": Waveform(times, faulty_y, name="out")})
        assert reference.detected and reference.detection_time == 6.0

        detector = StreamingDetector(comparator, nominal, times)
        decided_at = None
        for index in range(times.size):
            detector.feed({"out": faulty_y[index]})
            if decided_at is None and detector.decided:
                decided_at = index
        assert decided_at == 6  # certain exactly when the window closes
        streamed = detector.result()
        assert (streamed.detected, streamed.detection_time,
                streamed.max_deviation, streamed.signal) == \
               (reference.detected, reference.detection_time,
                reference.max_deviation, reference.signal)

    def test_one_short_of_the_window_stays_undetected(self):
        comparator = WaveformComparator(ToleranceSettings(0.5, 3.0))
        times = np.arange(10.0)
        faulty_y = np.zeros(10)
        faulty_y[4:6] = 1.0  # 2 < window of 3
        nominal = {"out": Waveform(times, np.zeros(10), name="out")}
        detector = StreamingDetector(comparator, nominal, times)
        for index in range(times.size):
            detector.feed({"out": faulty_y[index]})
            assert not detector.decided
        result = detector.result()
        assert not result.detected and result.detection_time is None

    def test_zero_sample_trace(self):
        """An empty print grid: undetected, zero deviation, and feeding
        anything is refused (matches ``compare_batch`` on empty grids)."""
        comparator = WaveformComparator(ToleranceSettings(0.5, 3.0))
        empty = np.asarray([], dtype=float)
        nominal = {"out": Waveform(empty, empty, name="out")}
        detector = StreamingDetector(comparator, nominal, empty)
        result = detector.result()
        assert (result.detected, result.detection_time,
                result.max_deviation) == (False, None, 0.0)
        with pytest.raises(CampaignError, match="grid"):
            detector.feed({"out": 0.0})


class TestStreamingDetector:

    @hyp_settings(max_examples=30, deadline=None)
    @given(samples=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=40),
           amplitude=st.floats(0.1, 2.0),
           window_time=st.floats(0.0, 8.0))
    def test_matches_compare_many(self, samples, amplitude, window_time):
        """Fed the whole grid, the incremental scan reproduces
        ``compare_many`` field for field on arbitrary waveforms."""
        comparator = WaveformComparator(
            ToleranceSettings(amplitude, window_time))
        times = np.arange(float(len(samples)))
        faulty_y = np.asarray(samples, dtype=float)
        nominal = {"out": Waveform(times, np.zeros(times.size), name="out")}
        reference = comparator.compare_many(
            nominal, {"out": Waveform(times, faulty_y, name="out")})
        detector = StreamingDetector(comparator, nominal, times)
        for index in range(times.size):
            detector.feed({"out": faulty_y[index]})
        streamed = detector.result()
        assert streamed.detected == reference.detected
        assert streamed.detection_time == reference.detection_time
        assert streamed.signal == reference.signal
        assert streamed.max_deviation == pytest.approx(
            reference.max_deviation)

    def test_first_signal_tie_break(self):
        """Two signals detecting at the same sample: dict order wins,
        exactly as in ``compare_many``."""
        comparator = WaveformComparator(ToleranceSettings(0.5, 0.0))
        times = np.arange(4.0)
        ones = np.ones(4)
        nominal = {"a": Waveform(times, np.zeros(4), name="a"),
                   "b": Waveform(times, np.zeros(4), name="b")}
        faulty = {"a": Waveform(times, ones, name="a"),
                  "b": Waveform(times, ones, name="b")}
        reference = comparator.compare_many(nominal, faulty)
        detector = StreamingDetector(comparator, nominal, times)
        for index in range(4):
            detector.feed({"a": 1.0, "b": 1.0})
        assert detector.result().signal == reference.signal == "a"

    def test_feed_past_grid_end_raises(self):
        comparator = WaveformComparator()
        times = np.arange(2.0)
        nominal = {"out": Waveform(times, np.zeros(2), name="out")}
        detector = StreamingDetector(comparator, nominal, times)
        detector.feed({"out": 0.0})
        detector.feed({"out": 0.0})
        assert detector.cursor == 2
        with pytest.raises(CampaignError):
            detector.feed({"out": 0.0})


# ---------------------------------------------------------------------------
# Divergence: one variant fails, its siblings don't notice
# ---------------------------------------------------------------------------

def _poison(run, error: Exception, at_index: int) -> None:
    """Make ``run`` raise ``error`` once its transient reaches print row
    ``at_index``: the batch driver advances a variant through
    :meth:`TransientRun.advancing`, so that is the step poisoned."""
    original = run.advancing

    def advancing():
        if run.output_index >= at_index:
            raise error
        return (yield from original())

    run.advancing = advancing


def _poisoned_batch(position: int, error: Exception, at_index: int):
    """A :class:`BatchedTransient` whose variant ``position`` raises
    ``error`` once its transient reaches print row ``at_index`` — the
    deterministic stand-in for a mid-batch solver failure."""

    class _Poisoned(BatchedTransient):
        def begin(self):
            super().begin()
            run = self.runs[position]
            if run is not None:
                _poison(run, error, at_index)
            return self

    return _Poisoned


class TestDivergence:

    def test_injection_failure_mid_batch_is_isolated(self, rc_circuit):
        """The uninjectable fault (missing net) sits in the middle of one
        batch; its siblings' records match the serial run exactly."""
        faults = _fault_list(choices=[0, 3, 6])  # fault 2 is uninjectable
        serial, batched = _assert_identical(rc_circuit, faults, _settings(),
                                            3)
        statuses = [r.status for r in batched.records]
        assert statuses[1] == STATUS_INJECTION_FAILED
        assert STATUS_INJECTION_FAILED not in (statuses[0], statuses[2])

    @pytest.mark.parametrize("error", [
        SingularMatrixError("pivot underflow in variant"),
        TransientError("timestep underflow below dt_min"),
    ])
    def test_mid_batch_solver_failure_evicts_one_variant(
            self, rc_circuit, monkeypatch, error):
        """A variant hitting ``SingularMatrixError`` or the ``dt_min``
        floor mid-batch becomes a failure record; its siblings still
        match serial execution record for record."""
        faults = _fault_list(choices=[0, 6, 4])
        serial = _run(rc_circuit, faults, _settings(), SerialExecutor())
        monkeypatch.setattr("repro.spice.analysis.batched.BatchedTransient",
                            _poisoned_batch(1, error, at_index=20))
        batched = _run(rc_circuit, faults, _settings(),
                       BatchedExecutor(batch_width=3))
        evicted = batched.records[1]
        assert evicted.status == STATUS_DETECTED  # count_failed_as_detected
        assert evicted.detection_time == 0.0
        assert str(error) in evicted.message
        for position in (0, 2):
            assert (_semantic(batched.records[position])
                    == _semantic(serial.records[position]))

    def test_eviction_respects_count_failed_as_detected(
            self, rc_circuit, monkeypatch):
        faults = _fault_list(choices=[0, 6])
        monkeypatch.setattr("repro.spice.analysis.batched.BatchedTransient",
                            _poisoned_batch(0, TransientError("dt floor"),
                                            at_index=10))
        result = _run(rc_circuit, faults,
                      _settings(count_failed_as_detected=False),
                      BatchedExecutor(batch_width=2))
        assert result.records[0].status == STATUS_SIM_FAILED
        assert result.records[0].detection_time is None

    def test_spice_level_eviction_leaves_siblings_bit_identical(self):
        """Below the campaign layer: evicting one variant of a
        :class:`BatchedTransient` leaves the sibling waveforms
        ``array_equal`` to their solo runs — on MOSFET circuits, whose
        devices the surviving siblings keep evaluating in fused passes."""
        circuits = _mosfet_variants()[:3]
        kwargs = dict(tstop=6e-7, tstep=1e-8, use_ic=True)
        solo = [TransientAnalysis(c, **kwargs).run() for c in circuits]
        batch = BatchedTransient([TransientAnalysis(c, **kwargs)
                                  for c in circuits])
        batch.begin()
        _poison(batch.runs[1], SingularMatrixError("poisoned variant"), 30)
        batch.run()
        assert batch.runs[1] is None
        assert isinstance(batch.errors[1], SingularMatrixError)
        for position in (0, 2):
            result = batch.runs[position].finish()
            for node in result.nodes:
                assert np.array_equal(result.waveform(node).y,
                                      solo[position].waveform(node).y)
            assert result.stats == solo[position].stats


# ---------------------------------------------------------------------------
# Fused device evaluation: one pass over K banks == K separate passes
# ---------------------------------------------------------------------------

def _stamped_variants(fuse: bool) -> list[tuple]:
    """Two Newton iterations of every :func:`_mosfet_variants` circuit
    around seeded random iterates, the MOSFET banks stamped either in
    one fused pass per iteration or one bank at a time.  Returns per
    variant ``(builder, state, matrices, rhs vectors, limited flags)``."""
    rng = np.random.default_rng(1995)
    variants = []
    for number, circuit in enumerate(_mosfet_variants()):
        builder = MNABuilder(circuit)
        state = builder.new_state("tran")
        state.x = rng.uniform(-1.0, 5.0, builder.size)
        state.dt = 1e-8
        state.integ_c0 = 2.0 / state.dt
        state.integ_c1 = 1.0
        # One variant with its own gmin: the fused pass must give each
        # slice its variant's value.
        state.gmin = 1e-9 if number == 1 else state.gmin
        builder.init_state(state)
        builder.assemble_constant(state)
        variants.append((builder, state, [], [], []))
    for _ in range(2):
        systems = [builder.iteration_system(state)
                   for builder, state, *_ in variants]
        banks = [builder.mosfet_bank for builder, *_ in variants]
        states = [state for _, state, *_ in variants]
        if fuse:
            MosfetBank.fuse(banks).stamp_iteration(systems, states)
        else:
            for bank, system, state in zip(banks, systems, states):
                bank.stamp_iteration((system,), (state,))
        for (builder, state, matrices, rhs, limited), system in zip(
                variants, systems):
            matrices.append(system.matrix.copy())
            rhs.append(system.rhs.copy())
            limited.append(state.limited)
            state.x = state.x + rng.uniform(-0.5, 0.5, builder.size)
    return variants


class TestFusedEvaluation:

    def test_fused_pass_equals_separate_stamps_bit_for_bit(self):
        """Matrix, rhs, limiting flag, limiting history and linearisation
        of every variant are identical, bit for bit, whether its bank is
        stamped alone or fused with banks of other sizes and parameters."""
        separate = _stamped_variants(fuse=False)
        fused = _stamped_variants(fuse=True)
        sizes = {builder.size for builder, *_ in fused}
        assert len(sizes) >= 3  # the open adds an unknown; the inverter
        for (b_sep, _, m_sep, r_sep, l_sep), (b_fus, _, m_fus, r_fus,
                                              l_fus) in zip(separate, fused):
            for a, b in zip(m_sep + r_sep, m_fus + r_fus):
                assert np.array_equal(a, b)
            assert l_sep == l_fus
            bank_sep, bank_fus = b_sep.mosfet_bank, b_fus.mosfet_bank
            assert np.array_equal(bank_sep.vgs_last, bank_fus.vgs_last)
            assert np.array_equal(bank_sep.vds_last, bank_fus.vds_last)
            for dev_sep, dev_fus in zip(b_sep.devices, b_fus.devices):
                if isinstance(dev_sep, Mosfet):
                    assert (dev_sep.operating_point
                            == dev_fus.operating_point)
        assert any(any(flags) for *_, flags in fused)

    def test_serial_rounds_equal_solves_and_batches_fuse(self):
        """``newton_rounds`` is one per solve serially; a batch fuses the
        device evaluation of its variants into fewer rounds."""
        circuit = build_cmos_inverter(input_voltage=0.0)
        faults = FaultList("inverter faults")
        faults.add(OpenFault(1, device="MN", terminal="drain"))
        faults.add(BridgingFault(2, net_a="out", net_b="vdd"))
        faults.add(ParametricFault(3, device="MP", parameter="w",
                                   relative_change=1.0))
        settings = _settings(tstop=1e-4, tstep=1e-6,
                             tolerances=ToleranceSettings(1.0, 4e-6))
        serial, batched = _assert_identical(circuit, faults, settings, 3)
        solves = serial.telemetry()["newton_iterations_total"]
        assert serial.telemetry()["newton_rounds"] == solves
        nominal = serial.nominal_stats["newton_iterations"]
        fault_solves = solves - nominal
        rounds = batched.telemetry()["newton_rounds"] - nominal
        longest = max(r.newton_iterations for r in batched.records)
        assert longest <= rounds < fault_solves

    def test_vco_early_abort_batch_matches_fig5_reference(self,
                                                          vco_layout_pair):
        """Fused rounds with early abort reproduce the committed Fig. 5
        reference: verdict, detection time and every kernel counter."""
        reference = json.loads((pathlib.Path(__file__).parents[1]
                                / "perfbench" / "references"
                                / "fig5-batched.json").read_text())
        circuit, layout = vco_layout_pair
        faults = CATFlow(circuit, layout).extract_faults() \
            .realistic_faults.top(8)
        settings = CampaignSettings(
            tstop=4e-6, tstep=1e-8, use_ic=True,
            observation_nodes=(OUTPUT_NODE,),
            tolerances=ToleranceSettings(amplitude=2.0, time=0.2e-6))
        result = _run(circuit, faults, settings,
                      BatchedExecutor(batch_width=8, early_abort=True))
        assert result.early_aborted > 0
        for record in result.records:
            expected = reference["faults"][str(record.fault.fault_id)]
            assert (record.status, record.detection_time,
                    record.newton_iterations, record.steps_accepted,
                    record.steps_rejected) == (
                expected["status"], expected["detection_time"],
                expected["newton_iterations"], expected["steps_accepted"],
                expected["steps_rejected"])
        assert result.nominal_stats["newton_iterations"] == \
            reference["nominal"]["newton_iterations"]

    @pytest.mark.parametrize("batched", [False, True])
    def test_finished_run_is_freed_without_the_cycle_collector(self,
                                                               batched):
        """Devices reference their bank, banks reference no device: a
        finished run's builder, banks and circuit go as soon as the last
        reference is dropped, with the cycle collector off."""
        circuits = _mosfet_variants()[:2]
        kwargs = dict(tstop=1e-7, tstep=1e-8, use_ic=True)
        gc.collect()
        gc.disable()
        try:
            if batched:
                batch = BatchedTransient([TransientAnalysis(c, **kwargs)
                                          for c in circuits]).run()
                runs = list(batch.runs)
                del batch
            else:
                runs = [TransientAnalysis(circuits[0], **kwargs).start()]
                while runs[0].advance():
                    pass
            results = [run.finish() for run in runs]
            for run in runs:
                assert run.builder.mosfet_bank.op is not None
            refs = [weakref.ref(obj) for run in runs
                    for obj in (run, run.builder, run.builder.mosfet_bank,
                                run.builder.cap_bank, run.state)]
            refs += [weakref.ref(circuit) for circuit in circuits]
            del runs, circuits, run
            assert [ref() for ref in refs] == [None] * len(refs)
            assert results[0].stats["newton_iterations"] > 0
        finally:
            gc.enable()


# ---------------------------------------------------------------------------
# Checkpoint resume + telemetry (satellite: no double counting)
# ---------------------------------------------------------------------------

class TestResumeAndTelemetry:

    def test_fingerprint_pinned_batched_resume_round_trip(
            self, rc_circuit, tmp_path):
        """Serial and batched runs share one checkpoint format and
        fingerprint: a serial checkpoint truncated mid-campaign resumes
        under the batched executor to the identical record set."""
        path = tmp_path / "campaign.jsonl"
        serial = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            checkpoint=path)
        lines = path.read_text().splitlines()
        fingerprint = json.loads(lines[0])["fingerprint"]
        path.write_text("\n".join(lines[:4]) + "\n")  # header + 3 records

        resumed = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            executor=BatchedExecutor(batch_width=2), checkpoint=path)
        assert resumed.checkpoint_skipped == 3
        assert ([_verdict(r) for r in resumed.records]
                == [_verdict(r) for r in serial.records])
        # Re-simulated records also carry identical counters.
        for fresh, reference in list(zip(resumed.records,
                                         serial.records))[3:]:
            assert _semantic(fresh) == _semantic(reference)
        # The resumed file is the complete campaign under one fingerprint.
        assert json.loads(path.read_text().splitlines()[0])[
            "fingerprint"] == fingerprint
        final = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            executor=BatchedExecutor(batch_width=4), checkpoint=path)
        assert final.checkpoint_skipped == len(_fault_list())

    def test_batched_checkpoint_resumes_serially(self, rc_circuit, tmp_path):
        """The reverse direction: a batched checkpoint is a plain campaign
        checkpoint any executor can resume."""
        path = tmp_path / "campaign.jsonl"
        batched = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            executor=BatchedExecutor(batch_width=3), checkpoint=path)
        resumed = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            checkpoint=path)
        assert resumed.checkpoint_skipped == len(_fault_list())
        assert ([_verdict(r) for r in resumed.records]
                == [_verdict(r) for r in batched.records])

    def test_resume_step_totals_count_only_this_run(self, rc_circuit,
                                                    tmp_path):
        """Checkpoint-skipped faults keep their per-record counters but
        no longer inflate the campaign step totals on resume."""
        path = tmp_path / "campaign.jsonl"
        FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            checkpoint=path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:4]) + "\n")
        resumed = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            executor=BatchedExecutor(batch_width=2), checkpoint=path)
        telemetry = resumed.telemetry()
        nominal = resumed.nominal_stats
        fresh = [r for r in resumed.records if not r.reloaded]
        assert len(fresh) == len(_fault_list()) - 3
        assert telemetry["steps_accepted_total"] == (
            sum(r.steps_accepted for r in fresh)
            + int(nominal.get("steps_accepted", 0)))
        assert telemetry["newton_iterations_total"] == (
            sum(r.newton_iterations for r in fresh)
            + int(nominal.get("newton_iterations", 0)))
        # The reloaded records still report their original counters.
        assert any(r.reloaded and r.steps_accepted > 0
                   for r in resumed.records)

    def test_fully_resumed_run_reports_nominal_work_only(self, rc_circuit,
                                                         tmp_path):
        path = tmp_path / "campaign.jsonl"
        FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            checkpoint=path)
        resumed = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            executor=BatchedExecutor(batch_width=4), checkpoint=path)
        telemetry = resumed.telemetry()
        assert telemetry["checkpoint_skipped"] == len(_fault_list())
        assert telemetry["steps_accepted_total"] == int(
            resumed.nominal_stats.get("steps_accepted", 0))

    def test_double_emission_is_refused(self, rc_circuit):
        """The campaign manager refuses an executor that emits one index
        twice — the failure mode behind double-counted telemetry."""

        class DoubleEmitter(SerialExecutor):
            def execute(self, simulator, plan, nominal, emit):
                info = super().execute(simulator, plan, nominal, emit)
                record = simulator.simulate_fault(
                    plan.faults[plan.pending[0]], nominal)
                emit(plan.pending[0], record)  # second emission: refused
                return info

        with pytest.raises(CampaignError, match="twice"):
            FaultSimulator(rc_circuit, _fault_list(choices=[0, 6]),
                           _settings()).run(executor=DoubleEmitter())

    def test_batched_telemetry_fields(self, rc_circuit):
        result = _run(rc_circuit, _fault_list(), _settings(),
                      BatchedExecutor(batch_width=4, early_abort=True))
        telemetry = result.telemetry()
        assert telemetry["executor"] == "batched"
        assert telemetry["batch_width"] == 4
        assert telemetry["early_aborted"] == result.early_aborted > 0
        serial = _run(rc_circuit, _fault_list(), _settings(),
                      SerialExecutor())
        assert serial.telemetry()["batch_width"] == 0


# ---------------------------------------------------------------------------
# Knobs, validation, env forcing
# ---------------------------------------------------------------------------

class TestKnobs:

    def test_batch_width_validated(self):
        with pytest.raises(CampaignError, match="batch_width"):
            BatchedExecutor(batch_width=0)

    def test_adaptive_campaigns_batch_like_serial(self, rc_circuit):
        settings = dataclasses.replace(
            _settings(), timestep=TransientOptions(mode="adaptive"))
        batched = FaultSimulator(rc_circuit, _fault_list(), settings).run(
            executor=BatchedExecutor(batch_width=3))
        serial = FaultSimulator(rc_circuit, _fault_list(), settings).run(
            executor=SerialExecutor())
        assert batched.executor == "batched"
        assert ([_semantic(r) for r in batched.records]
                == [_semantic(r) for r in serial.records])

    def test_env_forces_batched_default_executor(self, rc_circuit,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_BATCHED", "3")
        forced = FaultSimulator(rc_circuit, _fault_list(), _settings()).run()
        assert forced.executor == "batched"
        assert forced.batch_width == 3
        serial = FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
            executor=SerialExecutor())
        assert ([_semantic(r) for r in forced.records]
                == [_semantic(r) for r in serial.records])

    @pytest.mark.parametrize("value,width", [("", 0), ("0", 0), ("on", 4)])
    def test_env_force_value_parsing(self, rc_circuit, monkeypatch, value,
                                     width):
        monkeypatch.setenv("REPRO_FORCE_BATCHED", value)
        result = FaultSimulator(rc_circuit, _fault_list(choices=[0]),
                                _settings()).run()
        assert result.batch_width == width

    def test_env_force_batches_adaptive_campaigns(self, rc_circuit,
                                                  monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_BATCHED", "3")
        settings = dataclasses.replace(
            _settings(), timestep=TransientOptions(mode="adaptive"))
        forced = FaultSimulator(rc_circuit, _fault_list(choices=[0]),
                                settings).run()
        assert forced.executor == "batched"
        assert forced.batch_width == 3
        serial = FaultSimulator(rc_circuit, _fault_list(choices=[0]),
                                settings).run(executor=SerialExecutor())
        assert ([_semantic(r) for r in forced.records]
                == [_semantic(r) for r in serial.records])

    def test_env_force_never_overrides_an_explicit_executor(self, rc_circuit,
                                                            monkeypatch):
        monkeypatch.setenv("REPRO_FORCE_BATCHED", "3")
        result = FaultSimulator(rc_circuit, _fault_list(choices=[0]),
                                _settings()).run(executor=SerialExecutor())
        assert result.executor == "serial"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCommandLine:

    FLAGS = ["--observe", "out", "--amplitude-tolerance", "0.3",
             "--time-tolerance", "2e-4", "--preflight", "warn"]

    @pytest.fixture()
    def campaign_files(self, rc_circuit, tmp_path):
        netlist = tmp_path / "rc.cir"
        write_netlist_file(rc_circuit, netlist, analyses=[".tran 5e-5 5e-3"])
        faults = tmp_path / "rc.lift"
        _fault_list().dump(faults)
        return netlist, faults

    @staticmethod
    def _records(path) -> dict[int, tuple]:
        entries = [json.loads(line) for line in
                   pathlib.Path(path).read_text().splitlines()]
        return {e["fault_id"]: (e["status"], e["detection_time"],
                                e["detected_on"], e["max_deviation"])
                for e in entries if e["kind"] == "record"}

    def _cli(self, *args, expect=0):
        out = io.StringIO()
        code = cli_main([str(a) for a in args], out=out)
        assert code == expect, out.getvalue()
        return out.getvalue()

    def test_run_batch_width_matches_serial_checkpoint(self, campaign_files,
                                                       tmp_path):
        netlist, faults = campaign_files
        serial = tmp_path / "serial.jsonl"
        batched = tmp_path / "batched.jsonl"
        self._cli("run", netlist, faults, *self.FLAGS,
                  "--checkpoint", serial)
        out = self._cli("run", netlist, faults, *self.FLAGS,
                        "--batch-width", 3, "--checkpoint", batched)
        assert "AnaFAULT campaign overview" in out
        assert self._records(batched) == self._records(serial)

    def test_early_abort_requires_batch_width(self, campaign_files, capsys):
        netlist, faults = campaign_files
        self._cli("run", netlist, faults, *self.FLAGS, "--early-abort",
                  expect=2)
        assert "--batch-width" in capsys.readouterr().err

    def test_batch_width_excludes_workers(self, campaign_files, capsys):
        netlist, faults = campaign_files
        self._cli("run", netlist, faults, *self.FLAGS, "--batch-width", 2,
                  "--workers", 2, expect=2)
        assert "--workers" in capsys.readouterr().err
