"""Tests for the streaming fault-campaign engine.

Covers the three legs of the engine (see ``docs/campaigns.md``):

* the shared-memory nominal store (one physical copy for N workers, with
  the inline pickled fallback where shared memory is unavailable),
* observed-node streaming in the transient kernel (record only the
  comparator nodes),
* JSONL checkpoint/resume (kill a campaign mid-run, resume, and get a
  result record-for-record identical to an uninterrupted one),

plus the robustness fixes that ride along (empty/partial telemetry,
``record_for`` raising ``KeyError``).
"""

from __future__ import annotations

import json
import pickle

import numpy as np
import pytest

from repro.anafault import (
    CampaignCheckpoint,
    CampaignSettings,
    FaultSimulator,
    InlineNominalStore,
    NominalStore,
    PoolExecutor,
    SerialExecutor,
    ToleranceSettings,
    campaign_fingerprint,
    publish_nominal,
)
from repro.anafault import streaming
from repro.anafault.simulator import CampaignResult
from repro.errors import AnalysisError, CampaignError
from repro.lift import BridgingFault, FaultList, OpenFault, ParametricFault
from repro.spice import TransientAnalysis, Waveform


def _fault_list() -> FaultList:
    """Five faults covering every record status the campaign can produce."""
    faults = FaultList("rc streaming faults")
    faults.add(BridgingFault(1, probability=1e-7, net_a="out", net_b="0"))
    faults.add(OpenFault(2, probability=1e-8, device="R1", terminal="pos"))
    faults.add(ParametricFault(3, probability=1e-9, device="R1",
                               parameter="value", relative_change=0.01))
    faults.add(BridgingFault(4, probability=1e-9, net_a="out",
                             net_b="missing"))
    faults.add(BridgingFault(5, probability=1e-9, net_a="in", net_b="out"))
    return faults


def _settings(**overrides) -> CampaignSettings:
    base = dict(tstop=5e-3, tstep=5e-5, use_ic=True,
                observation_nodes=("out",),
                tolerances=ToleranceSettings(0.3, 2e-4))
    base.update(overrides)
    return CampaignSettings(**base)


def _semantic(record) -> tuple:
    """The verdict-level identity of a record (no timing telemetry)."""
    return (record.fault.fault_id, record.status, record.detection_time,
            record.detected_on, record.max_deviation,
            record.newton_iterations)


class TestNominalStore:
    def _waves(self, samples: int = 256) -> dict[str, Waveform]:
        t = np.linspace(0.0, 1e-6, samples)
        return {"11": Waveform(t, np.sin(1e7 * t), name="v(11)"),
                "out": Waveform(t, np.cos(1e7 * t), name="v(out)")}

    def test_publish_prefers_shared_memory(self):
        store = publish_nominal(self._waves())
        try:
            assert isinstance(store, NominalStore)
            assert store.kind == "shared_memory"
        finally:
            store.dispose()

    def test_pickle_attaches_to_same_pages(self):
        waves = self._waves()
        store = NominalStore.publish(waves)
        try:
            clone = pickle.loads(pickle.dumps(store))
            cloned = clone.waveforms()
            assert set(cloned) == set(waves)
            for name, wave in waves.items():
                np.testing.assert_array_equal(cloned[name].x, wave.x)
                np.testing.assert_array_equal(cloned[name].y, wave.y)
            clone.dispose()  # non-owner: must not unlink the segment
            again = pickle.loads(pickle.dumps(store)).waveforms()
            np.testing.assert_array_equal(again["out"].y, waves["out"].y)
        finally:
            store.dispose()

    def test_pickled_payload_is_layout_not_data(self):
        waves = self._waves(samples=50_000)
        store = NominalStore.publish(waves)
        try:
            inline = InlineNominalStore(waves)
            # The shared store ships a name + layout table; the inline
            # fallback ships every sample.
            assert store.payload_bytes() < 2_000
            assert inline.payload_bytes() > 100_000
            assert store.payload_bytes() * 50 < inline.payload_bytes()
        finally:
            store.dispose()

    def test_dispose_is_idempotent_and_blocks_pickling(self):
        store = NominalStore.publish(self._waves())
        store.dispose()
        store.dispose()
        with pytest.raises(pickle.PicklingError):
            pickle.dumps(store)

    def test_inline_fallback_without_shared_memory_module(self,
                                                          monkeypatch):
        monkeypatch.setattr(streaming, "_shared_memory", None)
        waves = self._waves()
        store = publish_nominal(waves)
        assert isinstance(store, InlineNominalStore)
        assert store.kind == "inline"
        assert store.waveforms()["out"] is waves["out"]
        store.dispose()  # no-op


class TestObservedNodeStreaming:
    def test_streamed_trace_matches_full_run(self, rc_circuit):
        kwargs = dict(tstop=5e-3, tstep=5e-5)
        full = TransientAnalysis(rc_circuit, **kwargs).run()
        streamed = TransientAnalysis(rc_circuit, record_nodes=("out",),
                                     **kwargs).run()
        np.testing.assert_array_equal(streamed["out"].y, full["out"].y)
        assert streamed.stats["recorded_nodes"] == 1
        assert streamed.stats["trace_bytes"] < full.stats["trace_bytes"]

    def test_unselected_node_not_recorded(self, rc_circuit):
        result = TransientAnalysis(rc_circuit, tstop=5e-3, tstep=5e-5,
                                   record_nodes=("out",)).run()
        with pytest.raises(AnalysisError, match="no recorded signal"):
            result.waveform("in")

    def test_unknown_record_node_raises_up_front(self, rc_circuit):
        analysis = TransientAnalysis(rc_circuit, tstop=5e-3, tstep=5e-5,
                                     record_nodes=("nonexistent",))
        with pytest.raises(AnalysisError, match="unknown signal"):
            analysis.run()

    def test_branch_current_signals_stream_too(self, rc_circuit):
        """Campaigns may observe a source current; streaming must keep
        resolving those signals instead of rejecting them as unknown."""
        kwargs = dict(tstop=5e-3, tstep=5e-5)
        full = TransientAnalysis(rc_circuit, **kwargs).run()
        streamed = TransientAnalysis(rc_circuit, record_nodes=("VIN",),
                                     **kwargs).run()
        np.testing.assert_array_equal(streamed["vin"].y,
                                      full.current("vin").y)

    def test_ground_is_allowed_and_synthesised(self, rc_circuit):
        result = TransientAnalysis(rc_circuit, tstop=5e-3, tstep=5e-5,
                                   record_nodes=("out", "0")).run()
        assert np.all(result["0"].y == 0.0)

    def test_waveform_downsample_helper(self):
        wave = Waveform(np.arange(11.0), np.arange(11.0) ** 2)
        decimated = wave.downsample(4)
        np.testing.assert_array_equal(decimated.x, [0.0, 4.0, 8.0, 10.0])
        assert wave.downsample(1).x.size == 11
        assert wave.nbytes == 2 * 11 * 8


class TestCheckpointFile:
    def test_fingerprint_sensitivity(self, rc_circuit):
        faults = _fault_list()
        base = campaign_fingerprint(rc_circuit, faults, _settings())
        assert base == campaign_fingerprint(rc_circuit, _fault_list(),
                                            _settings())
        shorter = _settings(tstop=4e-3)
        assert base != campaign_fingerprint(rc_circuit, faults, shorter)
        fewer = FaultList("rc streaming faults", faults.faults[:-1])
        assert base != campaign_fingerprint(rc_circuit, fewer, _settings())

    def test_fingerprint_golden_value(self, rc_circuit):
        """The fingerprint of a fixed campaign is pinned, so checkpoints
        written by earlier versions (whose settings carried engine-only
        fields the fingerprint never covered) still resume."""
        faults = FaultList("pin")
        faults.add(BridgingFault(1, probability=1e-7, net_a="out", net_b="0"))
        faults.add(OpenFault(2, probability=1e-8, device="R1",
                             terminal="pos"))
        settings = CampaignSettings(observation_nodes=("out",))
        assert (campaign_fingerprint(rc_circuit, faults, settings)
                == "82374ff14103158a3252f89376c2029a")

    def test_load_missing_file_is_empty(self, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "never-written.jsonl")
        assert checkpoint.load("abc") == {}

    def test_mismatched_fingerprint_refuses_resume(self, rc_circuit,
                                                   tmp_path):
        path = tmp_path / "campaign.jsonl"
        simulator = FaultSimulator(rc_circuit, _fault_list(), _settings())
        simulator.run(checkpoint=path)
        other = FaultSimulator(rc_circuit, _fault_list(),
                               _settings(tstop=4e-3))
        with pytest.raises(CampaignError, match="different campaign"):
            other.run(checkpoint=path)

    def test_torn_tail_line_is_tolerated(self, rc_circuit, tmp_path):
        path = tmp_path / "campaign.jsonl"
        simulator = FaultSimulator(rc_circuit, _fault_list(), _settings())
        reference = simulator.run(checkpoint=path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "record", "fault_id": 99, "status"')
        resumed = FaultSimulator(rc_circuit, _fault_list(),
                                 _settings()).run(checkpoint=path)
        assert list(map(_semantic, resumed.records)) == \
            list(map(_semantic, reference.records))

    def test_torn_header_line_is_rewritten(self, rc_circuit, tmp_path):
        """A kill while writing the very first line must not poison the
        file: the next run rewrites the header and later resumes work."""
        path = tmp_path / "campaign.jsonl"
        path.write_text('{"kind": "header", "version": 1, "fingerp')
        first = FaultSimulator(rc_circuit, _fault_list(),
                               _settings()).run(checkpoint=path)
        resumed = FaultSimulator(rc_circuit, _fault_list(),
                                 _settings()).run(checkpoint=path)
        assert resumed.checkpoint_skipped == len(first.records)
        assert list(map(_semantic, resumed.records)) == \
            list(map(_semantic, first.records))

    def test_duplicate_fault_ids_rejected_with_checkpoint(self, rc_circuit,
                                                          tmp_path):
        faults = FaultList("dupes")
        faults.add(BridgingFault(1, net_a="out", net_b="0"))
        faults.add(BridgingFault(1, net_a="in", net_b="out"))
        simulator = FaultSimulator(rc_circuit, faults, _settings())
        with pytest.raises(CampaignError, match="unique fault ids"):
            simulator.run(checkpoint=tmp_path / "c.jsonl")
        # Without a checkpoint the duplicate-id list still simulates.
        assert len(simulator.run().records) == 2

    def test_append_requires_start(self, tmp_path):
        checkpoint = CampaignCheckpoint(tmp_path / "c.jsonl")
        with pytest.raises(CampaignError, match="start"):
            checkpoint.append(object())


class TestCheckpointResume:
    def test_interrupted_run_resumes_identically(self, rc_circuit, tmp_path):
        path = tmp_path / "campaign.jsonl"
        faults = _fault_list()

        class Interrupted(RuntimeError):
            """Stands in for a crash/kill mid-campaign."""

        def kill_after_two(done, _total, _record):
            if done == 2:
                raise Interrupted()

        with pytest.raises(Interrupted):
            FaultSimulator(rc_circuit, faults, _settings()).run(
                checkpoint=path, progress_callback=kill_after_two)

        persisted = [json.loads(line)
                     for line in path.read_text().splitlines()]
        assert persisted[0]["kind"] == "header"
        assert [e["fault_id"] for e in persisted[1:]] == [1, 2]

        resumed = FaultSimulator(rc_circuit, _fault_list(),
                                 _settings()).run(checkpoint=path)
        baseline = FaultSimulator(rc_circuit, _fault_list(),
                                  _settings()).run()
        assert resumed.checkpoint_skipped == 2
        assert list(map(_semantic, resumed.records)) == \
            list(map(_semantic, baseline.records))
        assert resumed.fault_coverage() == baseline.fault_coverage()

    def test_completed_checkpoint_skips_every_fault(self, rc_circuit,
                                                    tmp_path):
        path = tmp_path / "campaign.jsonl"
        first = FaultSimulator(rc_circuit, _fault_list(),
                               _settings()).run(checkpoint=path)
        lines_before = len(path.read_text().splitlines())
        second = FaultSimulator(rc_circuit, _fault_list(),
                                _settings()).run(checkpoint=path)
        assert second.checkpoint_skipped == len(first.records)
        assert second.telemetry()["checkpoint_skipped"] == 5
        assert len(path.read_text().splitlines()) == lines_before
        assert list(map(_semantic, second.records)) == \
            list(map(_semantic, first.records))
        # Reloaded records crossed no IPC in this run, and the engine
        # telemetry must reflect the serial fallback actually taken even
        # when more workers were requested.
        third = FaultSimulator(rc_circuit, _fault_list(),
                               _settings()).run(executor=PoolExecutor(2), checkpoint=path)
        telemetry = third.telemetry()
        assert telemetry["record_ipc_bytes_total"] == 0
        assert telemetry["workers"] == 1
        assert telemetry["nominal_store"] == "local"

    def test_worker_exception_mid_campaign_then_resume(self, rc_circuit,
                                                       tmp_path, monkeypatch):
        """Simulated worker crash: an exception raised inside a process-pool
        worker kills the campaign; the checkpoint keeps everything finished
        before the crash and the resumed run completes the rest."""
        path = tmp_path / "campaign.jsonl"
        original = FaultSimulator.simulate_fault

        def poisoned(self, fault, nominal):
            if fault.fault_id == 5:
                raise RuntimeError("injected worker crash")
            return original(self, fault, nominal)

        monkeypatch.setattr(FaultSimulator, "simulate_fault", poisoned)
        with pytest.raises(RuntimeError, match="injected worker crash"):
            FaultSimulator(rc_circuit, _fault_list(), _settings()).run(
                executor=PoolExecutor(2), checkpoint=path)
        monkeypatch.undo()

        resumed = FaultSimulator(rc_circuit, _fault_list(),
                                 _settings()).run(executor=PoolExecutor(2), checkpoint=path)
        baseline = FaultSimulator(rc_circuit, _fault_list(),
                                  _settings()).run()
        assert list(map(_semantic, resumed.records)) == \
            list(map(_semantic, baseline.records))


class TestStreamingCampaign:
    def test_serial_parallel_equivalent_with_shared_memory(self, rc_circuit):
        serial = FaultSimulator(rc_circuit, _fault_list(),
                                _settings()).run(executor=SerialExecutor())
        parallel = FaultSimulator(rc_circuit, _fault_list(),
                                  _settings()).run(executor=PoolExecutor(2))
        assert list(map(_semantic, serial.records)) == \
            list(map(_semantic, parallel.records))
        assert serial.nominal_store == "local"
        assert parallel.nominal_store == "shared_memory"
        assert parallel.nominal_ipc_bytes > 0
        # Workers stamp the IPC cost of every record they send home.
        assert all(r.payload_bytes > 0 for r in parallel.records)
        assert parallel.telemetry()["record_ipc_bytes_total"] > 0

    def test_shared_memory_payload_beats_inline(self, rc_circuit,
                                                monkeypatch):
        shared = FaultSimulator(rc_circuit, _fault_list(),
                                _settings()).run(executor=PoolExecutor(2))
        monkeypatch.setattr(streaming, "_shared_memory", None)
        inline = FaultSimulator(rc_circuit, _fault_list(),
                                _settings()).run(executor=PoolExecutor(2))
        assert inline.nominal_store == "inline"
        assert shared.nominal_ipc_bytes < inline.nominal_ipc_bytes
        assert list(map(_semantic, shared.records)) == \
            list(map(_semantic, inline.records))

    def test_pool_campaign_falls_back_when_publish_fails(self, rc_circuit,
                                                        monkeypatch):
        def refuse(cls, waveforms):
            raise OSError("read-only /dev/shm")

        monkeypatch.setattr(NominalStore, "publish", classmethod(refuse))
        serial = FaultSimulator(rc_circuit, _fault_list(),
                                _settings()).run(executor=SerialExecutor())
        inline = FaultSimulator(rc_circuit, _fault_list(),
                                _settings()).run(executor=PoolExecutor(2))
        assert inline.nominal_store == "inline"
        assert list(map(_semantic, inline.records)) == \
            list(map(_semantic, serial.records))


class TestResultRobustness:
    def _empty(self) -> CampaignResult:
        return CampaignResult(CampaignSettings(), FaultList("empty", []))

    def test_telemetry_on_empty_records(self):
        telemetry = self._empty().telemetry()
        assert telemetry["faults"] == 0
        assert telemetry["fault_seconds_mean"] == 0.0
        assert telemetry["record_ipc_bytes_mean"] == 0.0
        assert telemetry["trace_bytes_max"] == 0

    def test_count_by_status_on_empty_and_partial(self):
        result = self._empty()
        assert result.count_by_status() == {}
        result.records = [None]  # a fault that never ran
        assert result.count_by_status() == {}
        assert result.telemetry()["faults"] == 0
        assert result.coverage().total_faults == 0

    def test_record_for_raises_keyerror_naming_id(self):
        result = self._empty()
        with pytest.raises(KeyError, match="fault id 42"):
            result.record_for(42)
