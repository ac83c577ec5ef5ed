"""Pluggable campaign execution: plan -> execute -> collect.

The campaign layer used to be one monolithic ``FaultSimulator.run`` that
hand-wove checkpoint loading, pending-fault partitioning, nominal
publication, pool lifetime and record merging.  This module gives each of
those concerns a seam:

* **plan** — :class:`CampaignPlan` captures *what* one run will simulate:
  the ordered fault list, this run's (possibly sharded) slice of it, the
  skipped/pending partition derived from a checkpoint, and the campaign
  fingerprint that keys every persisted record.
* **execute** — a :class:`CampaignExecutor` decides *how* the pending
  faults are simulated.  :class:`SerialExecutor` runs them in-process,
  :class:`PoolExecutor` distributes them over a local process pool (the
  shared-memory nominal + chunked ``ProcessPoolExecutor.map`` wiring of
  :mod:`repro.anafault.parallel` and :mod:`repro.anafault.streaming`), and
  :class:`ShardExecutor` runs one deterministic ``shard_index/shard_count``
  slice and persists it as a fingerprint-keyed JSONL shard — the unit of
  cross-host distribution (section II of the paper: AnaFAULT was extended
  to run campaigns on a workstation cluster).
* **collect** — :func:`merge_shards` assembles N shard files back into one
  :class:`~repro.anafault.simulator.CampaignResult`, record for record
  identical to the unsharded run; it refuses fingerprint mismatches and
  overlapping shards, and reports missing-id holes.

``FaultSimulator.run`` is now a thin pipeline over these three stages, and
any future executor (async, GPU-batched, remote) only has to implement
:meth:`CampaignExecutor.execute`.  The command-line front end that drives
two-host campaigns with nothing but a shared netlist and an rsync'd
directory lives in :mod:`repro.anafault.cli`.
"""

from __future__ import annotations

import pathlib
import time as _time
from dataclasses import dataclass, field
from typing import Callable, Protocol

from ..errors import CampaignError
from ..lift.faults import Fault
from .simulator import (
    STATUS_DETECTED,
    STATUS_INJECTION_FAILED,
    STATUS_SIM_FAILED,
    CampaignResult,
    CampaignSettings,
    FaultSimulationRecord,
    record_from_comparison,
)

#: Callback an executor invokes for every newly simulated record:
#: ``emit(index, record)`` with ``index`` the fault's position in the full
#: campaign fault list.  The campaign manager owns it and uses it to slot
#: the record into the result, append it to the checkpoint and fire the
#: user's progress callback — executors never touch those concerns.
EmitCallback = Callable[[int, FaultSimulationRecord], None]


def validate_shard_spec(shard_index: int, shard_count: int) -> None:
    """Reject malformed shard specifications (the one rule every entry
    point — executors and :meth:`FaultSimulator.plan` — shares)."""
    if shard_count < 1 or not 0 <= shard_index < shard_count:
        raise CampaignError(
            f"invalid shard specification {shard_index}/{shard_count}: "
            "need 0 <= shard_index < shard_count")


def record_from_payload(fault: Fault, payload: dict,
                        reloaded: bool = True) -> FaultSimulationRecord:
    """Rebuild a :class:`~repro.anafault.simulator.FaultSimulationRecord`
    from its checkpoint JSON payload.

    The fault object itself comes from the campaign's own fault list (the
    checkpoint persists only the fault id).  ``payload_bytes`` stays 0:
    nothing crossed IPC for a reloaded record, and telemetry reports what
    *this* run paid.  ``reloaded=False`` is for records that *are* this
    run's fresh work arriving as payloads — the campaign service's workers
    report records over the wire, and :class:`~repro.anafault.remote.RemoteExecutor`
    must count their kernel work exactly once (only a checkpoint reload
    re-reads work a previous run already counted).
    """
    return FaultSimulationRecord(
        fault=fault,
        status=str(payload.get("status") or STATUS_SIM_FAILED),
        detection_time=payload.get("detection_time"),
        detected_on=str(payload.get("detected_on") or ""),
        max_deviation=float(payload.get("max_deviation") or 0.0),
        persistent_deviation=float(payload.get("persistent_deviation") or 0.0),
        elapsed_seconds=float(payload.get("elapsed_seconds") or 0.0),
        message=str(payload.get("message") or ""),
        newton_iterations=int(payload.get("newton_iterations") or 0),
        steps_accepted=int(payload.get("steps_accepted") or 0),
        steps_rejected=int(payload.get("steps_rejected") or 0),
        trace_bytes=int(payload.get("trace_bytes") or 0),
        payload_bytes=0,
        reloaded=reloaded,
        attempt=int(payload.get("attempt") or 1),
        order_histogram={str(k): int(v) for k, v in
                         (payload.get("order_histogram") or {}).items()})


# ---------------------------------------------------------------------------
# Plan
# ---------------------------------------------------------------------------

@dataclass
class CampaignPlan:
    """What one campaign run will simulate (the *plan* stage).

    Built by :meth:`~repro.anafault.FaultSimulator.plan` from the fault
    list, an optional checkpoint and an optional shard specification.  All
    index values refer to positions in :attr:`faults` — the full, ordered
    campaign fault list — so records from different shards or resumes
    always land in the same slots.
    """

    #: The full, ordered campaign fault list (never sliced).
    faults: list[Fault]
    #: This run's slice of ``range(len(faults))``: everything for an
    #: unsharded run, the deterministic round-robin subset
    #: ``indices[shard_index::shard_count]`` for a shard.
    indices: list[int]
    #: Fault-list indices still to simulate this run (a subset of
    #: :attr:`indices` — index into :attr:`faults` directly).
    pending: list[int]
    #: Records reloaded from the checkpoint, keyed by fault-list index.
    preloaded: dict[int, FaultSimulationRecord] = field(default_factory=dict)
    #: Campaign identity (:func:`repro.anafault.campaign_fingerprint`);
    #: empty for plain runs that neither checkpoint nor shard.
    fingerprint: str = ""
    shard_index: int = 0
    shard_count: int = 1
    #: Preflight mode the plan was built under (``"error"``, ``"warn"`` or
    #: ``"off"``); travels into the campaign result and its telemetry.
    preflight: str = "warn"
    #: Diagnostics the campaign preflight reported (empty when the mode is
    #: ``"off"`` or the inputs are clean).  In ``"error"`` mode
    #: :meth:`~repro.anafault.FaultSimulator.plan` raises
    #: :class:`~repro.errors.PreflightError` instead of building a plan
    #: that carries error-severity diagnostics.
    diagnostics: tuple = ()

    @property
    def total(self) -> int:
        """Faults this run is responsible for (its slice, not the list)."""
        return len(self.indices)

    @property
    def skipped(self) -> int:
        """Faults of this run's slice already satisfied by the checkpoint."""
        return len(self.preloaded)

    @property
    def sharded(self) -> bool:
        """Whether this plan covers a proper subset of the fault list."""
        return self.shard_count > 1


# ---------------------------------------------------------------------------
# Execute
# ---------------------------------------------------------------------------

@dataclass
class ExecutionInfo:
    """How an executor ran a plan (collected into the campaign telemetry)."""

    #: Executor label (``"serial"``, ``"pool"``, ``"shard"``, ...).
    executor: str = "serial"
    #: Worker processes actually used (1 = in-process).
    workers: int = 1
    #: How the nominal waveforms reached the workers (see
    #: :attr:`repro.anafault.simulator.CampaignResult.nominal_store`).
    nominal_store: str = "local"
    #: Pickled size of the nominal payload one worker received (0 serial).
    nominal_ipc_bytes: int = 0
    #: Lockstep batch width of a :class:`BatchedExecutor` run (0 per-fault).
    batch_width: int = 0
    #: Fault variants stopped early because their verdict was already
    #: decided (``BatchedExecutor(early_abort=True)`` only).
    early_aborted: int = 0
    #: Scheduler-daemon counters and per-worker throughput of a
    #: :class:`~repro.anafault.remote.RemoteExecutor` run (empty for the
    #: local executors); copied onto ``CampaignResult.service``.
    service: dict = field(default_factory=dict)


class CampaignExecutor(Protocol):
    """The execution seam of the campaign layer.

    An executor receives the planned campaign and simulates the pending
    faults, reporting each finished record through ``emit`` — in plan
    order, as soon as it is available, so the campaign manager can
    checkpoint incrementally.  It returns an :class:`ExecutionInfo`
    describing how the work was performed.  Executors never build results,
    open checkpoints or fire progress callbacks; those stay with
    ``FaultSimulator.run``.

    Three attribute names are **reserved**: ``FaultSimulator.run`` reads
    ``shard_index``/``shard_count`` (the plan slice this executor wants)
    and ``checkpoint`` (a path-like JSONL output the run should append
    to) off the executor when present, as :class:`ShardExecutor` relies
    on.  A custom executor must only define them with those meanings.
    """

    #: Short label reported in the campaign telemetry.
    name: str

    def execute(self, simulator, plan: CampaignPlan, nominal: dict,
                emit: EmitCallback) -> ExecutionInfo:
        """Simulate ``plan.pending`` and emit every record as it finishes."""
        ...  # pragma: no cover - protocol


class SerialExecutor:
    """Simulate every pending fault in-process, one after the other."""

    name = "serial"

    def execute(self, simulator, plan: CampaignPlan, nominal: dict,
                emit: EmitCallback) -> ExecutionInfo:
        """Run the pending faults of ``plan`` sequentially in this process."""
        for index in plan.pending:
            emit(index, simulator.simulate_fault(plan.faults[index], nominal))
        return ExecutionInfo(executor=self.name)


class PoolExecutor:
    """Distribute the pending faults over a local process pool.

    Behaviour-preserving absorption of the old parallel branch of
    ``FaultSimulator.run``: the nominal waveforms are published once
    (shared memory, with an inline fallback where the platform has none —
    see :mod:`repro.anafault.streaming`), the faults travel in chunked batches
    through :func:`repro.anafault.parallel.iter_faults_parallel`, and the
    records come back in plan order as they complete.  With one worker —
    or at most one pending fault — everything runs in-process and no pool
    is started, exactly like :class:`SerialExecutor`.
    """

    name = "pool"

    def __init__(self, workers: int):
        self.workers = int(workers)

    def execute(self, simulator, plan: CampaignPlan, nominal: dict,
                emit: EmitCallback) -> ExecutionInfo:
        """Run the pending faults over the pool (serial fallback included)."""
        pending = plan.pending
        if self.workers <= 1 or len(pending) <= 1:
            return SerialExecutor().execute(simulator, plan, nominal, emit)
        from .parallel import iter_faults_parallel
        from .streaming import publish_nominal

        info = ExecutionInfo(executor=self.name,
                             workers=min(self.workers, len(pending)))
        store = publish_nominal(nominal)
        try:
            info.nominal_store = store.kind
            info.nominal_ipc_bytes = store.payload_bytes()
            stream = iter_faults_parallel(
                simulator.circuit, [plan.faults[i] for i in pending],
                simulator.settings, store, self.workers)
            try:
                for index, record in zip(pending, stream):
                    emit(index, record)
            finally:
                # zip() leaves the generator suspended inside its pool
                # context; close it so the pool shuts down before the
                # shared segment is unlinked.
                stream.close()
        finally:
            store.dispose()
        return info


class BatchedExecutor:
    """Simulate the pending faults in lockstep batches of ``batch_width``.

    The concurrent-fault-simulation executor (conf_date_SebekeTO95): each
    batch injects up to ``batch_width`` faults, builds one
    :class:`~repro.spice.analysis.BatchedTransient` over the variants and
    advances them print interval by print interval, feeding every fresh
    print row to a per-variant
    :class:`~repro.anafault.StreamingDetector` — the incremental form of
    the campaign comparator's persistence scan.

    In the default configuration every record — verdict, detection time,
    ``max_deviation``, step counters, ``trace_bytes`` — is identical to a
    :class:`SerialExecutor` run of the same campaign (lockstep reorders
    which variant computes next, never what it computes; the differential
    suite in ``tests/test_batched.py`` locks this down).  One opt-in
    lever trades part of that identity for throughput:
    ``early_abort=True`` stops a variant the moment its verdict is
    decided.  Verdict, detection time and detected signal are provably
    unchanged (the persistence run that fired cannot unfire); the
    reported ``max_deviation`` and step counters then cover only the
    simulated prefix.

    A variant that fails to converge mid-batch (including
    ``SingularMatrixError`` and the ``dt_min`` floor) is evicted to the
    same failure record serial execution produces, without perturbing its
    siblings.  Adaptive-timestep campaigns batch too: each variant
    integrates on its own adaptive step/order grid while the lockstep
    loop synchronises on the shared print grid, so verdicts (evaluated on
    print rows) match serial adaptive execution exactly.

    Per-record ``elapsed_seconds`` is the variant's injection time plus an
    equal share of the batch's kernel time (lockstep work is not
    attributable per-variant); every other telemetry field is exact.
    """

    name = "batched"

    def __init__(self, batch_width: int = 8, early_abort: bool = False):
        if int(batch_width) < 1:
            raise CampaignError("batch_width must be >= 1")
        self.batch_width = int(batch_width)
        self.early_abort = bool(early_abort)

    def execute(self, simulator, plan: CampaignPlan, nominal: dict,
                emit: EmitCallback) -> ExecutionInfo:
        """Run ``plan.pending`` in lockstep batches, emitting in plan order."""
        info = ExecutionInfo(executor=self.name,
                             batch_width=self.batch_width)
        pending = plan.pending
        for start in range(0, len(pending), self.batch_width):
            self._execute_batch(simulator, plan, nominal, emit,
                                pending[start:start + self.batch_width], info)
        return info

    def _execute_batch(self, simulator, plan: CampaignPlan, nominal: dict,
                       emit: EmitCallback, chunk: list[int],
                       info: ExecutionInfo) -> None:
        from ..spice.analysis.batched import BatchedTransient
        from .comparator import StreamingDetector

        records: dict[int, FaultSimulationRecord] = {}
        variants: list[tuple[int, Fault, float]] = []
        analyses = []
        for index in chunk:
            fault = plan.faults[index]
            start = _time.perf_counter()
            try:
                circuit = simulator.injector.inject(fault)
            except Exception as exc:
                records[index] = FaultSimulationRecord(
                    fault, STATUS_INJECTION_FAILED, message=str(exc),
                    elapsed_seconds=_time.perf_counter() - start)
                continue
            analyses.append(simulator._make_transient(circuit))
            variants.append((index, fault, _time.perf_counter() - start))

        if variants:
            kernel_start = _time.perf_counter()
            batch = BatchedTransient(analyses)
            batch.begin()
            detectors: dict[int, StreamingDetector] = {}
            columns: dict[int, dict] = {}
            for position in range(len(variants)):
                run = batch.runs[position]
                if run is None:  # evicted during the initial solve
                    continue
                detectors[position] = StreamingDetector(
                    simulator._comparator, nominal, run.times)
                columns[position] = {signal: run.signal_column(signal)
                                     for signal in nominal}

            def observe(print_index: int, live: list[int]) -> list[int]:
                stops = []
                for position in live:
                    row = batch.runs[position].data[print_index]
                    detector = detectors[position]
                    detector.feed({
                        signal: (0.0 if column is None else row[column])
                        for signal, column in columns[position].items()})
                    if self.early_abort and detector.decided:
                        stops.append(position)
                return stops

            batch.run(observe)
            share = (_time.perf_counter() - kernel_start) / len(variants)
            info.early_aborted += len(batch.aborted)

            for position, (index, fault, injection_elapsed) in \
                    enumerate(variants):
                elapsed = injection_elapsed + share
                error = batch.errors.get(position)
                if error is not None:
                    detected = simulator.settings.count_failed_as_detected
                    records[index] = FaultSimulationRecord(
                        fault,
                        STATUS_DETECTED if detected else STATUS_SIM_FAILED,
                        detection_time=0.0 if detected else None,
                        message=str(error), elapsed_seconds=elapsed)
                    continue
                run = batch.runs[position]
                stats = run.finish().stats
                records[index] = record_from_comparison(
                    fault, detectors[position].result(), stats, elapsed)

        for index in chunk:
            emit(index, records[index])


class ShardExecutor:
    """Run one deterministic shard of a campaign and persist it as JSONL.

    The cross-host seam: ``ShardExecutor(shard_index=i, shard_count=n,
    path=...)`` restricts the plan to the round-robin slice
    ``faults[i::n]`` of the fault list and appends every finished record
    to ``path`` through the existing
    :class:`~repro.anafault.CampaignCheckpoint` machinery — the shard file
    is a regular fingerprint-keyed campaign checkpoint, so an interrupted
    shard resumes from its own file, and :func:`merge_shards` (or the
    ``python -m repro.anafault merge`` CLI) can reassemble N shard files
    into the unsharded result.  Every host must run the identical circuit,
    fault list and settings; the shared fingerprint enforces that at merge
    time.  The actual simulation is delegated to a :class:`PoolExecutor`
    (``workers`` > 1) or :class:`SerialExecutor`.
    """

    name = "shard"

    def __init__(self, shard_index: int, shard_count: int, path,
                 workers: int = 1):
        validate_shard_spec(shard_index, shard_count)
        self.shard_index = int(shard_index)
        self.shard_count = int(shard_count)
        #: The shard's JSONL output file; ``FaultSimulator.run`` opens it
        #: as the run's checkpoint (resume included) when the caller does
        #: not pass an explicit one.
        self.checkpoint = pathlib.Path(path)
        self.workers = int(workers)

    def execute(self, simulator, plan: CampaignPlan, nominal: dict,
                emit: EmitCallback) -> ExecutionInfo:
        """Run this shard's pending slice (serial or pooled) in-process."""
        inner = (PoolExecutor(self.workers) if self.workers > 1
                 else SerialExecutor())
        info = inner.execute(simulator, plan, nominal, emit)
        info.executor = self.name
        return info


# ---------------------------------------------------------------------------
# Collect
# ---------------------------------------------------------------------------

def merge_shards(circuit, fault_list, settings: CampaignSettings | None,
                 shard_paths, require_complete: bool = False) -> CampaignResult:
    """Assemble shard JSONL files into one :class:`CampaignResult`.

    The collector of a cross-host campaign: given the *same* circuit,
    fault list and settings every shard ran with, reads the given shard
    checkpoint files and returns a result whose records (in fault-list
    order) are record-for-record identical to a single-host run of the
    whole campaign.

    Safety properties:

    * a shard written for a **different campaign** (fingerprint mismatch:
      other netlist, fault list or verdict-relevant settings) raises
      :class:`~repro.errors.CampaignError` instead of mixing results,
    * **incompatible splits refuse**: shard headers record their
      ``shard_index``/``shard_count``, and files whose declared counts
      disagree (host command lines drifted, e.g. a 2-way and a 3-way
      shard) or whose indices collide are rejected up front — even when
      their fault ids happen not to overlap,
    * **overlapping shards** — the same fault id in two files, e.g. two
      hosts accidentally running the same ``shard_index`` — refuse with
      the colliding id and both file names,
    * a **missing shard** leaves ``None`` holes in the record list, which
      every ``CampaignResult`` aggregate (``telemetry()``, ``coverage()``,
      the report tables) already tolerates; pass ``require_complete=True``
      to turn the holes into a :class:`~repro.errors.CampaignError` that
      names the missing fault ids.
    """
    from .checkpoint import (CampaignCheckpoint, campaign_fingerprint,
                             read_header)

    settings = settings or CampaignSettings()
    faults = list(fault_list)
    if not faults:
        raise CampaignError("the fault list is empty")
    ids = [fault.fault_id for fault in faults]
    if len(set(ids)) != len(ids):
        raise CampaignError(
            "merging shards needs unique fault ids to key records; "
            "merge the fault list first (merge_equivalent())")
    fingerprint = campaign_fingerprint(circuit, fault_list, settings)
    index_of = {fault.fault_id: index for index, fault in enumerate(faults)}
    records: list[FaultSimulationRecord | None] = [None] * len(faults)
    source: dict[int, pathlib.Path] = {}
    slices: dict[int, pathlib.Path] = {}
    declared_count: tuple[int, pathlib.Path] | None = None
    for path in shard_paths:
        path = pathlib.Path(path)
        if not path.exists():
            raise CampaignError(f"shard file {path} does not exist")
        header = read_header(path) or {}
        if "shard_index" in header:
            # Drifted splits can produce disjoint fault ids (no overlap to
            # trip on) yet silent holes; the declared slices must agree.
            index = int(header["shard_index"])
            count = int(header.get("shard_count", 1))
            if declared_count is not None and count != declared_count[0]:
                raise CampaignError(
                    f"shards disagree on the split: {declared_count[1]} was "
                    f"written for shard_count={declared_count[0]} but "
                    f"{path} for shard_count={count}")
            declared_count = (count, path)
            if index in slices:
                raise CampaignError(
                    f"shards overlap: both {slices[index]} and {path} were "
                    f"written for shard index {index}")
            slices[index] = path
        completed = CampaignCheckpoint(path).load(fingerprint)
        for fault_id, payload in completed.items():
            if fault_id in source:
                raise CampaignError(
                    f"shards overlap: fault id {fault_id} appears in both "
                    f"{source[fault_id]} and {path}; every fault must come "
                    "from exactly one shard")
            index = index_of.get(fault_id)
            if index is None:
                raise CampaignError(
                    f"shard {path} carries fault id {fault_id}, which is "
                    "not in the campaign fault list")
            source[fault_id] = path
            records[index] = record_from_payload(faults[index], payload)
    if require_complete:
        missing = [fault.fault_id
                   for fault, record in zip(faults, records) if record is None]
        if missing:
            raise CampaignError(
                f"merged shards are missing {len(missing)} fault id(s): "
                f"{missing}")
    result = CampaignResult(settings=settings, fault_list=fault_list,
                            workers=1)
    result.records = records
    result.executor = "merge"
    result.checkpoint_skipped = len(source)
    return result
