"""Fault-parallel campaign execution (the process-pool engine).

The original AnaFAULT was extended to run on a workstation cluster [21];
fault simulation is embarrassingly parallel because every fault is an
independent transient run.  This module distributes the faults of a campaign
over a local process pool in batches: the fault list is streamed through
``ProcessPoolExecutor.map`` with an explicit ``chunksize`` so that the
per-fault IPC overhead is amortised over a handful of transients per
round-trip while the tail of the campaign still load-balances across
workers.  The campaign layer reaches this engine through
:class:`repro.anafault.executors.PoolExecutor` (the cross-*host* half of
the cluster story — sharding — is :class:`~repro.anafault.executors.\
ShardExecutor` plus the ``python -m repro.anafault`` CLI).

Two streaming properties keep the IPC and memory cost flat as campaigns
grow (see ``docs/campaigns.md``):

* the nominal waveforms reach the workers through a
  :class:`~repro.anafault.streaming.NominalStore` — one shared-memory copy
  total instead of one pickled copy per worker (with a clean inline
  fallback), and
* workers send back compact :class:`~repro.anafault.simulator.\
FaultSimulationRecord` payloads (verdict, metrics, telemetry — never
  waveforms), each stamped with its own pickled size so the campaign can
  report what the IPC actually cost.

:func:`iter_faults_parallel` yields records in fault order *as they
complete*, which is what lets the campaign manager append them to a
checkpoint incrementally instead of only materialising the full list at the
end.
"""

from __future__ import annotations

import pickle

from concurrent.futures import ProcessPoolExecutor
from typing import Iterator

from ..lift.faults import Fault
from ..spice import Circuit

#: Target number of map batches handed to each worker over a campaign.
#: Larger values improve tail load-balancing, smaller values cut IPC.
BATCHES_PER_WORKER = 4

_WORKER_STATE: dict[str, object] = {}


def campaign_chunksize(num_faults: int, workers: int) -> int:
    """Chunk size for ``ProcessPoolExecutor.map`` over a fault list."""
    if workers <= 0:
        return 1
    return max(1, num_faults // (workers * BATCHES_PER_WORKER))


def _init_worker(circuit: Circuit, settings, nominal) -> None:
    """Process-pool initialiser: build one simulator per worker process.

    ``nominal`` is a published nominal store; a
    :class:`~repro.anafault.streaming.NominalStore` attaches to the shared
    segment, and the store reference is kept in the worker state so the
    mapping stays alive as long as the waveform views do.
    """
    from .simulator import FaultSimulator

    _WORKER_STATE["simulator"] = FaultSimulator.for_worker(circuit, settings)
    _WORKER_STATE["store"] = nominal
    _WORKER_STATE["nominal"] = nominal.waveforms()


def _simulate_one(fault: Fault):
    simulator = _WORKER_STATE["simulator"]
    nominal = _WORKER_STATE["nominal"]
    record = simulator.simulate_fault(fault, nominal)
    # What this record costs to send home.  Setting the field afterwards
    # perturbs the measured size by a few bytes at most; it is telemetry,
    # not an invariant.
    record.payload_bytes = len(pickle.dumps(record))
    return record


def iter_faults_parallel(circuit: Circuit, faults: list[Fault], settings,
                         nominal, workers: int) -> Iterator:
    """Simulate ``faults`` on a process pool, yielding the records in the
    original fault order as the workers complete them.

    ``nominal`` is a published nominal store
    (:func:`repro.anafault.streaming.publish_nominal`); it is *not*
    disposed here — its publisher keeps that responsibility.  The only
    caller, :class:`~repro.anafault.executors.PoolExecutor`, runs one
    worker or one fault serially instead, so both are at least two here.
    """
    workers = min(workers, len(faults))
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                             initargs=(circuit, settings, nominal)) as pool:
        yield from pool.map(_simulate_one, faults,
                            chunksize=campaign_chunksize(len(faults), workers))
