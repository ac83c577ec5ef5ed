"""Workload definitions of the campaign benchmark.

Each workload turns a run seed into the inputs of one fault-simulation
campaign — circuit, fault list, settings and executor — using only the
library's public entry points.  The program under test receives the
generated inputs and nothing else.

The fault *set* of every workload is fixed (so every run measures the
same work and every fault has a committed reference verdict); the run
seed permutes the order in which a campaign visits the faults, with a
fresh permutation for every campaign of the run, so that a run's median
averages over batch compositions instead of measuring one of them.  The
pool workload's long faults go first (:data:`FAULTGEN_LONG`).
"""

from __future__ import annotations

import pathlib
import sys
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

#: Faults of the fig5 workloads at benchmark size: the highest-probability
#: faults of the LIFT list (the full list has 99).
FIG5_FAULTS = 16
#: Stages of the chain-sparse inverter chain (stages + 4 MNA unknowns, above
#: the sparse auto-selection threshold of 160 unknowns).
CHAIN_STAGES = 192
#: Faults of the chain-sparse campaign, drawn once from the schematic fault
#: list with CHAIN_SAMPLE_SEED.
CHAIN_FAULTS = 3
CHAIN_SAMPLE_SEED = 2024
#: Importance-sampling draws of the faultgen-adaptive campaign and the seed
#: of the draw (the workload's own seed, not the run seed).
FAULTGEN_DRAWS = 24
FAULTGEN_SAMPLE_SEED = 1995
#: Pool workers of the faultgen-adaptive campaign.
POOL_WORKERS = 2
#: Faults of the sample a faultgen-adaptive campaign runs at benchmark
#: size: its ten short faults (329–795 Newton solves each in the
#: reference) and four long ones of about the same cost (2,192–2,618
#: solves, fault 68 undetected).  The sample's other long faults are left
#: out to keep a campaign short enough to repeat within a run; fault 32
#: alone is 22 % of the sample's solves.
FAULTGEN_FAULTS = (1, 3, 4, 9, 11, 13, 14, 15, 20, 26, 10, 40, 68, 141)
#: The long faults among them, which a campaign visits first: the short
#: ones then fill in behind them, so that the two workers finish within a
#: short fault of each other whatever the seed-drawn order.  In a random
#: order a long fault drawn last leaves one worker idle for most of its
#: run, and the pool's makespan swung with the order.
FAULTGEN_LONG = frozenset((10, 40, 68, 141))


@dataclass
class Inputs:
    """Everything one campaign run needs, as generated for one seed."""

    circuit: object
    #: The workload's fault set, in reference order.
    faults: object
    settings: object
    make_executor: Callable[[], object]
    seed: int = 0
    #: Whether each campaign writes a fresh checkpoint file.
    checkpoint: bool = False
    #: Counters of the setup phase (candidates, collapsed classes, ...).
    setup_counts: dict = field(default_factory=dict)
    #: Processes a campaign keeps busy at once (the pool width); a
    #: campaign in one process runs pinned to one vCPU (see ``speed``).
    busy_processes: int = 1
    #: Ids of the faults a campaign visits before all others; each group
    #: keeps its seed-drawn order.
    lead: frozenset = frozenset()

    def campaign_faults(self, campaign: int):
        """The fault set in the order campaign ``campaign`` of the run
        visits it."""
        from repro.lift import FaultList

        faults = list(self.faults)
        order = np.random.default_rng((self.seed, campaign)).permutation(
            len(faults))
        order = sorted(order, key=lambda i: faults[i].fault_id
                       not in self.lead)
        ordered = FaultList.from_faults([faults[i] for i in order],
                                        name=self.faults.name)
        ordered.metadata.update(self.faults.metadata)
        return ordered


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (``BENCHMARK.json`` says why it exists)."""

    name: str
    #: Reference file holding this workload's verdicts.
    verdicts: str
    #: Reference file holding this workload's deterministic counters.
    counters: str
    #: Detection-time tolerance of the verdict check [s] (0 = exact).
    time_tolerance: float
    #: ``build(seed, full=False)``: the inputs of one run; ``full`` selects
    #: the whole fault set the references cover (fig5: all 99 faults).
    build: Callable[..., Inputs]


def _vco_settings(**overrides):
    from repro.anafault import CampaignSettings, ToleranceSettings
    from repro.circuits import OUTPUT_NODE

    settings = CampaignSettings(
        tstop=4e-6, tstep=1e-8, use_ic=True,
        observation_nodes=(OUTPUT_NODE,),
        tolerances=ToleranceSettings(amplitude=2.0, time=0.2e-6))
    return replace(settings, **overrides)


def _fig5_faults(full: bool):
    from repro.cat import CATFlow
    from repro.circuits import build_vco_layout

    circuit, layout = build_vco_layout()
    faults = CATFlow(circuit, layout).extract_faults().realistic_faults
    counts = {"cat.faults": len(faults)}
    return circuit, (faults if full else faults.top(FIG5_FAULTS)), counts


def build_fig5_serial(seed: int, full: bool = False) -> Inputs:
    from repro.anafault import SerialExecutor

    circuit, faults, counts = _fig5_faults(full)
    return Inputs(circuit, faults, _vco_settings(), SerialExecutor, seed,
                  setup_counts=counts)


def build_fig5_batched(seed: int, full: bool = False) -> Inputs:
    from repro.anafault import BatchedExecutor

    circuit, faults, counts = _fig5_faults(full)
    return Inputs(circuit, faults, _vco_settings(),
                  lambda: BatchedExecutor(batch_width=8, early_abort=True),
                  seed, setup_counts=counts)


def faultgen_universe():
    """VCO layout -> extraction/LVS -> generated, collapsed fault list."""
    from repro.anafault import generate_fault_list
    from repro.circuits import build_vco_layout
    from repro.extract import compare, extract_netlist

    circuit, layout = build_vco_layout()
    extraction = extract_netlist(layout)
    lvs = compare(extraction.circuit, circuit)
    universe = generate_fault_list(layout, extraction, schematic=circuit,
                                   lvs=lvs)
    return circuit, universe


def build_faultgen_adaptive(seed: int, full: bool = False) -> Inputs:
    from repro.anafault import PoolExecutor, sample_faults
    from repro.lift import FaultList
    from repro.spice import TransientOptions

    circuit, universe = faultgen_universe()
    sample = sample_faults(universe, FAULTGEN_DRAWS,
                           seed=FAULTGEN_SAMPLE_SEED).fault_list
    settings = _vco_settings(timestep=TransientOptions(
        mode="adaptive", lte_reltol=3e-3, lte_abstol=1e-4, dt_max=8e-8))
    counts = {"faultgen.candidates": int(universe.metadata
                                         ["faultgen_candidates"]),
              "faultgen.collapsed": len(universe),
              "faultgen.sampled": len(sample)}
    faults = sample if full else FaultList.from_faults(
        [fault for fault in sample if fault.fault_id in FAULTGEN_FAULTS],
        name=sample.name, metadata=sample.metadata)
    return Inputs(circuit, faults, settings,
                  lambda: PoolExecutor(POOL_WORKERS), seed, checkpoint=True,
                  setup_counts=counts, busy_processes=POOL_WORKERS,
                  lead=FAULTGEN_LONG)


def build_inverter_chain(stages: int):
    """A pulse-driven chain of CMOS inverters with small load capacitors
    (the chain of ``benchmarks/bench_kernel_scaling.py``)."""
    from repro.circuits.models import add_default_models
    from repro.spice import Capacitor, Circuit, Mosfet, VoltageSource
    from repro.spice.devices import PulseShape

    circuit = Circuit(f"inverter chain ({stages} stages)")
    add_default_models(circuit)
    circuit.add(VoltageSource("VDD", "vdd", "0", 5.0))
    circuit.add(VoltageSource("VIN", "in", "0",
                              PulseShape(0.0, 5.0, 1e-8, 1e-9, 1e-9,
                                         1e-7, 2e-7)))
    previous = "in"
    for k in range(1, stages + 1):
        out = f"n{k}"
        circuit.add(Mosfet(f"MN{k}", out, previous, "0", "0", "nch",
                           w=10e-6, l=2e-6))
        circuit.add(Mosfet(f"MP{k}", out, previous, "vdd", "vdd", "pch",
                           w=20e-6, l=2e-6))
        circuit.add(Capacitor(f"C{k}", out, "0", 50e-15))
        previous = out
    return circuit


def chain_faults(circuit):
    """The fixed seeded sample of the chain's schematic fault list."""
    from repro.lift import FaultList, schematic_fault_list

    everything = list(schematic_fault_list(circuit))
    picks = np.random.default_rng(CHAIN_SAMPLE_SEED).choice(
        len(everything), size=CHAIN_FAULTS, replace=False)
    return FaultList.from_faults([everything[i] for i in sorted(picks)],
                                 name="inverter chain sample")


def build_chain_sparse(seed: int, full: bool = False) -> Inputs:
    from repro.anafault import (CampaignSettings, SerialExecutor,
                                ToleranceSettings)

    circuit = build_inverter_chain(CHAIN_STAGES)
    settings = CampaignSettings(
        tstop=2e-7, tstep=4e-9, use_ic=True,
        observation_nodes=(f"n{CHAIN_STAGES}",),
        tolerances=ToleranceSettings(amplitude=2.0, time=2e-8))
    return Inputs(circuit, chain_faults(circuit), settings, SerialExecutor,
                  seed)


WORKLOADS = {workload.name: workload for workload in (
    Workload("fig5-serial", "fig5-serial", "fig5-serial", 0.0,
             build_fig5_serial),
    # Verdicts are those of the serial path; early abort shortens the
    # simulated prefix, so the counters are the executor's own.
    Workload("fig5-batched", "fig5-serial", "fig5-batched", 0.0,
             build_fig5_batched),
    # Adaptive grids move detection times within the comparator's time
    # tolerance.
    Workload("faultgen-adaptive", "faultgen-adaptive", "faultgen-adaptive",
             0.2e-6, build_faultgen_adaptive),
    Workload("chain-sparse", "chain-sparse", "chain-sparse", 0.0,
             build_chain_sparse),
)}

ROOT = pathlib.Path(__file__).resolve().parent.parent
REFERENCES = pathlib.Path(__file__).resolve().parent / "references"
OUT = pathlib.Path(__file__).resolve().parent / "out"


def add_run_arguments(parser) -> None:
    """The arguments of one benchmark run (``run.py``, ``campaign.py``)."""
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)


def use_source_tree() -> None:
    """Import the library from the checkout's ``src`` (entry points call
    this before importing ``repro``)."""
    source = str(ROOT / "src")
    if source not in sys.path:
        sys.path.insert(0, source)
