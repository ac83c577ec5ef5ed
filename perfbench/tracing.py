"""In-memory span tracer that wraps the library's public functions.

``Tracer.install()`` replaces each traced function or method with a
wrapper that records one span per call — name, start, end, parent span
and trace id (the fault being simulated, -1 outside a fault) — and
``uninstall()`` restores the originals.  Self time (duration minus the
time covered by child spans) is accumulated per span name as calls end,
so the per-layer totals need no post-processing; the raw spans stay in
memory and are written out once, by :meth:`Tracer.dump`.

Only the benchmark process is traced: forked pool workers inherit the
wrappers but skip recording (the wrapper checks the process id).
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from array import array
from typing import NamedTuple


class Span(NamedTuple):
    """One traced span name."""

    #: (module path, attribute path) of every function the span wraps.
    targets: tuple
    #: Per-layer metric of the span's self time; a campaign span without
    #: one only gives the trace its structure, and its self time counts as
    #: ``anafault.other_s``.
    metric: str | None = None
    #: Whether the span runs while the workload is set up (its metric is
    #: the set-up total) rather than inside campaigns (a per-campaign mean).
    setup: bool = False


#: Span of a call into a frozen (pre-factorised) solver; the
#: ``freeze_solver`` call itself is the factorisation.
FROZEN_SOLVE = "spice.backends.lu_solve"

#: Metric of every solver span: factorisations and solves together.
SOLVE = "spice.backends.solve_s"

#: Every traced span: the functions it wraps and the metric it feeds.
SPANS = {
    "anafault.run": Span((("repro.anafault.simulator",
                           "FaultSimulator.run"),)),
    "anafault.plan": Span((("repro.anafault.simulator",
                            "FaultSimulator.plan"),), "anafault.plan_s"),
    "anafault.nominal": Span((("repro.anafault.simulator",
                               "FaultSimulator.run_nominal"),)),
    "anafault.fault": Span((("repro.anafault.simulator",
                             "FaultSimulator.simulate_fault"),)),
    "anafault.inject": Span((("repro.anafault.injection",
                              "FaultInjector.inject"),), "anafault.inject_s"),
    "anafault.compare": Span((("repro.anafault.comparator",
                               "WaveformComparator.compare_many"),),
                             "anafault.compare_s"),
    "anafault.detector_feed": Span((("repro.anafault.comparator",
                                     "StreamingDetector.feed"),),
                                   "anafault.detector_feed_s"),
    "anafault.checkpoint_append": Span((("repro.anafault.checkpoint",
                                         "CampaignCheckpoint.append"),),
                                       "anafault.checkpoint_append_s"),
    "lint.preflight": Span((("repro.lint", "preflight_campaign"),),
                           "lint.preflight_s"),
    "spice.transient": Span((
        ("repro.spice.analysis.transient", "TransientAnalysis.run"),
        ("repro.spice.analysis.batched", "BatchedTransient.run")),
        "spice.transient_self_s"),
    "spice.mna.assemble": Span((("repro.spice.analysis.mna",
                                 "MNABuilder.assemble_constant"),),
                               "spice.mna.assemble_s"),
    "spice.mna.build_iteration": Span((("repro.spice.analysis.mna",
                                        "MNABuilder.build_iteration"),),
                                      "spice.mna.build_iteration_s"),
    "spice.devices.mosfet_stamp": Span((("repro.spice.devices.mosfet",
                                         "MosfetBank.stamp_iteration"),),
                                       "spice.devices.mosfet_stamp_s"),
    "spice.backends.solve": Span((
        ("repro.spice.analysis.backends", "MNASystem.solve"),
        ("repro.spice.analysis.backends", "SparseMNASystem.solve")), SOLVE),
    "spice.backends.factorize": Span((
        ("repro.spice.analysis.backends", "MNASystem.freeze_solver"),
        ("repro.spice.analysis.backends", "SparseMNASystem.freeze_solver")),
        SOLVE),
    # Wrapped by the ``spice.backends.factorize`` wrapper, not installed.
    FROZEN_SOLVE: Span((), SOLVE),
    "circuits.build": Span((("repro.circuits", "build_vco_layout"),
                            ("workloads", "build_inverter_chain")),
                           "circuits.build_s", True),
    "cat.extract": Span((("repro.cat", "CATFlow.extract_faults"),),
                        "cat.extract_s", True),
    "extract.netlist": Span((("repro.extract", "extract_netlist"),
                             ("repro.cat.flow", "extract_netlist")),
                            "extract.netlist_s", True),
    "faultgen.generate": Span((("repro.anafault", "generate_fault_list"),),
                              "faultgen.generate_s", True),
    "faultgen.sample": Span((("repro.anafault", "sample_faults"),),
                            "faultgen.sample_s", True),
    "lift.schematic_faults": Span((("repro.lift", "schematic_fault_list"),
                                   ("repro.cat.flow",
                                    "schematic_fault_list")),
                                  "lift.schematic_faults_s", True),
}


def span_metrics(setup: bool) -> dict[str, str]:
    """Span -> metric of the set-up spans or of the campaign spans."""
    return {name: span.metric for name, span in SPANS.items()
            if span.metric is not None and span.setup == setup}


class Tracer:
    """Span recorder with per-name self-time totals."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._index: dict[str, int] = {}
        self.name_col = array("i")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self.trace_col = array("i")
        self._stack: list[int] = []
        self._covered: list[float] = []
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.trace_id = -1
        self.enabled = False
        self._pid = os.getpid()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _name_index(self, name: str) -> int:
        index = self._index.get(name)
        if index is None:
            index = self._index[name] = len(self.names)
            self.names.append(name)
            self.self_time[name] = 0.0
            self.calls[name] = 0
        return index

    def call(self, name: str, function, args, kwargs):
        """Run ``function`` inside a span named ``name``."""
        if not self.enabled or os.getpid() != self._pid:
            return function(*args, **kwargs)
        span = len(self.start_col)
        self.name_col.append(self._name_index(name))
        self.parent_col.append(self._stack[-1] if self._stack else -1)
        self.trace_col.append(self.trace_id)
        self.end_col.append(0.0)
        self._stack.append(span)
        self._covered.append(0.0)
        start = time.perf_counter()
        self.start_col.append(start)
        try:
            return function(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self.end_col[span] = end
            self._stack.pop()
            duration = end - start
            self.self_time[name] += duration - self._covered.pop()
            self.calls[name] += 1
            if self._covered:
                self._covered[-1] += duration

    def span_durations(self, name: str) -> list[float]:
        """Durations [s] of every recorded span called ``name``."""
        index = self._index.get(name)
        if index is None:
            return []
        return [self.end_col[i] - self.start_col[i]
                for i, n in enumerate(self.name_col) if n == index]

    def reset_totals(self) -> None:
        """Zero the per-name totals (the raw spans are kept)."""
        for name in self.self_time:
            self.self_time[name] = 0.0
        for name in self.calls:
            self.calls[name] = 0

    # -- patching ----------------------------------------------------------
    def _wrap(self, name: str, function):
        tracer = self

        if name == "anafault.fault":
            @functools.wraps(function)
            def traced_fault(simulator, fault, *args, **kwargs):
                previous, tracer.trace_id = tracer.trace_id, fault.fault_id
                try:
                    return tracer.call(name, function,
                                       (simulator, fault) + args, kwargs)
                finally:
                    tracer.trace_id = previous
            return traced_fault

        if name == "spice.backends.factorize":
            @functools.wraps(function)
            def traced_freeze(*args, **kwargs):
                solve = tracer.call(name, function, args, kwargs)

                def traced_solve(rhs):
                    return tracer.call(FROZEN_SOLVE, solve, (rhs,), {})
                return traced_solve
            return traced_freeze

        @functools.wraps(function)
        def traced(*args, **kwargs):
            return tracer.call(name, function, args, kwargs)
        return traced

    def install(self) -> None:
        """Wrap every function of :data:`SPANS` and start recording."""
        for name, span in SPANS.items():
            for module_name, attribute in span.targets:
                owner = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                self._saved.append((owner, leaf, original))
                setattr(owner, leaf, self._wrap(name, original))
        self.enabled = True

    def uninstall(self) -> None:
        """Restore every wrapped function and stop recording."""
        for owner, leaf, original in reversed(self._saved):
            setattr(owner, leaf, original)
        self._saved.clear()
        self.enabled = False

    # -- output ------------------------------------------------------------
    def dump(self, path) -> None:
        """Write the raw spans as one JSON document of columns."""
        document = {"names": self.names,
                    "name": list(self.name_col),
                    "start": list(self.start_col),
                    "end": list(self.end_col),
                    "parent": list(self.parent_col),
                    "trace": list(self.trace_col)}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
