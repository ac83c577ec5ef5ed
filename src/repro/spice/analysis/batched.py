"""Lockstep (batched) transient simulation of fault variants.

A fault campaign simulates K mostly-identical circuits: each variant is
the nominal circuit with one device perturbed.  This module advances K
:class:`~repro.spice.analysis.transient.TransientRun` instances print
interval by print interval ("lockstep"), which enables the classic
concurrent-fault-simulation wins of Sebeke/Teixeira/Ohletz without
changing per-variant semantics:

* **early abort** — an observer watching the freshly produced print rows
  can stop a variant as soon as its verdict is decided (the campaign
  layer plugs the incremental persistence scan in here);
* **eviction** — a variant that fails to converge mid-batch is removed
  and reported, without perturbing its siblings (each variant owns its
  state and solver cache).

Every variant performs exactly the arithmetic a serial
:meth:`TransientAnalysis.run` would — lockstep only reorders *which
variant* computes next, never *what* it computes — so batched and serial
campaign records are identical by construction.
``docs/batching.md`` walks through the whole design.
"""

from __future__ import annotations

import numpy as np

from ...errors import (AnalysisError, ConvergenceError, SingularMatrixError)
from .transient import TransientRun


class BatchedTransient:
    """Advance K fault-variant transients in lockstep.

    ``analyses`` are fully configured :class:`TransientAnalysis` instances
    (one per variant).  Fixed-step variants advance exactly one print row
    per :meth:`TransientRun.advance`; adaptive variants integrate on their
    own step/order grid and may emit several print rows per advance, so
    the lockstep loop only advances a variant whose ``output_index`` still
    trails the shared print row.  All variants must produce the same print
    grid (same ``tstop`` / ``tstep``), which a campaign guarantees by
    construction.

    After :meth:`run`, each variant ended in exactly one of three ways:
    a finished :class:`TransientRun` (in :attr:`runs`), an early abort
    (index in :attr:`aborted`, partial run still in :attr:`runs`), or an
    eviction (exception in :attr:`errors`, slot in :attr:`runs` is
    ``None``).
    """

    def __init__(self, analyses):
        """Validate the batch; simulation starts at :meth:`begin`/:meth:`run`."""
        analyses = list(analyses)
        if not analyses:
            raise AnalysisError("a batched transient needs >= 1 variant")
        self.analyses = analyses
        #: Per-variant :class:`TransientRun` (``None`` once evicted).
        self.runs: list[TransientRun | None] = [None] * len(analyses)
        #: Variant index → the exception that evicted it.
        self.errors: dict[int, Exception] = {}
        #: Variant indices stopped early by the observer.
        self.aborted: set[int] = set()
        #: Shared print grid (after :meth:`begin`).
        self.times: np.ndarray | None = None
        self._begun = False

    @property
    def width(self) -> int:
        """Number of variants in the batch."""
        return len(self.analyses)

    def begin(self) -> "BatchedTransient":
        """Solve every variant's initial state.

        A variant whose initial solve diverges is evicted immediately
        (recorded in :attr:`errors`); its siblings are unaffected.
        """
        grid = None
        for index, analysis in enumerate(self.analyses):
            try:
                run = analysis.start()
            except (ConvergenceError, SingularMatrixError) as exc:
                self.errors[index] = exc
                continue
            if grid is None:
                grid = run.times
            elif not np.array_equal(run.times, grid):
                raise AnalysisError(
                    "batched variants must share one print grid "
                    f"(variant {index} disagrees)")
            self.runs[index] = run
        self.times = grid
        self._begun = True
        return self

    def _evict(self, index: int, error: Exception) -> None:
        self.errors[index] = error
        self.runs[index] = None

    def run(self, observe=None) -> "BatchedTransient":
        """Drive every variant to completion, eviction, or early abort.

        ``observe(print_index, live)`` — when given — is called after each
        print row lands (including row 0, the initial state), with the
        sorted list of live variant indices; any indices it returns are
        stopped early (recorded in :attr:`aborted`, their partial
        :class:`TransientRun` kept for statistics).  A variant raising
        :class:`ConvergenceError`/:class:`SingularMatrixError` mid-batch
        (including the ``dt_min`` floor's ``TransientError``) is evicted
        into :attr:`errors`; any other exception propagates, as it would
        from a serial run.
        """
        if not self._begun:
            self.begin()
        live = {index for index, run in enumerate(self.runs)
                if run is not None}
        if observe is not None and live:
            self._stop(live, observe(0, sorted(live)))
        print_index = 1
        while live:
            for index in sorted(live):
                # An adaptive variant may have emitted several print rows
                # in one advance; only poke it while it still trails the
                # shared print row (fixed variants always advance here).
                if self.runs[index].output_index > print_index:
                    continue
                try:
                    self.runs[index].advance()
                except (ConvergenceError, SingularMatrixError) as exc:
                    self._evict(index, exc)
                    live.discard(index)
            if observe is not None and live:
                self._stop(live, observe(print_index, sorted(live)))
            # An exhausted adaptive variant may still hold print rows the
            # observer has not been shown (one advance can emit many rows
            # ahead of the lockstep cursor); keep it live — idle but
            # observed — until the cursor has swept its whole grid.
            grid_done = print_index + 1 >= len(self.times)
            live = {index for index in live
                    if not (self.runs[index].exhausted and grid_done)}
            print_index += 1
        return self

    def _stop(self, live: set, stops) -> None:
        for index in set(stops or ()):
            if index in live:
                live.discard(index)
                self.aborted.add(index)
