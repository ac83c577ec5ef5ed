"""Lockstep (batched) transient simulation of fault variants.

A fault campaign simulates K mostly-identical circuits: each variant is
the nominal circuit with one device perturbed.  This module advances K
:class:`~repro.spice.analysis.transient.TransientRun` instances in
*rounds*, which enables the classic concurrent-fault-simulation wins of
Sebeke/Teixeira/Ohletz without changing per-variant semantics:

* **fused device evaluation** — in every round each live variant runs
  until it needs its next MOSFET stamp; one
  :meth:`~repro.spice.devices.mosfet.MosfetBank.stamp_iteration` pass
  over the fused banks then evaluates the MOSFETs of all waiting variants
  and scatters each slice into that variant's own system;
* **early abort** — an observer watching each print row as it lands can
  stop a variant as soon as its verdict is decided (the campaign layer
  plugs the incremental persistence scan in here);
* **eviction** — a variant that fails to converge is removed and
  reported, without perturbing its siblings (each variant owns its state,
  banks and solver cache).

Every variant performs exactly the arithmetic a serial
:meth:`TransientAnalysis.run` would — the fused pass is elementwise, and
the assembly, solve and step control stay per variant — so batched and
serial campaign records are identical by construction.
``docs/batching.md`` walks through the whole design.
"""

from __future__ import annotations

import numpy as np

from ...errors import (AnalysisError, ConvergenceError, SingularMatrixError)
from ..devices.mosfet import MosfetBank
from .transient import TransientRun


#: :meth:`BatchedTransient._resume` result of a variant that left the batch.
_LEFT = object()


class BatchedTransient:
    """Advance K fault-variant transients round by round.

    ``analyses`` are fully configured :class:`TransientAnalysis` instances
    (one per variant).  Each variant is driven through the generator
    :meth:`TransientRun.advancing`, which yields once per linear solve.
    A round resumes every live variant up to its next solve; variants that
    asked for a MOSFET stamp are then stamped in one fused pass.  So each
    round is exactly one linear solve per live variant, whatever its
    timestep mode, step size or Newton iteration — variants are not
    synchronised on print rows.  All variants must produce the same print
    grid (same ``tstop`` / ``tstep``), which a campaign guarantees by
    construction.

    After :meth:`run`, each variant ended in exactly one of three ways:
    a finished :class:`TransientRun` (in :attr:`runs`), an early abort
    (index in :attr:`aborted`, partial run still in :attr:`runs`), or an
    eviction (exception in :attr:`errors`, slot in :attr:`runs` is
    ``None``).  :attr:`rounds` counts the rounds, i.e. the fused device
    evaluations.
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
        #: Rounds driven by :meth:`run`: one linear solve per live variant
        #: and one fused MOSFET evaluation each.
        self.rounds = 0
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

    def run(self, observe=None) -> "BatchedTransient":
        """Drive every variant to completion, eviction, or early abort.

        ``observe(index, row)`` — when given — is called for every print
        row of variant ``index`` as soon as it lands, in row order and
        starting with row 0 (the initial state); a truthy return stops the
        variant before its next advance (recorded in :attr:`aborted`, its
        partial :class:`TransientRun` kept for statistics).  A variant
        raising :class:`ConvergenceError`/:class:`SingularMatrixError`
        (including the ``dt_min`` floor's ``TransientError``) is evicted
        into :attr:`errors`; any other exception propagates, as it would
        from a serial run.
        """
        if not self._begun:
            self.begin()
        # Live variant -> [suspended advance generator or None, next row
        # to observe].
        live: dict[int, list] = {}
        for index, run in enumerate(self.runs):
            if run is not None and not self._observe(index, 0, 1, observe):
                live[index] = [None, 1]
        fused_banks: tuple = ()
        fused = None
        while live:
            solved = False
            waiting = []
            for index in list(live):
                request = self._resume(index, live, observe)
                if request is _LEFT:
                    continue
                solved = True
                if request is not None:
                    waiting.append(request)
            if solved:
                self.rounds += 1
            if waiting:
                banks = tuple(bank for bank, _, _ in waiting)
                if banks != fused_banks:
                    # The waiting set only shrinks (a variant leaves), so
                    # a batch builds at most K fused layouts.
                    fused_banks, fused = banks, MosfetBank.fuse(banks)
                fused.stamp_iteration([system for _, system, _ in waiting],
                                      [state for _, _, state in waiting])
        return self

    def _resume(self, index: int, live: dict, observe):
        """Run variant ``index`` up to its next linear solve and return
        its MOSFET stamp request (``None`` when the solve needs none), or
        :data:`_LEFT` once the variant finished, aborted or was evicted."""
        run = self.runs[index]
        entry = live[index]
        while True:
            if entry[0] is None:
                entry[0] = run.advancing()
            try:
                return next(entry[0])
            except StopIteration as stop:
                more = stop.value
            except (ConvergenceError, SingularMatrixError) as exc:
                self.errors[index] = exc
                self.runs[index] = None
                del live[index]
                return _LEFT
            entry[0] = None
            landed = run.output_index
            if self._observe(index, entry[1], landed, observe):
                self.aborted.add(index)
                del live[index]
                return _LEFT
            entry[1] = landed
            if not more:
                del live[index]
                return _LEFT

    def _observe(self, index: int, first: int, stop: int, observe) -> bool:
        """Show rows ``first..stop-1`` of variant ``index``; True = abort."""
        if observe is None:
            return False
        for row in range(first, stop):
            if observe(index, row):
                return True
        return False
