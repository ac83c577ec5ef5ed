"""Analyses of the SPICE substrate.

All analyses assemble modified-nodal-analysis systems through
:class:`~repro.spice.analysis.mna.MNABuilder`; the linear-solver backend
(dense LAPACK vs sparse SuperLU) is pluggable and auto-selected by matrix
size — see :mod:`repro.spice.analysis.backends` and
``docs/solver-backends.md``.
"""

from .ac import ACAnalysis, ACResult
from .backends import (
    BACKEND_CHOICES,
    SPARSE_AUTO_THRESHOLD,
    DenseSolverBackend,
    SolverBackend,
    SparseMNASystem,
    SparseSolverBackend,
    select_backend,
    sparse_available,
)
from .batched import BatchedTransient
from .dc import (
    DCSweepAnalysis,
    DCSweepResult,
    OperatingPoint,
    OperatingPointAnalysis,
    solve_operating_point,
)
from .mna import MNABuilder, MNASystem, SimState, SimulationOptions
from .newton import solve_newton
from .transient import (
    TIMESTEP_MODES,
    TransientAnalysis,
    TransientOptions,
    TransientResult,
    TransientRun,
    quantize_step,
)

__all__ = [
    "ACAnalysis",
    "ACResult",
    "BatchedTransient",
    "BACKEND_CHOICES",
    "SPARSE_AUTO_THRESHOLD",
    "DenseSolverBackend",
    "SolverBackend",
    "SparseMNASystem",
    "SparseSolverBackend",
    "select_backend",
    "sparse_available",
    "DCSweepAnalysis",
    "DCSweepResult",
    "OperatingPoint",
    "OperatingPointAnalysis",
    "solve_operating_point",
    "MNABuilder",
    "MNASystem",
    "SimState",
    "SimulationOptions",
    "solve_newton",
    "TIMESTEP_MODES",
    "TransientAnalysis",
    "TransientOptions",
    "TransientResult",
    "TransientRun",
    "quantize_step",
]
