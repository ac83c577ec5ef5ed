"""Newton-Raphson solution of the nonlinear MNA system.

The iteration is a generator (:func:`newton`) that yields once per linear
solve, at the point where the MOSFET bank must be stamped.  The driver
decides how: :func:`drive` stamps each bank on its own (K = 1, every
serial analysis), while the batched transient driver
(:class:`~repro.spice.analysis.batched.BatchedTransient`) stamps the banks
of all waiting fault variants in one fused pass.  Everything else — the
assembly around the stamp, the solve, damping and the convergence test —
is the same code for both.
"""

from __future__ import annotations

import numpy as np

from ...errors import ConvergenceError, SingularMatrixError
from .mna import MNABuilder, SimState


def newton(builder: MNABuilder, state: SimState,
           x0: np.ndarray | None = None,
           max_iterations: int | None = None):
    """Iterate the linearised MNA system to convergence, as a generator.

    The iteration-constant part of the system (linear devices, sources at
    the present time, companion history) is assembled once per call through
    :meth:`MNABuilder.assemble_constant`; each iteration copies that base
    and then yields ``(bank, system, state)``: the driver must stamp the
    MOSFET ``bank`` into ``system`` around ``state.x`` before resuming the
    generator, which then stamps the remaining nonlinear devices and
    solves.  An iteration without a MOSFET bank — and the single solve of
    a fully linear circuit — yields ``None`` instead.  Every linear solve
    goes through the builder's solver backend (dense LAPACK or sparse
    SuperLU, see :mod:`repro.spice.analysis.backends`).

    Parameters
    ----------
    builder:
        Bound circuit.
    state:
        Simulation state; ``state.x`` is updated in place with each iterate
        and holds the converged solution on return.
        ``state.last_newton_iterations`` reports the number of iterations
        spent (1 for the linear bypass).
    x0:
        Initial guess (defaults to the current ``state.x``).
    max_iterations:
        Iteration limit (defaults to ``options.itl1``).

    Returns (as the generator's value) the converged solution.

    Raises
    ------
    ConvergenceError
        If the iteration limit is exceeded.
    SingularMatrixError
        If the matrix cannot be factorised at the first iteration.
    """
    options = builder.options
    limit = max_iterations if max_iterations is not None else options.itl1
    if x0 is not None:
        state.x = np.array(x0, dtype=float, copy=True)
    bank = builder.mosfet_bank
    num_nodes = builder.num_nodes

    base = builder.assemble_constant(state)

    if builder.is_linear:
        # Linear bypass: the system does not depend on the iterate, so a
        # single direct solve is already the fixed point of the iteration.
        yield None
        state.limited = False
        state.x = base.solve()
        state.last_newton_iterations = 1
        return state.x

    previous = state.x.copy()
    for iteration in range(1, limit + 1):
        system = builder.iteration_system(state)
        yield None if bank is None else (bank, system, state)
        builder.stamp_scalar_nonlinear(system, state)
        try:
            solution = system.solve()
        except SingularMatrixError:
            if iteration == 1:
                raise
            # A transiently singular linearisation: fall back to a damped
            # retry from the previous iterate.
            state.x = 0.5 * (state.x + previous)
            continue

        delta = solution - state.x
        # Damp excessive node-voltage excursions to keep the device
        # linearisations in a sane region.
        max_step = options.max_voltage_step
        if max_step > 0.0 and num_nodes > 0:
            worst = np.max(np.abs(delta[:num_nodes])) if num_nodes else 0.0
            if worst > max_step:
                delta *= max_step / worst
                solution = state.x + delta

        tolerance = np.empty_like(solution)
        reference = np.maximum(np.abs(solution), np.abs(state.x))
        tolerance[:num_nodes] = (options.reltol * reference[:num_nodes]
                                 + options.vntol)
        tolerance[num_nodes:] = (options.reltol * reference[num_nodes:]
                                 + options.abstol)
        converged = (bool(np.all(np.abs(delta) <= tolerance))
                     and not state.limited)

        previous = state.x.copy()
        state.x = solution

        if converged and iteration > 1:
            state.last_newton_iterations = iteration
            return state.x

    state.last_newton_iterations = limit
    worst_index = int(np.argmax(np.abs(state.x - previous)))
    worst_node = None
    if worst_index < num_nodes:
        worst_node = builder.node_names[worst_index]
    raise ConvergenceError(
        f"Newton iteration did not converge in {limit} iterations "
        f"(mode={state.mode}, time={state.time:g})",
        iterations=limit, worst_node=worst_node)


def drive(steps):
    """Run a solve generator (:func:`newton` or anything built on it with
    ``yield from``) to completion with K = 1: each requested bank stamp is
    a pass over that bank alone.  Returns the generator's value."""
    try:
        request = next(steps)
        while True:
            if request is not None:
                bank, system, state = request
                bank.stamp_iteration((system,), (state,))
            request = next(steps)
    except StopIteration as stop:
        return stop.value


def solve_newton(builder: MNABuilder, state: SimState,
                 x0: np.ndarray | None = None,
                 max_iterations: int | None = None) -> np.ndarray:
    """:func:`newton` driven to completion with K = 1; returns the
    converged solution (see :func:`newton` for arguments and errors)."""
    return drive(newton(builder, state, x0, max_iterations))
