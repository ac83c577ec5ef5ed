"""Device base classes and shared stamping helpers.

Every device knows how to *stamp* itself into a modified-nodal-analysis (MNA)
system for the analysis modes supported by the simulator:

``stamp_constant(system, state)``
    Contributions that do not depend on the Newton iterate ``state.x`` and
    therefore stay fixed across all iterations of one solve (linear device
    stamps, time-dependent source values).  The default calls ``stamp``
    for linear devices.
``stamp_iteration(system, state)``
    Contributions that must be re-linearised around the present iterate
    (nonlinear device characteristics).
``stamp_ac(system, state)``
    Small-signal stamp used by the AC analysis.  Nonlinear devices use the
    conductances stored during the last operating-point stamp.

Companion capacitances announced through :meth:`Device.companion_entries`
are stamped once per solve by the builder's :class:`CompanionCapacitorBank`,
which also owns their history; MOSFET channels are stamped by the
builder's :class:`~repro.spice.devices.mosfet.MosfetBank`.

Node and branch matrix indices are resolved once per analysis by
:meth:`Device.bind` and :meth:`Device.assign_branches`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ...errors import NetlistError
from ..netlist import GROUND, normalize_node


class Device:
    """Base class of all circuit elements."""

    #: SPICE netlist prefix letter (``R``, ``C``, ``M`` ...).
    PREFIX = "?"
    #: Number of terminals; subclasses with a variable count override checks.
    NUM_TERMINALS: int | None = None
    def __init__(self, name: str, nodes: Sequence[str]):
        if not name:
            raise NetlistError("device name must not be empty")
        self.name = str(name)
        node_list = [normalize_node(n) for n in nodes]
        if self.NUM_TERMINALS is not None and len(node_list) != self.NUM_TERMINALS:
            raise NetlistError(
                f"{type(self).__name__} {name!r} needs {self.NUM_TERMINALS} "
                f"nodes, got {len(node_list)}")
        self.nodes: list[str] = node_list
        self._idx: list[int] = []
        self._branches: list[int] = []

    # ------------------------------------------------------------------
    # Topology helpers
    # ------------------------------------------------------------------
    def rename_node(self, old: str, new: str) -> int:
        """Rename terminal connections from ``old`` to ``new``; return count."""
        old = normalize_node(old)
        new = normalize_node(new)
        count = 0
        for position, node in enumerate(self.nodes):
            if node == old:
                self.nodes[position] = new
                count += 1
        return count

    # ------------------------------------------------------------------
    # Analysis plumbing
    # ------------------------------------------------------------------
    def prepare(self, circuit) -> None:
        """Resolve model cards and cache derived parameters.

        Called once per analysis before any stamping.  The default does
        nothing.
        """

    def branch_count(self) -> int:
        """Number of extra branch-current unknowns this device introduces."""
        return 0

    def is_nonlinear(self) -> bool:
        """True when the device requires Newton-Raphson iteration."""
        return False

    def bind(self, node_index: dict[str, int]) -> None:
        """Store the matrix row/column index of each terminal (-1 = ground)."""
        self._idx = [node_index.get(n, -1) if n != GROUND else -1
                     for n in self.nodes]

    def assign_branches(self, first: int) -> int:
        """Reserve branch-current rows starting at ``first``; return count."""
        count = self.branch_count()
        self._branches = list(range(first, first + count))
        return count

    @property
    def branch_index(self) -> int:
        """Index of the first (usually only) branch-current unknown."""
        if not self._branches:
            raise NetlistError(f"device {self.name!r} has no branch current")
        return self._branches[0]

    # ------------------------------------------------------------------
    # Dynamic state (transient history)
    # ------------------------------------------------------------------
    def init_state(self, state) -> None:
        """Initialise transient history from the initial solution."""

    def accept_timestep(self, state) -> None:
        """Commit the accepted solution of the current timestep to history."""

    # ------------------------------------------------------------------
    # Stamps
    # ------------------------------------------------------------------
    def stamp(self, system, state) -> None:
        raise NotImplementedError

    def stamp_constant(self, system, state) -> None:
        """Stamp the iteration-constant part (see module docstring).

        The default treats linear devices as fully constant and nonlinear
        devices as fully iterate-dependent.
        """
        if not self.is_nonlinear():
            self.stamp(system, state)

    def stamp_iteration(self, system, state) -> None:
        """Stamp the part that depends on the present Newton iterate."""
        if self.is_nonlinear():
            self.stamp(system, state)

    def companion_entries(self):
        """Yield ``(CompanionCapacitor, pos_index, neg_index)`` triples for
        the builder's vectorized capacitor bank.  Only valid after
        :meth:`bind`."""
        return ()

    def stamp_ac(self, system, state) -> None:
        """Default small-signal stamp: nothing (open circuit)."""

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}({self.name!r}, {self.nodes})"


def stamp_conductance(system, i: int, j: int, g: float) -> None:
    """Stamp a conductance ``g`` between matrix rows ``i`` and ``j``.

    Either index may be ``-1`` to denote the ground node.
    """
    system.add(i, i, g)
    system.add(j, j, g)
    system.add(i, j, -g)
    system.add(j, i, -g)


def stamp_current_source(system, i: int, j: int, current: float) -> None:
    """Stamp an independent current ``current`` flowing from node i to node j
    through the source (i.e. it is extracted from node i and injected into
    node j)."""
    system.add_rhs(i, -current)
    system.add_rhs(j, current)


def stamp_vccs(system, out_p: int, out_n: int, in_p: int, in_n: int,
               gm: float) -> None:
    """Stamp a voltage-controlled current source of transconductance ``gm``.

    The current ``gm * (v(in_p) - v(in_n))`` flows from ``out_p`` to
    ``out_n`` inside the device (it leaves node ``out_p``).
    """
    system.add(out_p, in_p, gm)
    system.add(out_p, in_n, -gm)
    system.add(out_n, in_p, -gm)
    system.add(out_n, in_n, gm)


class CompanionCapacitor:
    """A linear capacitance stamped via its companion model.

    Used both by the explicit :class:`~repro.spice.devices.passives.Capacitor`
    device and by the MOSFET terminal and diode junction capacitances.
    The object only describes the element — its capacitance and, for an
    explicit capacitor, the ``ic=`` initial voltage honoured under
    ``use_ic``; the transient companion stamp and its history belong to
    the builder's :class:`CompanionCapacitorBank`.
    """

    def __init__(self, capacitance: float,
                 initial_voltage: float | None = None):
        self.capacitance = float(capacitance)
        self.initial_voltage = initial_voltage

    def stamp_ac(self, system, state, pos: int, neg: int) -> None:
        if self.capacitance <= 0.0:
            return
        admittance = 1j * state.omega * self.capacitance
        stamp_conductance(system, pos, neg, admittance)


class CompanionCapacitorBank:
    """Transient companion model of every capacitance at once, and the
    owner of the companion history (``v_prev``/``i_prev``).

    The bank precomputes the scatter index map of all capacitor stamps
    (matrix entries ``(p,p)``, ``(n,n)``, ``(p,n)``, ``(n,p)`` and the two
    RHS entries, with ground terminals dropped).  Each Newton solve then
    fills the shared MNA system with two vectorized ``system.scatter``
    calls (dense: ``np.add.at``; sparse: one appended COO chunk) instead of
    hundreds of per-device Python calls.

    The companion model uses the integration coefficients published by
    the transient driver in the simulation state (``state.integ_c0``,
    ``state.integ_c1``).  For fixed-leading-coefficient BDF steps the
    driver additionally publishes the predictor solution/derivative
    vectors (``state.integ_pred_x`` / ``state.integ_pred_dx``); the
    equivalent current then comes from the predicted branch voltage and
    its derivative instead of the one-step ``v_prev``/``i_prev`` history,
    while ``geq`` stays ``integ_c0 * C`` — the matrix depends on the
    leading coefficient only, at every order.
    """

    def __init__(self, entries):
        entries = [(cap, pos, neg) for cap, pos, neg in entries
                   if cap.capacitance > 0.0]
        self.capacitance = np.array([cap.capacitance for cap, _, _ in entries])
        initial = [cap.initial_voltage for cap, _, _ in entries]
        self._has_ic = np.array([v is not None for v in initial], dtype=bool)
        self._ic = np.array([0.0 if v is None else float(v) for v in initial])
        m_rows: list[int] = []
        m_cols: list[int] = []
        m_cap: list[int] = []
        m_sign: list[float] = []
        r_rows: list[int] = []
        r_cap: list[int] = []
        r_sign: list[float] = []
        for k, (_cap, pos, neg) in enumerate(entries):
            for row, col, sign in ((pos, pos, 1.0), (neg, neg, 1.0),
                                   (pos, neg, -1.0), (neg, pos, -1.0)):
                if row >= 0 and col >= 0:
                    m_rows.append(row)
                    m_cols.append(col)
                    m_cap.append(k)
                    m_sign.append(sign)
            # Current source (pos, neg, ieq): extracted at pos, injected
            # at neg.
            if pos >= 0:
                r_rows.append(pos)
                r_cap.append(k)
                r_sign.append(-1.0)
            if neg >= 0:
                r_rows.append(neg)
                r_cap.append(k)
                r_sign.append(1.0)
        self._m_index = (np.asarray(m_rows, dtype=int),
                         np.asarray(m_cols, dtype=int))
        self._m_cap = np.asarray(m_cap, dtype=int)
        self._m_sign = np.asarray(m_sign)
        self._r_rows = np.asarray(r_rows, dtype=int)
        self._r_cap = np.asarray(r_cap, dtype=int)
        self._r_sign = np.asarray(r_sign)
        pos = np.asarray([p for _, p, _ in entries], dtype=int)
        neg = np.asarray([n for _, _, n in entries], dtype=int)
        self._pos_clipped = np.maximum(pos, 0)
        self._neg_clipped = np.maximum(neg, 0)
        self._pos_grounded = pos < 0
        self._neg_grounded = neg < 0
        #: Branch voltage and current of the last accepted timestep.
        self.v_prev = np.zeros(len(entries))
        self.i_prev = np.zeros(len(entries))

    def __len__(self) -> int:
        return len(self.capacitance)

    def init_state(self, state) -> None:
        """Start the history at the initial solution: each branch voltage
        (an ``ic=`` value instead under ``use_ic``), zero current."""
        v_initial = self._gather(state.x)
        if state.use_ic:
            v_initial = np.where(self._has_ic, self._ic, v_initial)
        self.v_prev = v_initial
        self.i_prev = np.zeros(len(self))

    def _ieq(self, state, geq: np.ndarray) -> np.ndarray:
        if state.integ_pred_x is not None:
            # BDF corrector: i = C*x' with x' = dpred + c0*(v - vpred).
            v_pred = self._gather(state.integ_pred_x)
            dv_pred = self._gather(state.integ_pred_dx)
            return self.capacitance * dv_pred - geq * v_pred
        return -(geq * self.v_prev + state.integ_c1 * self.i_prev)

    def stamp_tran(self, system, state) -> None:
        """Stamp every companion model: conductance ``geq`` between the
        terminals and the current ``ieq`` from pos to neg."""
        if not len(self):
            return
        geq = state.integ_c0 * self.capacitance
        ieq = self._ieq(state, geq)
        system.scatter(self._m_index[0], self._m_index[1],
                       self._m_sign * geq[self._m_cap])
        system.scatter_rhs(self._r_rows, self._r_sign * ieq[self._r_cap])

    def _gather(self, x: np.ndarray) -> np.ndarray:
        v_pos = np.where(self._pos_grounded, 0.0, x[self._pos_clipped])
        v_neg = np.where(self._neg_grounded, 0.0, x[self._neg_clipped])
        return v_pos - v_neg

    def accept(self, state) -> None:
        """Commit the accepted timestep to the history."""
        if not len(self):
            return
        geq = state.integ_c0 * self.capacitance
        ieq = self._ieq(state, geq)
        v_now = self._gather(state.x)
        self.i_prev = geq * v_now + ieq
        self.v_prev = v_now
