"""Level-1 (Shichman-Hodges) MOSFET model.

The model covers cutoff / linear / saturation operation, body effect,
channel-length modulation and fixed terminal capacitances (gate overlap,
gate oxide and junction capacitances).  It is the workhorse device for the
VCO test case of the paper.

The physics has one implementation, the struct-of-arrays
:class:`MosfetBank`; a :class:`Mosfet` object describes one device and
reads its linearisation back from the bank of the analysis that bound it.
"""

from __future__ import annotations

import numpy as np

from ...errors import ModelError
from ...units import EPS0, EPS_SIO2, parse_value
from .base import CompanionCapacitor, Device
from .limits import fetlim, limvds

#: Default model parameters for the level-1 model (SPICE defaults).
DEFAULT_MOS_PARAMS = {
    "vto": 0.8,
    "kp": 2.0e-5,
    "gamma": 0.4,
    "phi": 0.65,
    "lambda": 0.02,
    "tox": 2.5e-8,
    "cgso": 2.0e-10,   # F/m of gate width
    "cgdo": 2.0e-10,
    "cgbo": 0.0,
    "cj": 3.0e-4,      # F/m^2 of junction area
    "cjsw": 2.5e-10,   # F/m of junction perimeter
    "is": 1e-14,
}

#: Keys of a linearisation record, in :attr:`MosfetBank.op` order.
OP_KEYS = ("ids", "gm", "gds", "gmbs", "vgs", "vds", "vbs", "reverse")

#: Linearisation record of a device that has not been stamped yet.
_UNSTAMPED_OP = dict.fromkeys(OP_KEYS[:-1], 0.0) | {"reverse": False}


class Mosfet(Device):
    """MOSFET ``M<name> drain gate source bulk model W=... L=...``.

    Geometry parameters ``w`` and ``l`` are in metres, ``ad``/``as_`` in
    square metres and ``pd``/``ps`` in metres, following SPICE conventions.

    The channel is evaluated by the :class:`MosfetBank` of the analysis
    that bound the device, which also owns its Newton limiting history and
    its last linearisation; the device keeps a reference to that bank for
    AC stamping and operating-point reporting (the bank holds none back).
    """

    PREFIX = "M"
    NUM_TERMINALS = 4

    #: Bank of the analysis that last bound this device, and the device's
    #: slot in it (``None`` until an analysis builds one).
    _bank: "MosfetBank | None" = None
    _slot = 0

    def __init__(self, name, drain, gate, source, bulk, model: str,
                 w=10e-6, l=2e-6, ad=0.0, as_=0.0, pd=0.0, ps=0.0,
                 m: float = 1.0):
        super().__init__(name, [drain, gate, source, bulk])
        self.model_name = str(model)
        self.w = parse_value(w)
        self.l = parse_value(l)
        self.ad = parse_value(ad)
        self.as_ = parse_value(as_)
        self.pd = parse_value(pd)
        self.ps = parse_value(ps)
        self.multiplier = parse_value(m)
        # Resolved model parameters (filled in by prepare()).
        self.polarity = 1.0
        self.params = dict(DEFAULT_MOS_PARAMS)
        self._caps: dict[str, CompanionCapacitor] = {}

    def __getstate__(self):
        # The bank belongs to the analysis that bound this device: copies
        # and pickles of a circuit start unbound.
        state = self.__dict__.copy()
        state.pop("_bank", None)
        state.pop("_slot", None)
        return state

    # ------------------------------------------------------------------
    # Preparation
    # ------------------------------------------------------------------
    def is_nonlinear(self) -> bool:
        return True

    def prepare(self, circuit) -> None:
        model = circuit.model(self.model_name)
        if model.kind not in ("nmos", "pmos"):
            raise ModelError(
                f"device {self.name!r}: model {self.model_name!r} is of kind "
                f"{model.kind!r}, expected nmos/pmos")
        self.polarity = 1.0 if model.kind == "nmos" else -1.0
        params = dict(DEFAULT_MOS_PARAMS)
        params.update(model.params)
        self.params = params
        self._build_capacitances()

    def _build_capacitances(self) -> None:
        p = self.params
        cox = EPS0 * EPS_SIO2 / float(p["tox"])
        area = self.w * self.l
        cgs = float(p["cgso"]) * self.w + 0.5 * cox * area
        cgd = float(p["cgdo"]) * self.w + 0.5 * cox * area
        cgb = float(p["cgbo"]) * self.l
        cdb = float(p["cj"]) * self.ad + float(p["cjsw"]) * self.pd
        csb = float(p["cj"]) * self.as_ + float(p["cjsw"]) * self.ps
        scale = self.multiplier
        self._caps = {
            "gs": CompanionCapacitor(cgs * scale),
            "gd": CompanionCapacitor(cgd * scale),
            "gb": CompanionCapacitor(cgb * scale),
            "db": CompanionCapacitor(cdb * scale),
            "sb": CompanionCapacitor(csb * scale),
        }

    def _cap_nodes(self, key: str) -> tuple[int, int]:
        d, g, s, b = self._idx
        mapping = {"gs": (g, s), "gd": (g, d), "gb": (g, b),
                   "db": (d, b), "sb": (s, b)}
        return mapping[key]

    def companion_entries(self):
        for key, cap in self._caps.items():
            pos, neg = self._cap_nodes(key)
            yield cap, pos, neg

    # ------------------------------------------------------------------
    # Small-signal stamp and reporting (read from the bank)
    # ------------------------------------------------------------------
    def stamp_ac(self, system, state) -> None:
        d, g, s, b = self._idx
        op = self.operating_point
        e_d, e_s = (s, d) if op["reverse"] else (d, s)
        gm, gds, gmbs = op["gm"], op["gds"] + state.gmin, op["gmbs"]
        system.add(e_d, g, gm)
        system.add(e_d, e_d, gds)
        system.add(e_d, e_s, -(gm + gds + gmbs))
        system.add(e_d, b, gmbs)
        system.add(e_s, g, -gm)
        system.add(e_s, e_d, -gds)
        system.add(e_s, e_s, gm + gds + gmbs)
        system.add(e_s, b, -gmbs)
        for key, cap in self._caps.items():
            pos, neg = self._cap_nodes(key)
            cap.stamp_ac(system, state, pos, neg)

    @property
    def operating_point(self) -> dict:
        """Last linearisation values (ids, gm, gds, gmbs ...)."""
        if self._bank is None:
            return dict(_UNSTAMPED_OP)
        return self._bank.operating_point(self._slot)

    def drain_current(self, state) -> float:
        """Drain current at the present solution (positive into the drain for
        an NMOS in normal operation); needs a bound device."""
        if self._bank is None:
            raise ModelError(f"device {self.name!r} is not bound to an "
                             "analysis")
        return float(self._bank.drain_currents(state.x)[self._slot])


class MosfetBank:
    """Level-1 MOSFET physics in struct-of-arrays form, and the owner of
    every MOSFET's Newton state.

    An :class:`~repro.spice.analysis.mna.MNABuilder` makes one bank over
    the MOSFETs of its circuit.  The bank precomputes the stamp index map
    of every channel stamp (the eight matrix slots ``{d,s} x {g,d,s,b}``
    and the two RHS entries per device, ground terminals dropped); each
    Newton iteration then gathers the terminal voltages, evaluates the
    Shichman-Hodges equations and the SPICE limiting functions in array
    form, and fills the system with two ``system.scatter`` calls.  The
    limiting history (:attr:`vgs_last`/:attr:`vds_last`) and the last
    linearisation (:attr:`op`) live here and nowhere else.

    :meth:`fuse` concatenates the banks of several fault variants into one
    bank whose :meth:`stamp_iteration` evaluates all of them in a single
    pass and scatters each member's slice into that member's own system.
    Every operation is elementwise, so each device sees the same
    floating-point operations in the same order as in a pass over its own
    bank alone: fused and per-variant stamps are bit-identical.
    """

    def __init__(self, mosfets, size: int):
        """Bank over ``mosfets`` (bound, prepared) of a system with
        ``size`` unknowns; each device is pointed at its slot."""
        mosfets = list(mosfets)
        count = len(mosfets)
        self.count = count
        self.size = int(size)
        idx = np.array([m._idx for m in mosfets], dtype=int).reshape(count, 4)
        self._gather_clip = np.maximum(idx, 0)
        self._gather_ground = idx < 0
        d, g, s, b = idx.T
        self.pol = np.array([m.polarity for m in mosfets])

        def param(key):
            return np.array([float(m.params[key]) for m in mosfets])

        self.beta = np.array([float(m.params["kp"]) * m.multiplier * m.w / m.l
                              for m in mosfets])
        self.lam = param("lambda")
        self.vto = np.abs(param("vto"))
        self.gamma = param("gamma")
        self.phi = np.maximum(param("phi"), 0.1)
        self.sqrt_phi = np.sqrt(self.phi)
        #: Newton limiting history (evaluation-frame vgs/vds of the last
        #: stamp); :meth:`reset` zeroes it.
        self.vgs_last = np.zeros(count)
        self.vds_last = np.zeros(count)
        #: Last linearisation: ``(arrays, start)`` where ``arrays`` are the
        #: :data:`OP_KEYS` arrays of the (possibly fused) pass that stamped
        #: this bank and ``start`` is this bank's first element in them.
        self.op: tuple | None = None

        # Matrix scatter map: slot k of device i contributes value V[k, i]
        # at (rows[k][i], cols[k][i]); ground entries are dropped up front.
        slot_rows = (d, d, d, d, s, s, s, s)
        slot_cols = (g, d, s, b, g, d, s, b)
        m_rows, m_cols, m_slot, m_dev = [], [], [], []
        for slot, (rows, cols) in enumerate(zip(slot_rows, slot_cols)):
            for dev in range(count):
                if rows[dev] >= 0 and cols[dev] >= 0:
                    m_rows.append(rows[dev])
                    m_cols.append(cols[dev])
                    m_slot.append(slot)
                    m_dev.append(dev)
        self._m_index = (np.asarray(m_rows, dtype=int),
                         np.asarray(m_cols, dtype=int))
        self._m_slot = np.asarray(m_slot, dtype=int)
        self._m_dev = np.asarray(m_dev, dtype=int)
        r_rows, r_slot, r_dev = [], [], []
        for slot, rows in enumerate((d, s)):
            for dev in range(count):
                if rows[dev] >= 0:
                    r_rows.append(rows[dev])
                    r_slot.append(slot)
                    r_dev.append(dev)
        self._r_rows = np.asarray(r_rows, dtype=int)
        self._r_slot = np.asarray(r_slot, dtype=int)
        self._r_dev = np.asarray(r_dev, dtype=int)
        self._layout((self,))
        for slot, mosfet in enumerate(mosfets):
            mosfet._bank = self
            mosfet._slot = slot

    def _layout(self, members) -> None:
        """Gather maps of a pass over ``members``: where each member's
        devices, matrix values and RHS values sit in the pass's arrays."""
        total = sum(member.count for member in members)
        starts = np.cumsum([0] + [member.count for member in members]).tolist()
        #: Member banks of a pass; a bank made by the constructor is its
        #: own single member.  A bank holds its members only when fused,
        #: so no bank references itself.
        self._members = None if members == (self,) else members
        self._starts = starts
        self._m_gather = np.concatenate([
            member._m_slot * total + start + member._m_dev
            for member, start in zip(members, starts)])
        self._r_gather = np.concatenate([
            member._r_slot * total + start + member._r_dev
            for member, start in zip(members, starts)])
        self._m_bounds = np.cumsum(
            [0] + [len(member._m_dev) for member in members]).tolist()
        self._r_bounds = np.cumsum(
            [0] + [len(member._r_dev) for member in members]).tolist()

    @classmethod
    def fuse(cls, banks) -> "MosfetBank":
        """One bank evaluating every bank of ``banks`` in a single pass.

        The members may differ in device count, unknowns and parameters.
        The fused bank holds its members; they hold nothing of it.
        """
        banks = tuple(banks)
        if len(banks) == 1:
            return banks[0]
        fused = cls.__new__(cls)
        fused.count = sum(bank.count for bank in banks)
        # Unknown offsets: member k's voltages follow those of members < k
        # in the concatenated solution vector.
        offsets = np.cumsum([0] + [bank.size for bank in banks])
        fused._gather_clip = np.concatenate([
            bank._gather_clip + offset for bank, offset in zip(banks, offsets)])
        fused._gather_ground = np.concatenate(
            [bank._gather_ground for bank in banks])
        for name in ("pol", "beta", "lam", "vto", "gamma", "phi",
                     "sqrt_phi"):
            setattr(fused, name,
                    np.concatenate([getattr(bank, name) for bank in banks]))
        fused._layout(banks)
        return fused

    def __len__(self) -> int:
        return self.count

    def reset(self) -> None:
        """Forget the limiting history (start of a transient run)."""
        self.vgs_last = np.zeros(self.count)
        self.vds_last = np.zeros(self.count)

    # ------------------------------------------------------------------
    def operating_point(self, slot: int) -> dict:
        """Last linearisation of device ``slot`` as a dict of floats."""
        if self.op is None:
            return dict(_UNSTAMPED_OP)
        arrays, start = self.op
        values = [array[start + slot] for array in arrays]
        record = {key: float(value)
                  for key, value in zip(OP_KEYS[:-1], values)}
        record["reverse"] = bool(values[-1])
        return record

    def drain_currents(self, x: np.ndarray) -> np.ndarray:
        """Drain current of every device at the solution ``x`` (positive
        into the drain for an NMOS in normal operation; no limiting)."""
        vgs, vds, vbs, reverse = self._frame(x)
        von, dvon = self._threshold(vbs)
        ids = self._drain_current(vgs, vds, von, dvon)[0]
        return np.where(reverse, -self.pol * ids, self.pol * ids)

    # ------------------------------------------------------------------
    def _frame(self, x: np.ndarray):
        """Evaluation-frame ``(vgs, vds, vbs, reverse)`` at ``x``: drain
        and source exchange roles where the channel is reversed."""
        voltages = np.where(self._gather_ground, 0.0, x[self._gather_clip])
        vd, vg, vs, vb = voltages.T
        pol = self.pol
        vds = pol * (vd - vs)
        reverse = vds < 0.0
        v_ref = np.where(reverse, vd, vs)
        vds_f = np.where(reverse, -vds, vds)
        vgs_f = pol * (vg - v_ref)
        vbs_f = pol * (vb - v_ref)
        return vgs_f, vds_f, vbs_f, reverse

    def _threshold(self, vbs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Threshold ``von`` and ``dvon/dvbs`` including body effect."""
        negative = vbs <= 0.0
        # Clamps keep the unused lane of each where() free of sqrt/division
        # warnings; the selected lane is untouched.
        sqrt_term_n = np.sqrt(np.maximum(self.phi - vbs, 1e-300))
        von_n = self.vto + self.gamma * (sqrt_term_n - self.sqrt_phi)
        dvon_n = -self.gamma / (2.0 * sqrt_term_n)
        denom = np.where(negative, 1.0, 1.0 + vbs / (2.0 * self.phi))
        sqrt_term_p = self.sqrt_phi / denom
        von_p = self.vto + self.gamma * (sqrt_term_p - self.sqrt_phi)
        dvon_p = -self.gamma * self.sqrt_phi / (2.0 * self.phi * denom * denom)
        von = np.where(negative, von_n, von_p)
        dvon = np.where(negative, dvon_n, dvon_p)
        no_body = self.gamma == 0.0
        return np.where(no_body, self.vto, von), np.where(no_body, 0.0, dvon)

    def _drain_current(self, vgs, vds, von, dvon):
        """``(ids, gm, gds, gmbs)`` for ``vds >= 0`` in the evaluation
        frame: cutoff, saturation or linear (triode) region."""
        vgst = vgs - von
        clm = 1.0 + self.lam * vds
        saturated = vgst <= vds
        ids_sat = 0.5 * self.beta * vgst * vgst * clm
        gm_sat = self.beta * vgst * clm
        gds_sat = 0.5 * self.beta * vgst * vgst * self.lam
        ids_tri = self.beta * (vgst - 0.5 * vds) * vds * clm
        gm_tri = self.beta * vds * clm
        gds_tri = (self.beta * (vgst - vds) * clm
                   + self.beta * (vgst - 0.5 * vds) * vds * self.lam)
        cutoff = vgst <= 0.0
        ids = np.where(cutoff, 0.0, np.where(saturated, ids_sat, ids_tri))
        gm = np.where(cutoff, 0.0, np.where(saturated, gm_sat, gm_tri))
        gds = np.where(cutoff, 0.0, np.where(saturated, gds_sat, gds_tri))
        gmbs = -gm * dvon
        return ids, gm, gds, gmbs

    def stamp_iteration(self, systems, states) -> None:
        """Stamp every member's channel linearisations around its
        ``state.x`` into its system.

        ``systems`` and ``states`` hold one entry per member, in member
        order.  Each member's limiting flag (``state.limited``), history
        and linearisation come from its own slice of the pass only.
        """
        members = self._members or (self,)
        if len(members) == 1:
            x = states[0].x
            vgs_last, vds_last = self.vgs_last, self.vds_last
            gmin = states[0].gmin
        else:
            x = np.concatenate([state.x for state in states])
            vgs_last = np.concatenate([member.vgs_last for member in members])
            vds_last = np.concatenate([member.vds_last for member in members])
            gmins = [state.gmin for state in states]
            gmin = (gmins[0] if gmins.count(gmins[0]) == len(gmins)
                    else np.repeat(gmins, np.diff(self._starts)))
        vgs_f, vds_f, vbs_f, reverse = self._frame(x)

        # Newton step limiting on the evaluation-frame voltages.
        von, dvon = self._threshold(vbs_f)
        vgs_req, vds_req = vgs_f, vds_f
        vgs_f = fetlim(vgs_f, vgs_last, von)
        vds_f = limvds(vds_f, vds_last)
        limited = ((np.abs(vgs_f - vgs_req) > 1e-6 + 1e-3 * np.abs(vgs_req))
                   | (np.abs(vds_f - vds_req) > 1e-6 + 1e-3 * np.abs(vds_req)))

        ids, gm, gds, gmbs = self._drain_current(vgs_f, vds_f, von, dvon)
        op = (ids, gm, gds, gmbs, vgs_f, vds_f, vbs_f, reverse)

        # Equivalent current of the linearised characteristic (evaluation
        # frame, flowing from the effective drain to the effective source).
        ieq = ids - gm * vgs_f - gds * vds_f - gmbs * vbs_f
        gds_tot = gds + gmin
        total = gm + gds_tot + gmbs
        # Slots are (d,g),(d,d),(d,s),(d,b),(s,g),(s,d),(s,s),(s,b); the
        # frame change already exchanged drain and source where reversed.
        v_dg = np.where(reverse, -gm, gm)
        v_dd = np.where(reverse, total, gds_tot)
        v_ds = -np.where(reverse, gds_tot, total)
        v_db = np.where(reverse, -gmbs, gmbs)
        values = np.concatenate((v_dg, v_dd, v_ds, v_db,
                                 -v_dg, -v_dd, -v_ds, -v_db))[self._m_gather]
        # RHS: current pol*ieq extracted at the effective drain, injected at
        # the effective source.
        i_rhs = self.pol * ieq
        r_d = np.where(reverse, i_rhs, -i_rhs)
        values_rhs = np.concatenate((r_d, -r_d))[self._r_gather]

        starts, m_bounds, r_bounds = self._starts, self._m_bounds, \
            self._r_bounds
        for k, (member, system, state) in enumerate(
                zip(members, systems, states)):
            lo, hi = starts[k], starts[k + 1]
            if limited[lo:hi].any():
                state.limited = True
            member.vgs_last = vgs_f[lo:hi]
            member.vds_last = vds_f[lo:hi]
            member.op = (op, lo)
            system.scatter(member._m_index[0], member._m_index[1],
                           values[m_bounds[k]:m_bounds[k + 1]])
            system.scatter_rhs(member._r_rows,
                               values_rhs[r_bounds[k]:r_bounds[k + 1]])
