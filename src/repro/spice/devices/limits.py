"""Voltage-step limiting helpers used by the nonlinear devices.

These are the classic SPICE limiting functions: without them the exponential
diode characteristic overflows as soon as Newton-Raphson proposes a junction
voltage a few hundred millivolts too high.
"""

from __future__ import annotations

import math

import numpy as np


def pnjlim(v_new: float, v_old: float, vt: float, v_crit: float) -> float:
    """Limit the update of a pn-junction voltage (Nagel's algorithm)."""
    if v_new > v_crit and abs(v_new - v_old) > 2.0 * vt:
        if v_old > 0.0:
            arg = 1.0 + (v_new - v_old) / vt
            if arg > 0.0:
                v_new = v_old + vt * math.log(arg)
            else:
                v_new = v_crit
        else:
            v_new = vt * math.log(v_new / vt)
    return v_new


def fetlim(v_new: np.ndarray, v_old: np.ndarray,
           vto: np.ndarray) -> np.ndarray:
    """Limit the gate-source voltage update of MOSFETs, elementwise.

    Both in (or at the edge of) inversion: limit the step size.  Leaving
    inversion: do not jump deeper than slightly below vto.  Entering: do
    not jump further than a little above it.  Both below threshold: no
    limiting.
    """
    vt_old = v_old - vto
    vt_new = v_new - vto
    upper = 2.0 * vt_old + 2.0
    both = np.where(vt_new > upper, upper,
                    np.where((vt_old > 2.0) & (vt_new < 0.5 * vt_old),
                             0.5 * vt_old, vt_new))
    leaving = np.maximum(vt_new, -0.5)
    entering = np.minimum(vt_new, 2.0)
    result = np.where(vt_old >= 0.0,
                      np.where(vt_new >= 0.0, both, leaving),
                      np.where(vt_new >= 0.0, entering, vt_new))
    return result + vto


def limvds(v_new: np.ndarray, v_old: np.ndarray) -> np.ndarray:
    """Limit the drain-source voltage update of MOSFETs, elementwise."""
    rising = v_new > v_old
    high = np.where(rising, np.minimum(v_new, 3.0 * v_old + 2.0),
                    np.where(v_new < 3.5, np.maximum(v_new, 2.0), v_new))
    low = np.where(rising, np.minimum(v_new, 4.0), np.maximum(v_new, -0.5))
    return np.where(v_old >= 3.5, high, low)
