"""1-D minimization: coarse grid bracket followed by golden-section refinement."""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi


def golden_section(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section minimum of f on [lo, hi] to interval width tol."""
    a, b = float(lo), float(hi)
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def grid_then_golden(
    f, lo: float, hi: float, n_grid: int = 512, tol: float = 1e-10, grid_values=None
) -> float:
    """Locate the global grid minimum, then refine the bracketing cell.

    Robust for multimodal objectives (periodic likelihoods and variance
    landscapes) at desk scale.  ``grid_values``, if given, are f on
    ``np.linspace(lo, hi, n_grid)`` computed by the caller (for example
    from one table shared by many objectives); f is then evaluated
    only by the golden-section refinement.
    """
    xs = np.linspace(lo, hi, n_grid)
    if grid_values is None:
        vals = np.array([f(x) for x in xs])
    else:
        vals = np.asarray(grid_values, dtype=float)
        if vals.shape != xs.shape:
            raise ValueError(f"grid_values has shape {vals.shape}, expected {xs.shape}")
    k = int(np.argmin(vals))
    a = xs[max(0, k - 1)]
    b = xs[min(n_grid - 1, k + 1)]
    if a == b:
        return float(a)
    return golden_section(f, a, b, tol)
