"""1-D minimization: coarse grid bracket followed by golden-section refinement.

The golden-section loop runs many independent searches in lockstep: the
objective is called once per step with one point per search still
running, so an objective that is cheaper per point when evaluated in
bulk (a likelihood over many Monte-Carlo trials) pays its fixed cost
once per step.  Each search takes exactly the float operations and
branches of the scalar `golden_section` on its own bracket, so it
returns the same minimum bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0  # 1/phi


def golden_sections(f, lo, hi, tol: float = 1e-10) -> np.ndarray:
    """Golden-section minima of many objectives, each on its own bracket
    [lo[j], hi[j]], every search refined to interval width tol.

    ``f(which, x)`` returns objective ``which[k]`` at ``x[k]`` for every k
    (two integer and float arrays of equal length).  A search stops as
    soon as its own interval is narrow enough; the others go on.
    """
    a = np.array(lo, dtype=float, ndmin=1)
    b = np.array(hi, dtype=float, ndmin=1)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"brackets have shapes {a.shape} and {b.shape}")
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    which = np.arange(a.size)
    first = np.asarray(f(np.concatenate([which, which]), np.concatenate([c, d])), dtype=float)
    fc, fd = first[: a.size], first[a.size :]
    found = np.empty(a.size)
    # the state of the searches still running, which[k] being search k's index
    while True:
        going = b - a > tol
        if not going.all():
            found[which[~going]] = 0.5 * (a[~going] + b[~going])
            which, a, b, c, d, fc, fd = (x[going] for x in (which, a, b, c, d, fc, fd))
            if not which.size:
                return found
        # where fc < fd the minimum lies in [a, d]: b, d, fd = d, c, fc and a
        # new c; elsewhere in [c, b]: a, c, fc = c, d, fd and a new d
        left = fc < fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        step = _INVPHI * (b - a)
        c, d = np.where(left, b - step, d), np.where(left, c, a + step)
        values = np.asarray(f(which, np.where(left, c, d)), dtype=float)
        fc, fd = np.where(left, values, fd), np.where(left, fc, values)


def golden_section(f, lo: float, hi: float, tol: float = 1e-10) -> float:
    """Golden-section minimum of f on [lo, hi] to interval width tol.

    The scalar twin of `golden_sections`, with the same float operations
    and branches, so each search there returns what it returns here.  It
    is kept because the one-element case of the lockstep loop spends
    about 0.4 ms more per search in numpy calls on one-element arrays,
    15% of an `optimal_readout_rotation` at N <= 100.
    """
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


def _grid_brackets(vals, lo: float, hi: float):
    """The cells [x(k-1), x(k+1)] around the first grid minimum k of each
    row of vals, with x = np.linspace(lo, hi, width of vals), cut at the
    grid ends."""
    xs = np.linspace(lo, hi, vals.shape[-1])
    k = np.argmin(vals, axis=-1)
    return xs[np.maximum(k - 1, 0)], xs[np.minimum(k + 1, xs.size - 1)]


def grid_then_golden(f, lo: float, hi: float, n_grid: int = 512, tol: float = 1e-10) -> float:
    """Locate the global grid minimum, then refine the bracketing cell.

    Robust for multimodal objectives (periodic likelihoods and variance
    landscapes) at desk scale.
    """
    a, b = _grid_brackets(np.array([f(x) for x in np.linspace(lo, hi, n_grid)]), lo, hi)
    if a == b:
        return float(a)
    return golden_section(f, a, b, tol)


def grid_then_golden_many(
    f, lo: float, hi: float, grid_values, n_grid: int = 512, tol: float = 1e-10
) -> np.ndarray:
    """`grid_then_golden` for many objectives at once, their grid values
    supplied by the caller and their refinements run by `golden_sections`.

    ``grid_values[j, g]`` is objective j at ``np.linspace(lo, hi, n_grid)[g]``;
    ``f`` is as in `golden_sections` and is called only by the refinement.
    Each estimate is the one `grid_then_golden` returns for objective j.
    """
    vals = np.asarray(grid_values, dtype=float)
    if vals.ndim != 2 or vals.shape[1] != n_grid:
        raise ValueError(f"grid_values has shape {vals.shape}, expected (objectives, {n_grid})")
    # a one-point grid gives a == b, where the refinement returns a as is
    return golden_sections(f, *_grid_brackets(vals, lo, hi), tol)
