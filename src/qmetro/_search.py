"""1-D minimization: coarse grid bracket followed by golden-section refinement.

There is one golden-section loop, and it runs many independent searches
in lockstep: the objective is called once per step with one point per
search still running, so an objective that is cheaper per point when
evaluated in bulk (a likelihood over many Monte-Carlo trials) pays its
fixed cost once per step.  Each search takes exactly the float
operations and branches of a scalar golden section on its own bracket
(the tests keep one as an oracle), so it returns the same minimum bit
for bit.
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


def grid_then_golden_many(
    f, lo: float, hi: float, grid_values, n_grid: int = 512, tol: float = 1e-10
) -> np.ndarray:
    """The minima of many objectives: each is bracketed by the cell
    [x(k-1), x(k+1)] around its first grid minimum k, cut at the grid
    ends, and refined by `golden_sections`.

    ``grid_values[j, g]``, supplied by the caller, is objective j at
    ``x[g] = np.linspace(lo, hi, n_grid)[g]``; ``f`` is as in
    `golden_sections` and is called only by the refinement.
    """
    vals = np.asarray(grid_values, dtype=float)
    if vals.ndim != 2 or vals.shape[1] != n_grid:
        raise ValueError(f"grid_values has shape {vals.shape}, expected (objectives, {n_grid})")
    xs = np.linspace(lo, hi, n_grid)
    k = np.argmin(vals, axis=1)
    # a one-point grid gives a == b, where the refinement returns a as is
    return golden_sections(f, xs[np.maximum(k - 1, 0)], xs[np.minimum(k + 1, n_grid - 1)], tol)
