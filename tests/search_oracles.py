"""Scalar reference searches, kept as oracles for the lockstep searches
of `qmetro._search` and `qmetro.estimate.run_monte_carlo`.

`golden_section` and `grid_then_golden` search one objective at a time;
`_log_likelihood` evaluates one trial's log-likelihood at one point.
The lockstep code must return what they return, bit for bit.
"""

import math

import numpy as np

from qmetro._search import _INVPHI
from qmetro.estimate import DistributionFamily


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


def grid_then_golden(f, lo: float, hi: float, n_grid: int = 512, tol: float = 1e-10) -> float:
    """Locate the global grid minimum, then refine the bracketing cell
    [x(k-1), x(k+1)] around the first grid minimum k, cut at the grid ends.

    Robust for multimodal objectives (periodic likelihoods and variance
    landscapes) at desk scale.
    """
    xs = np.linspace(lo, hi, n_grid)
    k = int(np.argmin(np.array([f(x) for x in xs])))
    a, b = xs[max(k - 1, 0)], xs[min(k + 1, xs.size - 1)]
    if a == b:
        return float(a)
    return golden_section(f, a, b, tol)


def _log_likelihood(family: DistributionFamily, counts: np.ndarray, theta: float):
    p = family.probabilities(theta)
    active = counts > 0
    if np.any(p[active] <= 0.0):
        return -math.inf
    return float(np.sum(counts[active] * np.log(p[active])))
