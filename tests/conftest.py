import math

import numpy as np


def align_phase(vec, reference):
    """Rotate vec by the global phase that best matches reference."""
    overlap = np.vdot(vec, reference)
    if overlap == 0:
        return np.asarray(vec)
    return np.asarray(vec) * (overlap / abs(overlap))


def legendre(n, x):
    """Legendre polynomial P_n(x) by the three-term recurrence."""
    p_prev, p = 1.0, x
    if n == 0:
        return p_prev
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    return p


def oat_closed_form(n, chi_t):
    """One-axis twisting of the x-polarized CSS for time t under chi Jz^2
    (Kitagawa & Ueda, PRA 47, 5138, 1993): the three squeezing parameters
    and the mean spin length |<J>|.

    With mu = 2 chi t and L(x) = log1p(-2 sin^2(x/2)), which is log cos x
    without the rounding of cos near 1:
    A = 1 - cos^(N-2) mu, B = 4 sin(mu/2) cos^(N-2)(mu/2),
    xi_S^2 = 1 - (N-1)/4 (sqrt(A^2 + B^2) - A), written as
    1 - (N-1)/4 B^2 / (A + hypot(A, B)) so nothing cancels, and
    |<J>| = (N/2) cos^(N-1)(mu/2).
    """
    def log_cos(x):
        return math.log1p(-2.0 * math.sin(0.5 * x) ** 2)

    mu = 2.0 * chi_t
    a = -math.expm1((n - 2) * log_cos(mu))
    b = 4.0 * math.sin(0.5 * mu) * math.exp((n - 2) * log_cos(0.5 * mu))
    xi_s_sq = 1.0 - 0.25 * (n - 1) * b * b / (a + math.hypot(a, b))
    mean_spin = 0.5 * n * math.exp((n - 1) * log_cos(0.5 * mu))
    return {
        "xi_s_sq": xi_s_sq,
        "xi_r_sq": n * n * xi_s_sq / (4.0 * mean_spin**2),
        "xi_h_sq": n * xi_s_sq / (2.0 * mean_spin),
        "mean_spin": mean_spin,
    }
