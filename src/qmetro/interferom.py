"""Interferometer sequences and readouts.

Single-particle Mach-Zehnder and Ramsey pipelines use explicit 2x2
matrices.  The collective Ramsey sequence composes the two pi/2 pulses
about y with the phase accumulation about z (rightmost factor first).
The two-mode Mach-Zehnder acts sector-by-sector in total particle
number n, where the Schwinger map (a^dag b -> J+, with J = n/2 and
m = (n_a - n_b)/2) turns each beam splitter into a collective rotation
(Yurke, McCall & Klauder, PRA 33, 4033, 1986); this keeps each splitter
exactly unitary on the truncated space.
"""

from __future__ import annotations

import math

import numpy as np

from ._search import grid_then_golden
from .estimate import (
    PrecisionReport,
    classical_fisher,
    cramer_rao,
    error_propagation,
    povm_family,
    qfi_from_family,
    readout_moments,
    Readout,
)
from .spinops import (
    BasisTag,
    CollectiveSpinState,
    _rotated,
    _zero_spin,
    collective_ops,
    evolve,
    expectation_vector,
    rotate,
)
from .statelib import TwoModeFockState

__all__ = [
    "mz_single_particle",
    "mz_single_particle_state",
    "ramsey_single_particle",
    "ramsey",
    "mz_two_mode",
    "parity_expectation",
    "parity_sector_povm",
    "optimal_readout_rotation",
    "phase_sweep",
]

# 50:50 splitter of the single-particle pipelines (self-inverse Hadamard form)
SPLITTER_2X2 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)


def mz_single_particle_state(phi: float) -> np.ndarray:
    """Output amplitudes (path a, path b) of the single-particle Mach-Zehnder.

    The explicit 2x2 pipeline: enter in port a, splitter, relative phase
    e^(i phi) on path b, splitter.
    """
    psi = np.array([1.0, 0.0], dtype=complex)  # enter in port a
    psi = SPLITTER_2X2 @ psi
    psi = np.array([psi[0], np.exp(1j * phi) * psi[1]])
    return SPLITTER_2X2 @ psi


def mz_single_particle(phi: float) -> tuple[float, float]:
    """Single-particle Mach-Zehnder detection probabilities (p_a, p_b).

    Equals (cos^2(phi/2), sin^2(phi/2)).
    """
    p = np.abs(mz_single_particle_state(phi)) ** 2
    return float(p[0]), float(p[1])


def ramsey_single_particle(phi: float) -> tuple[float, float]:
    """Single-atom Ramsey detection probabilities (p_down, p_up).

    Two self-inverse pi/2 pulses around a free evolution that advances
    the ground state by -phi/2 and the excited state by +phi/2; yields
    p(down|phi) = (1 + cos phi)/2.
    """
    psi = np.array([1.0, 0.0], dtype=complex)  # start in the ground state
    psi = SPLITTER_2X2 @ psi
    psi = np.array(
        [np.exp(-1j * phi / 2.0) * psi[0], np.exp(+1j * phi / 2.0) * psi[1]]
    )
    psi = SPLITTER_2X2 @ psi
    p = np.abs(psi) ** 2
    return float(p[0]), float(p[1])


def ramsey(
    initial: CollectiveSpinState,
    phi: float,
    readout_rotation: float | None = None,
) -> CollectiveSpinState:
    """Run the collective Ramsey sequence on a probe state.

    Applies exp(-i pi/2 Jy), then exp(-i phi Jz), then exp(-i pi/2 Jy)
    (rightmost factor of the composed propagator acts first).  When
    ``readout_rotation`` is given, the final state is additionally
    rotated by that angle about its own mean-spin axis, which reorients
    the uncertainty ellipse without moving the mean spin.  The pulses act
    on the amplitude vector; only the state they end in is validated.
    """
    vec = _rotated(initial.amplitudes, (0.0, 1.0, 0.0), math.pi / 2.0)
    vec = _rotated(vec, (0.0, 0.0, 1.0), phi)
    state = CollectiveSpinState(initial.n_particles, _rotated(vec, (0.0, 1.0, 0.0), math.pi / 2.0))
    if readout_rotation is not None:
        state = _rotate_about_mean_spin(state, readout_rotation)
    return state


def _mean_spin_axis(state: CollectiveSpinState) -> np.ndarray:
    jvec = expectation_vector(state)
    norm = float(np.linalg.norm(jvec))
    if norm <= _zero_spin(state.n_particles):
        raise ValueError("mean spin vanishes; readout rotation axis undefined")
    return jvec / norm


def _rotate_about_mean_spin(
    state: CollectiveSpinState, angle: float
) -> CollectiveSpinState:
    return rotate(state, _mean_spin_axis(state), angle)


def optimal_readout_rotation(state: CollectiveSpinState) -> float:
    """Rotation angle about the mean-spin axis minimizing Var(Jz).

    Scanned over [0, pi) by a coarse bracket and refined by
    golden-section to width 1e-10.
    """
    axis = _mean_spin_axis(state)
    jz = Readout(state.m_values, state.basis_tag)

    def readout_variance(angle):
        return readout_moments(rotate(state, axis, angle), jz)[1]

    return grid_then_golden(readout_variance, 0.0, math.pi, n_grid=64, tol=1e-10)


def mz_two_mode(state: TwoModeFockState, phi: float) -> TwoModeFockState:
    """Run the two-mode Mach-Zehnder sequence on a Fock-space state.

    Total particle number is conserved exactly: in the sector of total
    number n (basis ascending in n_a) the first splitter
    exp[(pi/4)(a^dag b - b^dag a)] is exp(+i pi/2 Jy), the phase is
    e^(i phi n_b), and the second splitter exp[-i(pi/4)(a^dag b + b^dag a)]
    is exp(-i pi/2 Jx), with J the collective spin of n particles.  The
    vacuum takes only the phase, which is 1.  Every occupied sector must
    fit under the cutoff (otherwise the splitter would leak amplitude
    off the grid).
    """
    support = state.total_number_support()
    if support.size and int(support.max()) > state.cutoff:
        raise ValueError(
            f"cutoff {state.cutoff} cannot hold total number {int(support.max())}"
        )
    grid = np.array(state.amplitudes)
    out = np.zeros_like(grid)
    out[0, 0] = grid[0, 0]
    for n in support[support > 0]:
        na = np.arange(n + 1)
        nb = n - na
        ops = collective_ops(int(n))
        vec = evolve(grid[na, nb], ops.jy, -math.pi / 2.0)
        vec = np.exp(1j * phi * nb) * vec
        out[na, nb] = evolve(vec, ops.jx, math.pi / 2.0)
    return TwoModeFockState(state.cutoff, out, state.truncation_deficit)


def _mode_numbers(cutoff: int, mode: str) -> np.ndarray:
    n = np.arange(cutoff + 1)
    if mode == "a":
        return np.repeat(n, cutoff + 1).reshape(cutoff + 1, cutoff + 1)
    if mode == "b":
        return np.tile(n, (cutoff + 1, 1))
    raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")


def parity_sector_povm(mode: str, cutoff: int) -> Readout:
    """Parity readout of one mode, value (-1)^n_mode: outcomes odd (-1), even (+1)."""
    return Readout((-1.0) ** _mode_numbers(cutoff, mode).reshape(-1), BasisTag("fock", cutoff))


def parity_expectation(state: TwoModeFockState, mode: str) -> float:
    """<exp(i pi n_mode)>, the mean of the mode's parity readout."""
    return readout_moments(state, parity_sector_povm(mode, state.cutoff))[0]


def phase_sweep(
    state_family,
    readout: Readout,
    phi_grid,
    repetitions: int = 1,
) -> list[PrecisionReport]:
    """Evaluate all precision figures over a phase grid.

    For each grid point: classical Fisher information of the outcome
    distribution of the diagonal ``readout``, quantum Fisher information
    of the state family, the error-propagation uncertainty of the value
    the readout reports (signal and noise from `readout_moments`), and
    the (quantum) Cramer-Rao bounds at ``repetitions``.  Reports are
    returned in grid order.
    """
    grid = np.atleast_1d(np.asarray(phi_grid, dtype=float))
    if grid.size == 0:
        raise ValueError("phase grid must be non-empty")
    family = povm_family(state_family, readout)

    def signal(theta):
        return readout_moments(state_family(theta), readout)[0]

    def noise(theta):
        return math.sqrt(readout_moments(state_family(theta), readout)[1])

    reports = []
    for phi in grid:
        fisher = classical_fisher(family, phi)
        qfi = qfi_from_family(state_family, phi)
        prop = error_propagation(signal, noise, phi)
        reports.append(
            PrecisionReport(
                theta=float(phi),
                classical_fisher=fisher,
                quantum_fisher=qfi,
                repetitions=repetitions,
                crb=cramer_rao(fisher, repetitions),
                qcrb=cramer_rao(qfi, repetitions),
                error_prop=prop.value,
                stationary=prop.stationary,
            )
        )
    return reports
