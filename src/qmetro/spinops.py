"""Collective-spin algebra in the Dicke basis.

For N two-level particles the symmetric sector is spanned by the Dicke
states |J, m> with J = N/2 and m = -J..+J.  Everything here uses the
ascending-m ordering (m = -J first) and hbar = 1.  All returned objects
are immutable; every function is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BasisTag",
    "CollectiveSpinState",
    "CollectiveSpinOperators",
    "Observable",
    "collective_ops",
    "rotate",
    "moments",
    "evolve",
]

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-14
AXIS_TOL = 1e-10
VARIANCE_CLAMP = 1e-12
IMAG_TOL = 1e-12


def _readonly(a):
    a = np.ascontiguousarray(a)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class BasisTag:
    """Identifies the Hilbert space a matrix or state lives in.

    kind is "spin" (size = particle number N, dimension N+1) or "fock"
    (size = per-mode cutoff, dimension (cutoff+1)**2).
    """

    kind: str
    size: int

    def __post_init__(self):
        if self.kind not in ("spin", "fock"):
            raise ValueError(f"unknown basis kind {self.kind!r}")
        if self.size < 0:
            raise ValueError("basis size must be non-negative")

    @property
    def dim(self) -> int:
        if self.kind == "spin":
            return self.size + 1
        return (self.size + 1) ** 2


@dataclass(frozen=True)
class CollectiveSpinState:
    """Unit-norm amplitude vector over |J,m>, m ascending, J = N/2."""

    n_particles: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = self.n_particles
        if n < 1:
            raise ValueError("n_particles must be >= 1")
        amp = np.asarray(self.amplitudes, dtype=complex)
        if amp.shape != (n + 1,):
            raise ValueError(
                f"amplitude vector must have length {n + 1}, got {amp.shape}"
            )
        norm_sq = float(np.sum(np.abs(amp) ** 2))
        if abs(norm_sq - 1.0) > NORM_TOL:
            raise ValueError(f"state not normalized: sum |c|^2 = {norm_sq!r}")
        object.__setattr__(self, "amplitudes", _readonly(amp))

    @property
    def j(self) -> float:
        return self.n_particles / 2.0

    @property
    def m_values(self) -> np.ndarray:
        j = self.j
        return _readonly(np.arange(-j, j + 1))

    @property
    def vector(self) -> np.ndarray:
        return self.amplitudes

    @property
    def basis_tag(self) -> BasisTag:
        return BasisTag("spin", self.n_particles)


@dataclass(frozen=True)
class CollectiveSpinOperators:
    """Dense matrices of Jx, Jy, Jz for spin J = N/2, ascending-m basis."""

    n_particles: int
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray

    def __post_init__(self):
        for name in ("jx", "jy", "jz"):
            mat = np.asarray(getattr(self, name), dtype=complex)
            if np.abs(mat - mat.conj().T).max() > HERMITICITY_TOL:
                raise ValueError(f"{name} is not Hermitian")
            object.__setattr__(self, name, _readonly(mat))

    def along(self, axis) -> np.ndarray:
        """Matrix of the spin component n . J for a 3-vector n."""
        ax = np.asarray(axis, dtype=float)
        return ax[0] * self.jx + ax[1] * self.jy + ax[2] * self.jz

    @property
    def basis_tag(self) -> BasisTag:
        return BasisTag("spin", self.n_particles)


@dataclass(frozen=True)
class Observable:
    """Hermitian matrix with the basis it is expressed in."""

    matrix: np.ndarray
    basis_tag: BasisTag

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("observable matrix must be square")
        if np.abs(mat - mat.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("observable matrix is not Hermitian")
        if self.basis_tag.dim != mat.shape[0]:
            raise ValueError(
                f"matrix dimension {mat.shape[0]} does not match basis "
                f"{self.basis_tag}"
            )
        object.__setattr__(self, "matrix", _readonly(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _dicke_ladder(n: int) -> tuple[np.ndarray, np.ndarray]:
    """m = -J..J ascending, and the couplings sqrt(J(J+1) - m(m+1)) of
    J+ from |J,m> to |J,m+1> for every m but the last."""
    j = n / 2.0
    m = np.arange(-j, j + 1)
    return m, np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))


def collective_ops(n_particles: int) -> CollectiveSpinOperators:
    """Build Jx, Jy, Jz for N particles via the angular-momentum ladder.

    J+|J,m> = sqrt(J(J+1) - m(m+1)) |J,m+1>, Jz diagonal with entries m.
    """
    n = int(n_particles)
    if n < 1:
        raise ValueError("n_particles must be >= 1")
    m, coupling = _dicke_ladder(n)
    jp = np.zeros((n + 1, n + 1), dtype=complex)
    jp[np.arange(1, n + 1), np.arange(n)] = coupling
    jm = jp.conj().T
    jx = 0.5 * (jp + jm)
    jy = (jp - jm) / 2j
    jz = np.diag(m).astype(complex)
    return CollectiveSpinOperators(n, jx, jy, jz)


def evolve(state_vector: np.ndarray, generator: np.ndarray, angle: float) -> np.ndarray:
    """Apply exp(-i * angle * generator) by spectral decomposition.

    Exact for the Hermitian generators and dimensions used here; no
    Pade or scaling-squaring approximation involved.
    """
    w, v = np.linalg.eigh(generator)
    phases = np.exp(-1j * angle * w)
    return v @ (phases * (v.conj().T @ state_vector))


def rotate(state: CollectiveSpinState, axis, angle: float) -> CollectiveSpinState:
    """Rotate a collective-spin state by `angle` about the unit 3-vector `axis`.

    Returns exp(-i * angle * (n . J)) |state>.
    """
    ax = np.asarray(axis, dtype=float)
    if ax.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    norm = float(np.linalg.norm(ax))
    if abs(norm - 1.0) > AXIS_TOL:
        raise ValueError(f"axis must have unit norm, got |axis| = {norm!r}")
    ops = collective_ops(state.n_particles)
    out = evolve(state.amplitudes, ops.along(ax), angle)
    return CollectiveSpinState(state.n_particles, out)


def _state_vector_and_tag(state):
    return np.asarray(state.vector, dtype=complex), state.basis_tag


def moments(state, obs: Observable) -> tuple[float, float]:
    """Mean and variance of an observable on a pure state.

    The state may live in either basis; its tag must match the
    observable's.  Variance is clamped to 0 when round-off drives it
    slightly negative (within 1e-12 of <O^2>).
    """
    vec, tag = _state_vector_and_tag(state)
    if tag != obs.basis_tag:
        raise ValueError(f"basis mismatch: state {tag}, observable {obs.basis_tag}")
    applied = obs.matrix @ vec
    mean_c = np.vdot(vec, applied)
    second = float(np.vdot(applied, applied).real)  # <O psi|O psi> = <O^2>
    # round-off scale grows with <O^2> (e.g. Jx^2 or Jz eigenstates at large
    # N), so both guards scale with the second moment: the imaginary part of
    # <O> with |O psi| = sqrt(<O^2>), the variance with <O^2> itself
    if abs(mean_c.imag) > IMAG_TOL * max(1.0, math.sqrt(second)):
        raise ValueError(f"expectation has imaginary part {mean_c.imag!r}")
    mean = float(mean_c.real)
    variance = second - mean * mean
    if variance < 0.0:
        if variance < -VARIANCE_CLAMP * max(1.0, abs(second)):
            raise ValueError(f"variance {variance!r} negative beyond round-off")
        variance = 0.0
    return mean, variance


def expectation_vector(state: CollectiveSpinState) -> np.ndarray:
    """The mean spin vector (<Jx>, <Jy>, <Jz>)."""
    ops = collective_ops(state.n_particles)
    vec = state.amplitudes
    return np.array(
        [float(np.vdot(vec, op @ vec).real) for op in (ops.jx, ops.jy, ops.jz)]
    )
