"""Collective-spin algebra in the Dicke basis.

For N two-level particles the symmetric sector is spanned by the Dicke
states |J, m> with J = N/2 and m = -J..+J.  Everything here uses the
ascending-m ordering (m = -J first) and hbar = 1.  All returned objects
are immutable; every function is pure.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass, fields

import numpy as np

__all__ = [
    "BasisTag",
    "CollectiveSpinState",
    "CollectiveSpinOperators",
    "Observable",
    "collective_ops",
    "apply",
    "rotate",
    "moments",
    "expectation_vector",
]

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-14
AXIS_TOL = 1e-10
IMAG_TOL = 1e-12
# a mean spin counts as zero when |<J>| <= MEAN_SPIN_EPS * max(1, N/2),
# relative to its largest possible length N/2
MEAN_SPIN_EPS = 1e-10
RESCALE = 1e150  # `_jx_eigenvectors` scales a column down by this once it passes it
ALL = slice(None)  # the index of a state that keeps every amplitude (`_occupied`)


def _check_hermitian(mat: np.ndarray, name: str) -> None:
    if not np.abs(mat - mat.conj().T).max() <= HERMITICITY_TOL:  # NaN fails too
        raise ValueError(f"{name} is not Hermitian")


def _vector_in(state, tag: BasisTag) -> np.ndarray:
    """The amplitude vector of a state, which must live in the basis `tag`."""
    if state.basis_tag != tag:
        raise ValueError(f"basis mismatch: state {state.basis_tag}, expected {tag}")
    return np.asarray(state.vector, dtype=complex)


def _occupied(state) -> tuple:
    """(index, amplitudes): a state's amplitudes at the flat basis
    positions ``index``, every other amplitude being zero.  A two-mode
    state keeps its occupied sectors so (``_occupied``); for any other
    state, a spin state among them, the index is all of it."""
    occupied = getattr(state, "_occupied", None)
    if occupied is None:
        return ALL, np.asarray(getattr(state, "vector", state), dtype=complex)
    return occupied


def _occupied_in(state, tag: BasisTag) -> tuple:
    """`_occupied` of a state, which must live in the basis `tag`.  The
    tag is compared by identity first, which settles the common case (the
    library's states and readouts share one tag per space, `_basis_tag`),
    and by value only then."""
    if state.basis_tag is not tag and state.basis_tag != tag:
        raise ValueError(f"basis mismatch: state {state.basis_tag}, expected {tag}")
    return _occupied(state)


def _readonly(a, dtype=None):
    """A read-only C-contiguous copy of a, of ``dtype`` if given.  Always a
    copy, so the array frozen is never the one given, which may be the caller's."""
    frozen = np.array(a, dtype, order="C", ndmin=1)
    frozen.setflags(write=False)
    return frozen


def _rebuilt(value) -> tuple:
    """`__reduce__` of a `_value_type`: rebuilt by its constructor from its init fields alone."""
    return type(value), tuple(getattr(value, f.name) for f in fields(value) if f.init)


def _value_type(**dtypes):
    """Class decorator of every frozen value type that holds arrays, with
    ``dtypes`` giving each array field's dtype (None keeps it).  The type
    compares and hashes by identity and pickles and copies through its
    constructor (`_rebuilt`).  Once its ``__post_init__`` checks pass on
    the fields as given, each field named in ``dtypes`` is kept as one
    read-only copy (`_readonly`).  `Readout` and `CollectiveSpinState`
    name none: they freeze the arrays they make in place (`estimate._store`,
    `CollectiveSpinState._take`)."""

    def decorate(cls):
        checks = cls.__dict__.get("__post_init__", lambda self: None)

        def __post_init__(self):
            checks(self)
            for name, dtype in dtypes.items():
                object.__setattr__(self, name, _readonly(getattr(self, name), dtype))

        cls.__post_init__ = __post_init__
        cls.__reduce__ = _rebuilt
        return dataclass(frozen=True, eq=False)(cls)

    return decorate


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

    def __reduce__(self):
        return _basis_tag, (self.kind, self.size)

    @property
    def dim(self) -> int:
        if self.kind == "spin":
            return self.size + 1
        return (self.size + 1) ** 2


@functools.lru_cache(maxsize=None, typed=True)
def _basis_tag(kind: str, size: int) -> BasisTag:
    """The one `BasisTag` the library builds per (kind, size), shared so
    that `_occupied_in` settles by identity; other tags compare by value."""
    return BasisTag(kind, size)


@_value_type()
class CollectiveSpinState:
    """Unit-norm amplitude vector over |J,m>, m ascending, J = N/2.

    ``basis_tag`` is `_basis_tag` of N.  A `_value_type`, whose arrays
    `_take` freezes: a pickled or copied state comes back without caches.
    """

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
        object.__setattr__(self, "basis_tag", _basis_tag("spin", n))
        self._take(np.array(amp, order="C"))  # a copy: the caller's array stays writable

    def _take(self, values: np.ndarray, rescale: bool = False) -> None:
        """Keep ``values`` as the amplitudes: frozen in place after the
        norm check, not copied, and with ``rescale`` divided in place by
        their norm once it passes."""
        norm_sq = float(np.vdot(values, values).real)
        if not abs(norm_sq - 1.0) <= NORM_TOL:  # NaN and inf fail too
            raise ValueError(f"state not normalized: sum |c|^2 = {norm_sq!r}")
        if rescale:
            values /= math.sqrt(norm_sq)
        values.setflags(write=False)
        object.__setattr__(self, "amplitudes", values)

    def _with_values(self, values: np.ndarray, rescale: bool = False) -> "CollectiveSpinState":
        """The state of this N whose amplitudes are ``values``, a
        C-contiguous complex vector of length N + 1 (`_take`); only their
        norm is checked, and with ``rescale`` it is then made exactly 1
        up to the division's round-off."""
        state = object.__new__(CollectiveSpinState)
        vars(state).update(n_particles=self.n_particles, basis_tag=self.basis_tag)
        state._take(values, rescale)
        return state

    @property
    def j(self) -> float:
        return self.n_particles / 2.0

    @property
    def m_values(self) -> np.ndarray:
        return _dicke_ladder(self.n_particles)[0]

    @property
    def vector(self) -> np.ndarray:
        return self.amplitudes


@_value_type(jx=complex, jy=complex, jz=complex)
class CollectiveSpinOperators:
    """Dense matrices of Jx, Jy, Jz for spin J = N/2, ascending-m basis."""

    n_particles: int
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray

    def __post_init__(self):
        for name in ("jx", "jy", "jz"):
            _check_hermitian(np.asarray(getattr(self, name)), name)

    def along(self, axis) -> np.ndarray:
        """Matrix of the spin component n . J for a 3-vector n."""
        ax = np.asarray(axis, dtype=float)
        return ax[0] * self.jx + ax[1] * self.jy + ax[2] * self.jz

    @property
    def basis_tag(self) -> BasisTag:
        return _basis_tag("spin", self.n_particles)


@_value_type(matrix=complex)
class Observable:
    """Hermitian matrix with the basis it is expressed in."""

    matrix: np.ndarray
    basis_tag: BasisTag

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("observable matrix must be square")
        _check_hermitian(mat, "observable matrix")
        if self.basis_tag.dim != mat.shape[0]:
            raise ValueError(
                f"matrix dimension {mat.shape[0]} does not match basis "
                f"{self.basis_tag}"
            )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@functools.lru_cache(maxsize=64)
def _dicke_ladder(n: int) -> tuple[np.ndarray, np.ndarray]:
    """m = -J..J ascending, and the couplings sqrt(J(J+1) - m(m+1)) of
    J+ from |J,m> to |J,m+1> for every m but the last.  Cached per N,
    so both arrays are read-only."""
    j = n / 2.0
    m = np.arange(-j, j + 1)
    return _readonly(m), _readonly(np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1)))


def collective_ops(n_particles: int) -> CollectiveSpinOperators:
    """Build Jx, Jy, Jz for N particles via the angular-momentum ladder.

    J+|J,m> = sqrt(J(J+1) - m(m+1)) |J,m+1>, Jz diagonal with entries m.
    Dense: every propagator and moment of the library, the two-mode
    splitters included, works on the bands directly (`apply`, `rotate`,
    `interferom.mz_two_mode`); these matrices serve the tests and demos
    as the dense reference.
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


def apply(axis, vector) -> np.ndarray:
    """(n . J) applied to an amplitude vector over |J,m>, in O(N).

    J = N/2 is read from the vector's length.  Jz is diagonal and
    n_x Jx + n_y Jy = ((n_x - i n_y) J+ + (n_x + i n_y) J-) / 2 is
    tridiagonal, so no matrix is built.
    """
    ax = np.asarray(axis, dtype=float)
    vec = np.asarray(vector, dtype=complex)
    m, coupling = _dicke_ladder(vec.shape[0] - 1)
    out = ax[2] * m * vec
    out[1:] += 0.5 * complex(ax[0], -ax[1]) * coupling * vec[:-1]
    out[:-1] += 0.5 * complex(ax[0], ax[1]) * coupling * vec[1:]
    return out


def evolve(state_vector: np.ndarray, generator: np.ndarray, angle: float) -> np.ndarray:
    """Apply exp(-i * angle * generator) by spectral decomposition.

    Exact for the Hermitian generators and dimensions used here; no
    Pade or scaling-squaring approximation involved.
    """
    w, v = np.linalg.eigh(generator)
    phases = np.exp(-1j * angle * w)
    return v @ (phases * (v.conj().T @ state_vector))


def _band_spectrum(diagonal, off_diagonal):
    """Eigenvalues (ascending) and real orthonormal eigenvectors, as
    columns, of a real symmetric tridiagonal matrix: the full spectrum,
    which only `squeeze.ground_state` and `squeeze.oat_evolve` at
    omega != 0 need, and the one use of scipy in the library."""
    # imported here, so that no CLI experiment loads scipy
    from scipy.linalg import eigh_tridiagonal

    return eigh_tridiagonal(diagonal, off_diagonal)


def _real_matvec(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """A real matrix times a complex vector, as one real product with the
    (re, im) pairs; numpy would otherwise copy the matrix to complex."""
    pairs = np.ascontiguousarray(vector, dtype=complex).view(float).reshape(-1, 2)
    return np.ascontiguousarray(matrix @ pairs).view(complex).reshape(-1)


def _band_evolve(vector, spectrum, gauge, t: float) -> np.ndarray:
    """exp(-i t H) vector for H = D T D^dag with D = diag(gauge) and the
    real symmetric T = V diag(w) V^T, given spectrum = (w, V)."""
    w, v = spectrum
    rotated = _real_matvec(v.T, gauge.conj() * vector)
    return gauge * _real_matvec(v, np.exp(-1j * t * w) * rotated)


@functools.lru_cache(maxsize=64)
def _jy_gauge(n: int) -> np.ndarray:
    """D = diag((-i)^k), k = 0..N, as a vector: Jy = D T D^dag with T the
    real Jx band (off-diagonal sqrt(J(J+1) - m(m+1)) / 2).  Cached per N,
    so it is read-only."""
    return _readonly(np.array([1.0, -1j, -1.0, 1j])[np.arange(n + 1) % 4])


@functools.lru_cache(maxsize=8)
def _jy_band(n: int):
    """Jy in its real gauge form (`_jy_gauge`): the spectrum (w, V) of the
    real Jx band T, with w exactly m = -J..J and V from
    `_jx_eigenvectors`.  V is (N+1)^2 doubles, 32 MB at N = 2000, hence
    the small cache."""
    return _dicke_ladder(n)[0], _jx_eigenvectors(n)


def _jx_eigenvectors(n: int) -> np.ndarray:
    """The real orthonormal eigenvectors, as read-only columns, of Jx's
    band T for N particles (zero diagonal, off-diagonal
    c_k = sqrt((k+1)(N-k)) / 2), column idx for the eigenvalue m[idx].

    Column idx, of eigenvalue mu, solves the three-term recursion
    c_(k-1) v_(k-1) + c_k v_(k+1) = mu v_k from v_0 = 1; all columns run
    at once, from the edge k = 0 to the middle.  On the way each column
    only grows (where |mu| > 2 c_k) or oscillates (near the middle 2 c_k
    is about J + 1/2 > |mu|), so the edge start is the stable direction.
    A column is rescaled when it passes RESCALE.  T commutes with the
    flip k -> N - k, so the other half is v_(N-k) = (-1)^(N-idx) v_k.
    For odd N the last entry of the half is balanced between the rows
    N//2 - 1 and N//2, the two equations it enters, so the seam's
    residual is shared by both rows; then each column is normalized.

    Column signs are arbitrary: every product built on V here takes
    each column once as V and once as V^T, so a column's sign cancels
    exactly.
    """
    m, coupling = _dicke_ladder(n)
    c = 0.5 * coupling
    half = n // 2
    v = np.empty((n + 1, n + 1))
    v[0] = 1.0
    if n:
        v[1] = m / c[0]
    for k in range(1, half):
        row = m * v[k] - c[k - 1] * v[k - 1]
        row /= c[k]
        v[k + 1] = row
        big = np.abs(row) > RESCALE
        if big.any():
            v[: k + 2, big] /= RESCALE
    sign = (-1.0) ** (n - np.arange(n + 1))
    if n % 2 and half:
        # row half - 1 gave v_half; row half, with v_(half+1) = sign v_half,
        # asks (m - sign c_half) v_half = c_(half-1) v_(half-1): weigh both
        off = m - sign * c[half]
        v[half] = c[half - 1] * (v[half] + np.sign(off) * v[half - 1]) / (c[half - 1] + np.abs(off))
    np.multiply(v[n - half - 1 :: -1], sign, out=v[half + 1 :])  # v_(N-k) = sign v_k
    if n % 2 == 0:
        v[half, sign < 0] = 0.0  # the middle of an odd column
    v /= np.sqrt(np.einsum("ij,ij->j", v, v))
    v.setflags(write=False)
    return v


def _euler_zyz(axis: np.ndarray, angle: float) -> tuple[float, float, float]:
    """Angles (alpha, beta, gamma), beta in [0, pi], with
    exp(-i angle n.sigma/2) = Rz(alpha) Ry(beta) Rz(gamma) in SU(2),
    Rk(x) = exp(-i x sigma_k / 2), for a unit 3-vector n.

    Read from the SU(2) matrix, not from the SO(3) rotation, so the
    angles fix the sign that half-integer J sees.  In the (up, down)
    basis the matrix is [[a, -b*], [b, a*]] with
    a = e^{-i(alpha+gamma)/2} cos(beta/2), b = e^{i(alpha-gamma)/2} sin(beta/2).
    """
    c, s = math.cos(0.5 * angle), math.sin(0.5 * angle)
    a = complex(c, -axis[2] * s)
    b = complex(axis[1] * s, -axis[0] * s)
    beta = 2.0 * math.atan2(abs(b), abs(a))
    total = -2.0 * cmath.phase(a)  # alpha + gamma
    difference = 2.0 * cmath.phase(b) if abs(b) > 0.0 else 0.0  # alpha - gamma
    return 0.5 * (total + difference), beta, 0.5 * (total - difference)


def _rotated(vector: np.ndarray, axis, angle: float) -> np.ndarray:
    """exp(-i angle (n . J)) vector for a unit 3-vector n, unchecked.

    The Euler product Rz(alpha) Ry(beta) Rz(gamma): the z rotations are
    diagonal phases e^{-i x m}, skipped when their angle is exactly 0,
    and Ry(beta) comes from the cached spectrum of Jy's real tridiagonal
    gauge form.
    """
    alpha, beta, gamma = _euler_zyz(axis, angle)
    n = vector.shape[0] - 1
    m, _ = _dicke_ladder(n)
    out = vector
    if gamma != 0.0:
        out = np.exp(-1j * gamma * m) * out
    if beta != 0.0:
        out = _band_evolve(out, _jy_band(n), _jy_gauge(n), beta)
    if alpha != 0.0:
        out = np.exp(-1j * alpha * m) * out
    return out


def rotate(state: CollectiveSpinState, axis, angle: float) -> CollectiveSpinState:
    """Rotate a collective-spin state by `angle` about the unit 3-vector `axis`.

    Returns exp(-i * angle * (n . J)) |state> through `_rotated`; no
    (N+1)^2 operator is built beyond the cached Jy spectrum.
    """
    ax = np.asarray(axis, dtype=float)
    if ax.shape != (3,):
        raise ValueError("axis must be a 3-vector")
    norm = float(np.linalg.norm(ax))
    if not abs(norm - 1.0) <= AXIS_TOL:  # NaN fails too
        raise ValueError(f"axis must have unit norm, got |axis| = {norm!r}")
    return CollectiveSpinState(state.n_particles, _rotated(state.amplitudes, ax / norm, angle * norm))


def moments(state, obs: Observable) -> tuple[float, float]:
    """Mean and variance of an observable on a pure state.

    The state may live in either basis; its tag must match the
    observable's.  The variance is the sum of squares ||(O - <O>) psi||^2.
    """
    vec = _vector_in(state, obs.basis_tag)
    return _moments(vec, obs.matrix @ vec)


def _moments(vec: np.ndarray, applied: np.ndarray) -> tuple[float, float]:
    """Mean and variance of O from psi and O psi, as in `moments`."""
    mean_c = np.vdot(vec, applied)
    mean = float(mean_c.real)
    centered = applied - mean * vec
    variance = float(np.vdot(centered, centered).real)
    # the guard's scale ||O psi|| equals sqrt(mean^2 + variance) for a unit
    # psi, so psi is not read a third time for it
    if abs(mean_c.imag) > IMAG_TOL * max(1.0, math.sqrt(mean * mean + variance)):
        raise ValueError(f"expectation has imaginary part {mean_c.imag!r}")
    return mean, variance


def _zero_spin(n_particles: int) -> float:
    """The length at or below which a mean spin of N particles counts as zero."""
    return MEAN_SPIN_EPS * max(1.0, n_particles / 2.0)


def expectation_vector(state: CollectiveSpinState) -> np.ndarray:
    """The mean spin vector (<Jx>, <Jy>, <Jz>)."""
    vec = state.amplitudes
    return np.array([float(np.vdot(vec, apply(axis, vec)).real) for axis in np.eye(3)])


def _mean_spin(state: CollectiveSpinState) -> tuple[np.ndarray | None, float]:
    """The unit direction of the mean spin <J> and its length |<J>|.
    The direction is None when the length is at or below `_zero_spin`."""
    jvec = expectation_vector(state)
    length = float(np.linalg.norm(jvec))
    if length <= _zero_spin(state.n_particles):
        return None, length
    return jvec / length, length


def _spin_covariance(vec: np.ndarray, axes) -> tuple[np.ndarray, np.ndarray]:
    """The means <u_i.J> and the symmetrized covariance of the spin
    components along the 3-vectors u_i: the Gram matrix
    Re<(u_i.J - <u_i.J>) psi | (u_j.J - <u_j.J>) psi> of the centered
    vectors, from one `apply` per axis.  Each entry on or above the
    diagonal is computed once and mirrored, so the matrix is symmetric."""
    applied = [apply(u, vec) for u in axes]
    means = np.array([np.vdot(vec, a).real for a in applied])
    centered = [a - mean * vec for a, mean in zip(applied, means)]
    cov = np.empty((len(centered), len(centered)))
    for i, a in enumerate(centered):
        for j in range(i, len(centered)):
            cov[i, j] = cov[j, i] = np.vdot(a, centered[j]).real
    return means, cov
