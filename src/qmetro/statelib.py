"""Probe-state constructors: coherent spin, GHZ/NOON, twin Fock, entangled coherent.

Collective-spin states use the ascending-m Dicke convention from
``spinops``.  Two-mode states are amplitudes over occupation pairs
(n_a, n_b) up to a per-mode cutoff, flattened in lexicographic (n_a, n_b)
order; a state keeps only its occupied sectors of total number
n_a + n_b, and builds the dense grid when it is read.

Phase convention: every constructor returns the global-phase
representative whose first nonzero amplitude is real and positive, so
up-to-phase comparisons reduce to plain equality.

Sign convention for coherent spin states: theta = 0 is the all-down
state |J,-J>, hence <Jz> = -J cos(theta) (and <Jx> = J sin(theta) cos(phi)).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .spinops import CollectiveSpinState, _basis_tag, _count, _readonly, _real, _take

__all__ = [
    "TwoModeFockState",
    "EcsParams",
    "TruncationError",
    "css",
    "ghz",
    "twin_fock",
    "ecs",
    "ecs_branch_tail",
]

MAX_DEFICIT = 1e-10
ECS_TAIL_BOUND = 1e-13
ECS_MAX_CUTOFF = 512


class TruncationError(RuntimeError):
    """Raised when no cutoff under the hard cap meets the tail bound."""


def _log_factorials(n: int) -> np.ndarray:
    """ln k! for k = 0..n, read-only: the head of the cached table of
    math.lgamma(k + 1) whose length is the least power of two above n,
    and at least 1024.  An entry never depends on the table's length,
    so neither does any result."""
    return _log_factorial_table(max(10, n.bit_length()))[: n + 1]


@functools.lru_cache(maxsize=None)
def _log_factorial_table(bits: int) -> np.ndarray:
    return _readonly([math.lgamma(k + 1) for k in range(1 << bits)])


@functools.lru_cache(maxsize=16)
def _sector_layout(cutoff: int, support: tuple) -> tuple:
    """Where the occupied sectors of a state with this cutoff lie, for
    the total numbers ``support`` (ascending): (support, index, sectors),
    with index the flat grid positions n_a (cutoff + 1) + n_b of those
    sectors, sector by sector and n_a ascending in each, and sectors[i]
    the slice of index that holds sector support[i].  Sector n runs over
    n_a = max(0, n - cutoff)..min(n, cutoff), at flat positions
    n + n_a cutoff; for n <= cutoff that is flat[n : n(cutoff+1)+1 : cutoff].
    Cached, so every state of one cutoff and support shares the read-only
    arrays."""
    positions, sectors, start = [], [], 0
    for n in support:
        n_a = np.arange(max(0, n - cutoff), min(n, cutoff) + 1)
        positions.append(n + n_a * cutoff)
        sectors.append(slice(start, start + n_a.size))
        start += n_a.size
    index = np.concatenate(positions) if positions else np.zeros(0, dtype=np.intp)
    support = np.array(support, dtype=np.intp)
    for a in (support, index):
        a.setflags(write=False)
    return support, index, tuple(sectors)


@dataclass(frozen=True, init=False, eq=False)
class TwoModeFockState:
    """Amplitudes over |n_a, n_b> with 0 <= n_a, n_b <= cutoff, given as
    the (cutoff + 1)^2 grid indexed [n_a, n_b].

    The state keeps only its occupied sectors, the total numbers
    n_a + n_b that carry any amplitude: one complex vector over a
    read-only index of flat grid positions (`_sector_layout`), shared by
    every state of the same cutoff and support.  ``amplitudes`` and
    ``vector`` are the grid derived from them, read-only and built when
    first read.  ``basis_tag`` is the Fock space of the cutoff.

    ``truncation_deficit`` is the probability weight dropped by the
    cutoff; amplitudes are NOT renormalized to hide it.

    A pickled or copied state is rebuilt from its sectors as the constructors
    build it (`_from_sectors`), without the grid or its private caches.
    """

    cutoff: int
    truncation_deficit: float

    def __init__(self, cutoff: int, amplitudes, truncation_deficit: float = 0.0):
        cutoff = _count("cutoff", cutoff, 0)
        amp = np.asarray(amplitudes, dtype=complex)
        d = cutoff + 1
        if amp.shape != (d, d):
            raise ValueError(f"amplitude grid must be {d}x{d}, got {amp.shape}")
        if not 0.0 <= truncation_deficit < MAX_DEFICIT:
            raise ValueError(f"truncation deficit {truncation_deficit!r} out of range")
        na, nb = np.nonzero(amp)
        layout = _sector_layout(cutoff, tuple(np.flatnonzero(np.bincount(na + nb)).tolist()))
        _in_layout(self, cutoff, truncation_deficit, layout, amp.reshape(-1)[layout[1]])

    def __reduce__(self):
        support = tuple(self._layout[0].tolist())
        return _from_sectors, (self.cutoff, support, self._occupied[1], self.truncation_deficit)

    def _with_values(self, values: np.ndarray) -> "TwoModeFockState":
        """The state of this cutoff, deficit and support whose amplitudes
        at the shared index are ``values`` (`_in_layout`); only their norm
        is checked."""
        state = object.__new__(TwoModeFockState)
        return _in_layout(state, self.cutoff, self.truncation_deficit, self._layout, values)

    @functools.cached_property
    def amplitudes(self) -> np.ndarray:
        """The (cutoff + 1)^2 grid, zero off the occupied sectors."""
        d = self.cutoff + 1
        index, values = self._occupied
        grid = np.zeros(d * d, dtype=complex)
        grid[index] = values
        grid.setflags(write=False)
        return grid.reshape(d, d)

    @property
    def vector(self) -> np.ndarray:
        return self.amplitudes.reshape(-1)

    def total_number_support(self) -> np.ndarray:
        """Sorted total particle numbers n_a + n_b carrying any amplitude,
        read-only and shared like the index."""
        return self._layout[0]


def _in_layout(state, cutoff: int, deficit: float, layout: tuple, values) -> TwoModeFockState:
    """Make ``state`` the one whose amplitudes at the layout's index are
    ``values``, every other amplitude being zero, kept by the state store
    (`spinops._take`) against the norm 1 - deficit; returns it."""
    vars(state).update(cutoff=cutoff, truncation_deficit=deficit, _layout=layout,
                       basis_tag=_basis_tag("fock", cutoff))
    return _take(state, layout[1], values, 1.0 - deficit)


def _from_sectors(cutoff: int, support: tuple, values, deficit: float = 0.0) -> TwoModeFockState:
    """The state of amplitudes ``values`` at the cached layout of cutoff and
    support (`_sector_layout`), copied and checked (`_in_layout`)."""
    state = object.__new__(TwoModeFockState)
    return _in_layout(state, cutoff, deficit, _sector_layout(cutoff, support), np.array(values))


@dataclass(frozen=True)
class EcsParams:
    """Coherent amplitude and normalization of an entangled coherent state."""

    alpha: complex

    @classmethod
    def from_alpha(cls, alpha: complex) -> "EcsParams":
        return cls(complex(alpha))

    @property
    def norm_factor(self) -> float:
        return 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-abs(self.alpha) ** 2)))

    @property
    def mean_total_number(self) -> float:
        return 2.0 * self.norm_factor**2 * abs(self.alpha) ** 2


def _phase_normalized(amp: np.ndarray) -> np.ndarray:
    """Rotate the global phase so the first nonzero amplitude is real positive.

    Round-off dust far below the dominant amplitude is ignored when
    picking the reference entry.
    """
    flat = amp.reshape(-1)
    peak = np.abs(flat).max()
    if peak == 0.0:
        return amp
    idx = np.flatnonzero(np.abs(flat) > 1e-13 * peak)
    a0 = flat[idx[0]]
    return amp * (a0.conjugate() / abs(a0))


def _signed_powers(base: float, exponents: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(sign, log|base^k|) for each k; base^0 = 1 also for base = 0, whose
    other powers have log -inf."""
    sign = np.where((base < 0.0) & (exponents % 2 == 1), -1.0, 1.0)
    if base == 0.0:
        return sign, np.where(exponents == 0, 0.0, -math.inf)
    return sign, exponents * math.log(abs(base))


def css(n_particles: int, theta: float, phi: float) -> CollectiveSpinState:
    """Coherent spin state: all N particles polarized along (theta, phi).

    Dicke amplitudes are binomial,
    c_m = sqrt(C(N, J+m)) cos^(J-m)(theta/2) sin^(J+m)(theta/2) e^(-i(J+m)phi),
    with the binomial square roots accumulated through log-gamma so that
    N >= 170 does not overflow.  A power of an exactly zero cos or sin
    (theta = 0) gives an exactly zero amplitude.  N is an integer >= 1
    (`spinops._count`), and theta and phi must be finite (`spinops._real`).
    """
    n = _count("n_particles", n_particles, 1)
    theta, phi = _real("theta", theta), _real("phi", phi)
    half = 0.5 * theta
    k = np.arange(n + 1)  # k = J + m
    log_factorial = _log_factorials(n)
    log_binom_sqrt = 0.5 * (log_factorial[n] - log_factorial - log_factorial[::-1])
    sign_c, log_c = _signed_powers(math.cos(half), n - k)
    sign_s, log_s = _signed_powers(math.sin(half), k)
    amp = sign_c * sign_s * np.exp(log_binom_sqrt + log_c + log_s) * np.exp(-1j * k * phi)
    amp /= np.linalg.norm(amp)
    return CollectiveSpinState(n, _phase_normalized(amp))


def ghz(n_particles: int, rel_phase: float = 0.0) -> CollectiveSpinState:
    """GHZ / NOON state (|J,+J> + e^(i theta) |J,-J>) / sqrt(2): N an integer,
    not a bool, >= 1 (`spinops._count`), theta finite (`spinops._real`)."""
    n = _count("n_particles", n_particles, 1)
    rel_phase = _real("rel_phase", rel_phase)
    amp = np.zeros(n + 1, dtype=complex)
    amp[n] = 1.0 / math.sqrt(2.0)
    amp[0] = np.exp(1j * rel_phase) / math.sqrt(2.0)
    return CollectiveSpinState(n, _phase_normalized(amp))


def twin_fock(n_per_mode: int, cutoff: int | None = None) -> TwoModeFockState:
    """Twin Fock state |N>_a |N>_b.

    The cutoff must accommodate the Mach-Zehnder sequence, which can
    populate |2N, 0>; it defaults to exactly 2N.  N and the cutoff are
    integers, not bools, at least 0 and 2N (`spinops._count`).
    """
    n = _count("n_per_mode", n_per_mode, 0)
    cutoff = 2 * n if cutoff is None else _count("cutoff", cutoff, 2 * n)
    unit = np.eye(1, 2 * n + 1, n, dtype=complex)[0]  # n_a = N in the sector n_a = 0..2N
    return _from_sectors(cutoff, (2 * n,), unit)


def ecs_branch_tail(alpha: complex, cutoff: int) -> float:
    """Poisson weight e^(-|a|^2) sum_{n > cutoff} |a|^(2n) / n! of one branch,
    the dropped terms summed smallest first (`_branch_tails`), in time and
    memory O(max(cutoff, |a|^2)); the cutoff is a count (`spinops._count`)."""
    cutoff = _count("cutoff", cutoff, 0)
    lam = abs(alpha) ** 2
    if lam == 0.0:
        return 0.0
    return float(_branch_tails(lam, cutoff)[cutoff])


def _branch_tails(lam: float, top: int) -> np.ndarray:
    """tails[c] = e^(-lam) sum_{n > c} lam^n / n! for c = 0..top, lam > 0,
    from one reverse cumulative sum of the terms, so each tail is a sum
    of the dropped terms, smallest first, and never 1 - sum(kept).

    The sum stops 64 terms past M = max(top, ECS_MAX_CUTOFF, 2 lam).  Past
    M each term is at most half the one before, so what it leaves out is
    below 2^-63 p_(M+1), which is below 2^-63 of every tail it returns;
    and for every top <= ECS_MAX_CUTOFF it is the same sum."""
    last = max(top, ECS_MAX_CUTOFF, math.ceil(2.0 * lam)) + 64
    n = np.arange(last + 1)
    terms = np.exp(-lam + n * math.log(lam) - _log_factorials(last))
    return np.cumsum(terms[:0:-1])[::-1][: top + 1]


def _ecs_cutoff(lam: float) -> tuple[int, float]:
    """The smallest per-mode cutoff whose branch tail at |alpha|^2 = lam is
    below ``ECS_TAIL_BOUND``, and that tail (`ecs_branch_tail`'s value, bit
    for bit); TruncationError if none up to ``ECS_MAX_CUTOFF`` is.  Past a
    mean lam of ``ECS_MAX_CUTOFF`` about half the weight lies above the
    cap, so no tail is summed there."""
    if lam == 0.0:
        return 0, 0.0
    if lam <= ECS_MAX_CUTOFF:
        tails = _branch_tails(lam, ECS_MAX_CUTOFF)
        below = np.flatnonzero(tails < ECS_TAIL_BOUND)
        if below.size:
            return int(below[0]), float(tails[below[0]])
    raise TruncationError(
        f"no cutoff <= {ECS_MAX_CUTOFF} reaches branch tail < {ECS_TAIL_BOUND} "
        f"for |alpha|^2 = {lam}"
    )


def ecs(alpha: complex) -> TwoModeFockState:
    """Entangled coherent state N_a (|alpha>_a |0>_b + |0>_a |alpha>_b).

    The per-mode cutoff is the smallest one whose Poisson tail per branch
    stays below ``ECS_TAIL_BOUND`` (TruncationError if none up to
    ``ECS_MAX_CUTOFF`` does); the dropped weight is reported as the
    state's truncation deficit.  Both parts of alpha must be finite.
    """
    alpha = complex(alpha)
    for part in (alpha.real, alpha.imag):
        _real("alpha", part)
    params = EcsParams.from_alpha(alpha)
    lam = abs(alpha) ** 2
    cutoff, tail = _ecs_cutoff(lam)

    n = np.arange(cutoff + 1)
    # coherent branch: N_a e^(-|a|^2 / 2) a^n / sqrt(n!)
    if lam == 0.0:
        branch = np.zeros(cutoff + 1, dtype=complex)
        branch[0] = 1.0
    else:
        unit = alpha / abs(alpha)
        mag = np.exp(-0.5 * lam + n * math.log(abs(alpha)) - 0.5 * _log_factorials(cutoff))
        branch = mag * unit**n
    branch = params.norm_factor * branch

    # sector n holds |0, n> at start[n] and |n, 0> at start[n] + n; |0, n> is first
    # in grid and sector order, so `_phase_normalized` picks the grid's reference
    start = n * (n + 1) // 2
    amp = np.zeros(start[-1] + cutoff + 1, dtype=complex)
    amp[start + n] += branch  # |alpha>_a |0>_b
    amp[start] += branch  # |0>_a |alpha>_b (shared vacuum term doubles)
    deficit = 2.0 * params.norm_factor**2 * tail
    return _from_sectors(cutoff, tuple(range(cutoff + 1)), _phase_normalized(amp), deficit)
