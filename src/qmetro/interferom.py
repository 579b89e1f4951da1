"""Interferometer sequences and readouts.

The single-particle Mach-Zehnder and Ramsey share one 2x2 pipeline.
The collective Ramsey sequence composes the two pi/2 pulses about y
with the phase accumulation about z (rightmost factor first).  The
two-mode Mach-Zehnder acts sector-by-sector in total particle number n,
where the Schwinger map (a^dag b -> J+, with J = n/2 and
m = (n_a - n_b)/2) turns each beam splitter into a collective rotation
(Yurke, McCall & Klauder, PRA 33, 4033, 1986); this keeps each splitter
exactly unitary on the truncated space.

Both run one kernel, `_interfere`: each sector of the amplitude vector
goes to W (e^(i phi g) . x), with W and x built from V, the real
eigenvectors of Jx's band (Jx = V diag(m) V^T).  Each column of V
enters once as W and once in x, so the signs the solver gives the
columns cancel exactly.  Ramsey is one sector, W = V, g = -m and
x = V^T F psi, with F psi = e^(-i pi Jy) psi a signed reversal; each
Mach-Zehnder sector n is W = R^dag V, g = n_b and x = R V^T psi_n,
between the z gauges R = e^(-i pi m/2) and R^dag.  The phi-independent
(where, W, g, x) is built on a probe state's first call and kept with
it, so a call costs one phase and one product per sector; the output
state at a float phi is kept with it too (`_propagate`), so a phase the
probe has seen costs a dictionary lookup.

A value of one mode's number, a row of cutoff + 1 values, is read at a
two-mode state's occupied entries alone (`_mode_moments`), so
`parity_expectation` builds no grid; only the sweep's readout,
`parity_sector_povm`, spreads its row over the (cutoff + 1)^2 grid.
"""

from __future__ import annotations

import math

import numpy as np

from .estimate import PrecisionReport, Readout, _classical_fishers, _error_propagations
from .estimate import _quantum_fishers, _stencil, _store, cramer_rao, povm_family, readout_moments
from .spinops import ALL, CollectiveSpinState, _basis_tag, _count, _dicke_ladder, _jy_band
from .spinops import _mean_spin, _moments, _occupied, _occupied_in, _real, _real_matvec
from .spinops import _spin_covariance, rotate
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

# 50:50 splitter of the single-particle Mach-Zehnder (self-inverse Hadamard form)
SPLITTER_2X2 = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / math.sqrt(2.0)

# the one budget, in amplitudes (1 MB), of a phase-sweep block's stencil
# states and of a probe's kept outputs, each state charged by `_charge`
SWEEP_BLOCK = 1 << 16
SWEEP_STATES = 15  # stencil states per phase point: five for each of F, F_Q and error propagation
STATE_CHARGE = 64  # least charge of a state (1 kB): a kept N = 1 state's objects hold about 570 B


def _charge(state) -> int:
    """What a state costs against SWEEP_BLOCK: the amplitudes it stores
    (`spinops._occupied`), at least STATE_CHARGE."""
    return max(_occupied(state)[1].size, STATE_CHARGE)


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
    p(down|phi) = (1 + cos phi)/2.  H diag(e^{-i phi/2}, e^{i phi/2}) H is
    e^{-i phi/2} times the Mach-Zehnder's H diag(1, e^{i phi}) H, a global
    phase, so (p_down, p_up) = (p_a, p_b) of `mz_single_particle`.
    """
    return mz_single_particle(phi)


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
    the uncertainty ellipse without moving the mean spin;
    `optimal_readout_rotation` gives the angle that turns the narrowest
    quadrature onto Jz, in closed form over the full period [0, 2 pi).
    With d = d^J(pi/2) = exp(-i pi/2 Jy), d psi = d^T F psi for the
    half turn F = exp(-i pi Jy), (F psi)_k = (-1)^k psi_{N-k}, and d is
    the eigenvectors V of `spinops._jy_band` up to column signs, so the
    sequence d e^{-i phi m} d psi is V (e^{-i phi m} V^T F psi): one
    sector of `_interfere`, kept by `_first_pulse`.  Ramsey's sequence
    is unitary, but V's orthogonality error and the products' round-off
    leave the output's norm off 1 by about 1e-14, by an amount that
    changes with phi, and a finite-difference slope of a readout would
    take that change for signal (about 1e-9 of the slope near the fringe
    extrema at N = 2000); so the output is rescaled to unit norm after
    its norm check (the spin state's `_with_values` always rescales).
    The output before any readout rotation is kept with the probe by
    phase (`_propagate`).
    """
    state = _propagate(initial, phi, _first_pulse)
    if readout_rotation is not None:
        state = rotate(state, _mean_spin_axis(state), readout_rotation)
    return state


def _propagate(state, phi, first_half):
    """The output state ``state._with_values(_interfere(...))``
    at phi, kept with the probe.  A float phi (Python or numpy) keys its
    output by its exact value, the sign of a zero included, so a later
    call at the same phi returns the same frozen state and propagates
    nothing; any other phi is propagated every time.  The outputs are the
    {phi key: state} half of the probe's cache record (`_interfere`), in
    the order kept: a failed call keeps nothing, and the oldest are
    dropped before they would cost more than SWEEP_BLOCK.  A sweep block's
    five distinct stencil states per point cost a third of that at most,
    so none is dropped before the block reads it again."""
    key = (phi, math.copysign(1.0, phi)) if isinstance(phi, float) else None
    kept = vars(state).get("_kept")
    hit = None if kept is None else kept[1].get(key)
    if hit is not None:
        return hit
    out = state._with_values(_interfere(state, phi, first_half))
    if key is not None:
        outputs, charge = vars(state)["_kept"][1], _charge(out)
        while outputs and (len(outputs) + 1) * charge > SWEEP_BLOCK:
            del outputs[next(iter(outputs))]
        if charge <= SWEEP_BLOCK:
            outputs[key] = out
    return out


def _interfere(state, phi: float, first_half):
    """The kernel of `ramsey` and `mz_two_mode`: the output's amplitude
    vector, W (e^(i phi g) . x) in each sector, written at its place
    ``where``.  ``first_half(state)`` gives, once per probe state,
    the phi-independent half: per sector (where, product, W, g, x), with
    g complex (the phase then skips a cast) and ``product`` the
    matrix-vector product W takes (`_real_matvec` for a real W,
    `numpy.matmul` for a complex one).  The state keeps it, every array
    of it frozen in place, in its one cache record, the private attribute
    `_kept` = (half, outputs of `_propagate`), made with no outputs; a
    state whose first half raises keeps nothing.  A call costs one phase
    and one product per sector; the caller makes the output state, whose
    norm alone is checked (`_with_values`)."""
    kept = vars(state).get("_kept")
    if kept is None:
        kept = (first_half(state), {})
        for _, _, *arrays in kept[0]:
            for a in arrays:
                a.setflags(write=False)
        object.__setattr__(state, "_kept", kept)
    out = np.empty_like(_occupied(state)[1])
    for where, product, w, g, x in kept[0]:
        out[where] = product(w, np.exp(1j * phi * g) * x)
    return out


def _first_pulse(state: CollectiveSpinState) -> tuple:
    """Ramsey's half for `_interfere`: one sector, the whole vector, with
    W = V, the real eigenvectors `spinops._jy_band` gives for N, g = -m
    and x = V^T F psi.  The half holds its own V, so both products take
    one V and its column signs cancel."""
    n = state.n_particles
    _, v = _jy_band(n)
    flipped = (-1.0) ** np.arange(n + 1) * state.amplitudes[::-1]
    minus_m = -_dicke_ladder(n)[0].astype(complex)
    return ((ALL, _real_matvec, v, minus_m, _real_matvec(v.T, flipped)),)


def _mean_spin_axis(state: CollectiveSpinState) -> np.ndarray:
    axis, _ = _mean_spin(state)
    if axis is None:
        raise ValueError("mean spin vanishes; readout rotation axis undefined")
    return axis


def _readout_variance_series(state: CollectiveSpinState) -> np.ndarray:
    """The coefficients (a0, a1, b1, a2, b2) of

    Var Jz(theta) = a0 + a1 cos(theta) + b1 sin(theta) + a2 cos(2 theta) + b2 sin(2 theta)

    after a rotation by theta about the mean-spin axis n.  The rotation
    turns Jz into u.J with u = R(n, -theta) z = c n + cos(theta) p +
    sin(theta) q, where c = n_z, p = z - c n and q = -n x z, so the
    variance is u^T C u for the spin covariance C in the frame (n, p, q):
    the Gram matrix of the centered vectors (u_i.J - <u_i.J>) psi
    (`_spin_covariance`), so every variance in it is a sum of squares.
    """
    axis = _mean_spin_axis(state)
    c = axis[2]
    z = np.array([0.0, 0.0, 1.0])
    _, cov = _spin_covariance(state.amplitudes, (axis, z - c * axis, -np.cross(axis, z)))
    (c_nn, c_np, c_nq), (_, c_pp, c_pq), (_, _, c_qq) = cov
    a0 = c * c * c_nn + 0.5 * (c_pp + c_qq)
    return np.array([a0, 2.0 * c * c_np, 2.0 * c * c_nq, 0.5 * (c_pp - c_qq), c_pq])


def optimal_readout_rotation(state: CollectiveSpinState) -> float:
    """Rotation angle in [0, 2 pi) about the mean-spin axis minimizing Var(Jz).

    In closed form, with no search (Kitagawa & Ueda, PRA 47, 5138, 1993;
    Wineland et al., PRA 50, 67, 1994): Var Jz(theta) is the degree-2
    trigonometric polynomial of `_readout_variance_series`, of period
    2 pi unless the mean spin is perpendicular to z.  Its critical points
    are the roots of the quartic g2 z^4 + g1 z^3 + conj(g1) z + conj(g2)
    in z = e^{i theta}, with g1 = i(a1 - i b1) and g2 = 2i(a2 - i b2);
    the root angle of least variance is returned.  A polynomial that is
    identically zero has no roots (a mean spin along +-z, which the
    rotation leaves alone), and then the angle is 0.0.
    """
    _, a1, b1, a2, b2 = _readout_variance_series(state)
    g1, g2 = 1j * complex(a1, -b1), 2j * complex(a2, -b2)
    angles = np.angle(np.roots([g2, g1, 0.0, g1.conjugate(), g2.conjugate()])) % (2.0 * math.pi)
    if angles.size == 0:
        return 0.0
    values = a1 * np.cos(angles) + b1 * np.sin(angles)
    values += a2 * np.cos(2.0 * angles) + b2 * np.sin(2.0 * angles)
    best = float(angles[np.argmin(values)])
    return best if best < 2.0 * math.pi else 0.0  # -tiny % 2 pi rounds up to 2 pi


def mz_two_mode(state: TwoModeFockState, phi: float) -> TwoModeFockState:
    """Run the two-mode Mach-Zehnder sequence on a Fock-space state.

    Total particle number is conserved exactly: in the sector of total
    number n (basis ascending in n_a) the first splitter
    exp[(pi/4)(a^dag b - b^dag a)] is exp(+i pi/2 Jy), the phase is
    e^(i phi n_b), and the second splitter exp[-i(pi/4)(a^dag b + b^dag a)]
    is exp(-i pi/2 Jx), with J the collective spin of n particles.  With
    V the eigenvectors of Jx's real tridiagonal band, from one real
    `numpy.linalg.eigh` per occupied sector, and R = e^(-i pi m/2) =
    exp(-i pi/2 Jz), the sequence is R^dag V R e^(i phi n_b) V^T psi_n:
    V's columns are Wigner's d^J(pi/2) up to signs, which cancel, and
    the second splitter is R^dag d R.  Every occupied sector must fit
    under the cutoff (otherwise the splitter would leak amplitude off
    the grid).

    The state holds its occupied sectors as one vector
    (`statelib.TwoModeFockState`), and the output holds the same sectors
    at the same index; no grid is built.  Each sector, the vacuum among
    them, is one sector of `_interfere`, kept by `_first_splitter`, so a
    probe pays its `eigh` calls once, and its output is kept by phase
    (`_propagate`).
    """
    return _propagate(state, phi, _first_splitter)


def _first_splitter(state: TwoModeFockState) -> tuple:
    """The Mach-Zehnder's half for `_interfere`: for each occupied sector
    n, (its slice of the state's vector, `numpy.matmul`, R^dag V with
    R^dag = e^(i pi m/2), n_b, R V^T psi_n).  A state that fails the
    cutoff check raises before any `eigh`."""
    c = state.cutoff
    support, _, sectors = state._layout
    if support.size and int(support[-1]) > c:
        raise ValueError(f"cutoff {c} cannot hold total number {int(support[-1])}")
    _, values = state._occupied
    kept = []
    for n, sector in zip(support.tolist(), sectors):
        half_coupling = 0.5 * _dicke_ladder(n)[1]
        band = np.zeros((n + 1, n + 1))
        band.flat[1 :: n + 2] = half_coupling
        band.flat[n + 1 :: n + 2] = half_coupling
        v = np.linalg.eigh(band)[1]
        r_dag = np.exp(1j * (math.pi / 2.0) * _dicke_ladder(n)[0])
        split = r_dag.conj() * _real_matvec(v.T, values[sector])
        n_b = np.arange(n, -1, -1, dtype=complex)
        kept.append((sector, np.matmul, r_dag[:, None] * v, n_b, split))
    return tuple(kept)


def _mode_column(mode: str) -> int:
    """0 for mode a, 1 for mode b: where n_mode sits in (n_a, n_b)."""
    if mode not in ("a", "b"):
        raise ValueError(f"mode must be 'a' or 'b', got {mode!r}")
    return "ab".index(mode)


def parity_sector_povm(mode: str, cutoff: int) -> Readout:
    """Parity readout of one mode, value (-1)^n_mode: outcomes odd (-1),
    even (+1).  Bit for bit the `Readout` of that value, with its outcomes
    found on the row alone and spread over the grid as n_mode is."""
    cutoff = _count("cutoff", cutoff, 0)
    spread = (np.repeat, np.tile)[_mode_column(mode)]
    row = (-1.0) ** np.arange(cutoff + 1)
    outcome_values, outcome = np.unique(row, return_inverse=True)
    tag = _basis_tag("fock", cutoff)
    return _store(None, spread(row, cutoff + 1), tag, outcome_values, spread(outcome, cutoff + 1))


def _mode_moments(state, mode: str, row: np.ndarray) -> tuple[float, float]:
    """`readout_moments` of the value row[n_mode] on |n_a, n_b>, cutoff
    row.size - 1, bit for bit, read at the state's occupied entries alone:
    (n_a, n_b) = divmod(flat index, cutoff + 1), and no grid is built."""
    column, d = _mode_column(mode), row.size
    index, vec = _occupied_in(state, _basis_tag("fock", d - 1))
    flat = np.arange(vec.size) if index is ALL else index
    return _moments(vec, row[np.divmod(flat, d)[column]] * vec)


def parity_expectation(state: TwoModeFockState, mode: str) -> float:
    """<exp(i pi n_mode)>, the mean of the mode's parity readout, clamped
    to [-1, 1] when it lies within 1e-12 beyond +-1, which is round-off;
    further out it is an error."""
    mean = _mode_moments(state, mode, (-1.0) ** np.arange(state.cutoff + 1))[0]
    if not abs(mean) <= 1.0 + 1e-12:  # NaN fails too
        raise ValueError(f"parity {mean!r} outside [-1, 1] beyond round-off")
    return min(1.0, max(-1.0, mean))


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

    The grid is taken in blocks of the most points (at least one) whose
    SWEEP_STATES stencil states per point cost at most SWEEP_BLOCK, each
    state charged by `_charge`, as the kept outputs are.  The first block
    is sized on the family's first call, at the grid's first point, which
    is also that block's first `error_propagation` read; each later block
    on the largest state read so far by `error_propagation`, which reads
    every stencil state.  Each estimator reads a whole block at once: `classical_fisher`'s
    stencils as one probability table of `povm_family`,
    `qfi_from_family`'s as one array of states, and `error_propagation`'s
    as one `readout_moments` per stencil state (the slope from the outer
    four means, the noise from the variance at theta).  Each point costs
    the family 15 calls, at the thetas the scalar functions use, and every
    figure equals theirs bit for bit; as all three read the same five
    thetas (`estimate._stencil`), for a `ramsey` or `mz_two_mode` family
    of one probe these are 5 propagations and 10 kept outputs.  Checked
    before the family's first call: the repetitions are an integer, not a
    bool, >= 1 (`spinops._count`), and every grid point is finite (`spinops._real`).
    """
    repetitions = _count("repetitions", repetitions, 1)
    grid = np.asarray(phi_grid, dtype=float)
    if grid.ndim > 1:
        raise ValueError(f"phase grid must be a scalar or 1-D, got shape {grid.shape}")
    grid = np.atleast_1d(grid)
    if grid.size == 0:
        raise ValueError("phase grid must be non-empty")
    for phi in grid.tolist():
        _real("phase grid", phi)
    family = povm_family(state_family, readout)
    first = [state_family(grid[0])]  # sizes the first block, then is its first state read
    largest, start, reports = _charge(first[0]), 0, []
    while start < grid.size:
        block = grid[start : start + max(1, SWEEP_BLOCK // (SWEEP_STATES * largest))]
        start += block.size
        fishers = _classical_fishers(family, block)
        qfis = _quantum_fishers(state_family, block)
        states = [first.pop() if first else state_family(t) for t in _stencil(block).reshape(-1)]
        largest = max(largest, *map(_charge, states))
        moments = np.reshape([readout_moments(s, readout) for s in states], (5, block.size, 2))
        props = _error_propagations(moments[1:, :, 0], np.sqrt(moments[0, :, 1]))
        reports += [
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
            for phi, fisher, qfi, prop in zip(block, fishers, qfis, props)
        ]
    return reports
