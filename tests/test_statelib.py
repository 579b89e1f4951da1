import copy
import dataclasses
import importlib
import math
import pickle
import pkgutil
import tracemalloc

import numpy as np
import pytest
from conftest import align_phase
from hypothesis import given, settings
from hypothesis import strategies as st

import qmetro
from qmetro import (
    BasisTag,
    BjjParams,
    CollectiveSpinOperators,
    CollectiveSpinState,
    DistributionFamily,
    EcsParams,
    MonteCarloRun,
    OatParams,
    Observable,
    PrecisionReport,
    Readout,
    SpectralResult,
    SqueezingReport,
    TridiagonalHamiltonian,
    TruncationError,
    TwoModeFockState,
    bjj_hamiltonian,
    collective_ops,
    css,
    ecs,
    ecs_branch_tail,
    expectation_vector,
    ghz,
    moments,
    mz_two_mode,
    oat_evolve,
    parity_sector_povm,
    phase_sweep,
    ramsey,
    rotate,
    squeezing_parameters,
    twin_fock,
)
from qmetro.spinops import ALL, _basis_tag, _occupied
from qmetro.statelib import (
    ECS_MAX_CUTOFF,
    ECS_TAIL_BOUND,
    _ecs_cutoff,
    _log_factorials,
    _phase_normalized,
)

# the largest |alpha| whose cutoff fits under ECS_MAX_CUTOFF is 19.0729
ECS_EDGE_ALPHA = 19.07


def fsum_branch_tail(lam, cutoff):
    """e^(-lam) sum_{n > cutoff} lam^n / n!, correctly rounded over terms
    taken until they fall below 1e-40 of the largest one after cutoff."""
    terms, n = [], cutoff + 1
    while True:
        terms.append(math.exp(-lam + n * math.log(lam) - math.lgamma(n + 1)))
        if n > lam and terms[-1] < 1e-40 * max(terms):
            return math.fsum(terms)
        n += 1


def dense_twin_fock(n, cutoff):
    """|N, N> set in the dense grid and parsed by the grid constructor:
    the oracle of `twin_fock`."""
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    grid[n, n] = 1.0
    return TwoModeFockState(cutoff, grid)


def dense_ecs(alpha):
    """The two coherent branches added into the dense grid, phase-normalized
    over it and parsed by the grid constructor: the oracle of `ecs`."""
    alpha = complex(alpha)
    params = EcsParams.from_alpha(alpha)
    lam = abs(alpha) ** 2
    cutoff, tail = _ecs_cutoff(lam)
    n = np.arange(cutoff + 1)
    branch = np.zeros(cutoff + 1, dtype=complex)
    branch[0] = 1.0
    if lam:
        mag = np.exp(-0.5 * lam + n * math.log(abs(alpha)) - 0.5 * _log_factorials(cutoff))
        branch = mag * (alpha / abs(alpha)) ** n
    branch = params.norm_factor * branch
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    grid[:, 0] += branch
    grid[0, :] += branch
    return TwoModeFockState(cutoff, _phase_normalized(grid), 2.0 * params.norm_factor**2 * tail)


def assert_same_bits(state, oracle):
    assert (state.cutoff, state.truncation_deficit) == (oracle.cutoff, oracle.truncation_deficit)
    assert state.total_number_support().tolist() == oracle.total_number_support().tolist()
    assert _occupied(state)[0] is _occupied(oracle)[0]  # the one cached layout
    assert _occupied(state)[1].tobytes() == _occupied(oracle)[1].tobytes()


def mode_numbers(cutoff, sign):
    """n_a + sign * n_b on the Fock grid, as a dense diagonal observable."""
    n = np.arange(cutoff + 1)
    diag = (n[:, None] + sign * n[None, :]).reshape(-1).astype(float)
    return Observable(np.diag(diag), BasisTag("fock", cutoff))


def loop_css_amplitudes(n, theta, phi):
    """The per-k loop css used before it was vectorised, kept as the
    oracle.  It reads ln k! from the library's table: math.lgamma and
    scipy's gammaln differ by a few ulps on many integers, so an oracle
    on another log-gamma could not agree to the tolerance below.  Each
    exponential is numpy's, as in css: one magnitude an ulp off moves the
    norm by an ulp, and a subnormal amplitude (N = 1000, theta = 4 has
    some near 1e-309) divided by that norm can round a whole subnormal
    ulp away, far beyond the relative tolerance."""
    log_factorial = _log_factorials(n)

    def signed_power(base, exponent):
        if exponent == 0:
            return 1.0, 0.0
        if base == 0.0:
            return 0.0, -math.inf
        sign = -1.0 if (base < 0.0 and exponent % 2 == 1) else 1.0
        return sign, exponent * math.log(abs(base))

    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    k = np.arange(n + 1)
    log_binom_sqrt = 0.5 * (log_factorial[n] - log_factorial[k] - log_factorial[n - k])
    amp = np.zeros(n + 1, dtype=complex)
    for ki in range(n + 1):
        sc, lc = signed_power(c, n - ki)
        ss, ls = signed_power(s, ki)
        if sc * ss == 0.0:
            continue
        amp[ki] = sc * ss * np.exp(log_binom_sqrt[ki] + lc + ls) * np.exp(-1j * ki * phi)
    amp /= np.linalg.norm(amp)
    return _phase_normalized(amp)


class TestCss:
    @pytest.mark.parametrize("phi", [0.0, 1.0, -2.5])
    def test_theta_zero_is_all_down(self, phi):
        state = css(4, 0.0, phi)
        expected = np.zeros(5)
        expected[0] = 1.0
        np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)

    def test_n2_equator_amplitudes(self):
        # binomial expansion at theta = pi/2: sqrt(C(2,k))/2
        state = css(2, math.pi / 2, 0.0)
        np.testing.assert_allclose(
            state.amplitudes, [0.5, 1 / math.sqrt(2), 0.5], atol=1e-14
        )

    @pytest.mark.parametrize("n,theta", [(1, 0.3), (4, 1.0), (25, 2.2)])
    def test_jz_sign_convention(self, n, theta):
        # theta = 0 is all-down, so <Jz> = -J cos(theta)
        state = css(n, theta, 0.9)
        jz = expectation_vector(state)[2]
        assert jz == pytest.approx(-(n / 2) * math.cos(theta), abs=1e-10)

    @pytest.mark.parametrize("n,theta,phi", [(3, 0.8, 0.0), (6, 1.9, 1.3)])
    def test_bloch_transverse_components(self, n, theta, phi):
        jx, jy, _ = expectation_vector(css(n, theta, phi))
        j = n / 2
        assert jx == pytest.approx(j * math.sin(theta) * math.cos(phi), abs=1e-10)
        assert jy == pytest.approx(j * math.sin(theta) * math.sin(phi), abs=1e-10)

    @pytest.mark.parametrize("n", [1, 17, 170, 250])
    def test_unit_norm_large_n(self, n):
        # log-gamma accumulation keeps N >= 170 from overflowing
        state = css(n, 1.2, 0.4)
        assert abs(np.sum(np.abs(state.amplitudes) ** 2) - 1.0) <= 1e-12

    @given(
        n=st.integers(min_value=1, max_value=16),
        theta=st.floats(min_value=0.05, max_value=math.pi - 0.05),
        phi=st.floats(min_value=-math.pi, max_value=math.pi),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_rotation_of_all_down(self, n, theta, phi):
        # rotation by theta about the in-plane axis set by phi
        base = css(n, 0.0, 0.0)
        axis = np.array([math.sin(phi), -math.cos(phi), 0.0])
        rotated = rotate(base, axis, theta)
        expected = css(n, theta, phi).amplitudes
        np.testing.assert_allclose(
            align_phase(rotated.amplitudes, expected), expected, atol=1e-10
        )

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError):
            css(0, 0.1, 0.0)

    @pytest.mark.parametrize("n", [1, 2, 9, 170, 1000])
    @pytest.mark.parametrize(
        "theta,phi", [(0.0, 0.7), (math.pi, 0.0), (math.pi / 2, 0.0), (1.3, -2.1), (4.0, 0.4)]
    )
    def test_matches_the_per_k_loop(self, n, theta, phi):
        # the same arithmetic elementwise, numpy's exp on both sides; the
        # tolerance leaves an ulp or two of each amplitude to the order
        # of the operations
        expected = loop_css_amplitudes(n, theta, phi)
        got = css(n, theta, phi).amplitudes
        np.testing.assert_allclose(got, expected, rtol=8 * np.finfo(float).eps, atol=0)
        assert np.array_equal(got == 0, expected == 0)  # exact zeros stay exact


@pytest.mark.parametrize(
    "make,args,name",
    [
        (css, (3, math.nan, 0.0), "theta"),
        (css, (3, 0.3, math.inf), "phi"),
        (ghz, (3, math.nan), "rel_phase"),
    ],
    ids=["theta", "phi", "rel_phase"],
)
def test_a_non_finite_angle_is_named(make, args, name):
    # rejected before any arithmetic, which would warn first
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        make(*args)


class TestGhz:
    @pytest.mark.parametrize("n,phase", [(1, 0.0), (4, 1.1), (9, -0.6)])
    def test_jz_mean_zero(self, n, phase):
        assert expectation_vector(ghz(n, phase))[2] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("n", [2, 5, 20])
    def test_jz_variance_from_amplitudes(self, n):
        # direct moment computation on the two-amplitude vector
        state = ghz(n)
        m = state.m_values
        probs = np.abs(state.amplitudes) ** 2
        variance = float(probs @ m**2 - (probs @ m) ** 2)
        assert variance == pytest.approx(n**2 / 4, abs=1e-10)
        ops = collective_ops(n)
        _, var = moments(state, Observable(ops.jz, ops.basis_tag))
        assert var == pytest.approx(variance, abs=1e-10)

    def test_n1_zero_phase_is_equator_css(self):
        np.testing.assert_allclose(
            ghz(1, 0.0).amplitudes, css(1, math.pi / 2, 0.0).amplitudes, atol=1e-14
        )


class TestTwinFock:
    def test_n1_amplitudes(self):
        state = twin_fock(1)
        assert state.amplitudes[1, 1] == pytest.approx(1.0)
        assert np.sum(np.abs(state.amplitudes) ** 2) == pytest.approx(1.0)
        grid = np.array(state.amplitudes)
        grid[1, 1] = 0.0
        assert np.abs(grid).max() == 0.0

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_total_number(self, n):
        state = twin_fock(n)
        mean, var = moments(state, mode_numbers(state.cutoff, +1))
        assert mean == pytest.approx(2 * n, abs=1e-12)
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_number_difference_variance_zero(self):
        state = twin_fock(4)
        _, var = moments(state, mode_numbers(state.cutoff, -1))
        assert var == pytest.approx(0.0, abs=1e-12)

    def test_cutoff_must_hold_mz_output(self):
        with pytest.raises(ValueError, match="cutoff"):
            twin_fock(3, cutoff=5)

    @pytest.mark.parametrize("n", [0, 1, 5, 14])
    @pytest.mark.parametrize("extra", [0, 1, 7])
    def test_equals_the_grid_construction_bit_for_bit(self, n, extra):
        assert_same_bits(twin_fock(n, 2 * n + extra), dense_twin_fock(n, 2 * n + extra))

    def test_builds_no_grid(self):
        tracemalloc.start()
        try:
            twin_fock(2000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20  # the 4001^2 complex grid alone is 256 MB


class TestEcs:
    # at alpha = 10 the vacuum lies below the reference threshold of `_phase_normalized`
    @pytest.mark.parametrize("alpha", [0, 0.5, 4, 10, 3 + 2j, -1.5j])
    def test_equals_the_grid_construction_bit_for_bit(self, alpha):
        assert_same_bits(ecs(alpha), dense_ecs(alpha))

    def test_alpha_zero_is_vacuum(self):
        state = ecs(0.0)
        assert state.cutoff == 0
        assert state.amplitudes[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert state.truncation_deficit == 0.0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 1.5 + 0.5j])
    def test_mean_total_number(self, alpha):
        state = ecs(alpha)
        params = EcsParams.from_alpha(alpha)
        mean, _ = moments(state, mode_numbers(state.cutoff, +1))
        assert mean == pytest.approx(params.mean_total_number, abs=1e-10)

    def test_alpha_one_amplitudes(self):
        # direct expansion of the two coherent branches
        state = ecs(1.0)
        n_alpha = 1 / math.sqrt(2 * (1 + math.exp(-1)))
        coh = lambda n: math.exp(-0.5) / math.sqrt(math.factorial(n))
        assert state.amplitudes[0, 0] == pytest.approx(2 * n_alpha * coh(0), abs=1e-14)
        for n in (1, 2, 5):
            assert state.amplitudes[n, 0] == pytest.approx(
                n_alpha * coh(n), abs=1e-14
            )
            assert state.amplitudes[0, n] == pytest.approx(
                n_alpha * coh(n), abs=1e-14
            )

    def test_deficit_below_bound(self):
        for alpha in (0.5, 1.0, 2.0, 3.0):
            assert ecs(alpha).truncation_deficit < 1e-12

    def test_branch_tail_monotone_in_cutoff(self):
        tails = [ecs_branch_tail(2.0, c) for c in range(4, 40)]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    def test_deficit_matches_branch_tail(self):
        alpha = 1.3
        state = ecs(alpha)
        params = EcsParams.from_alpha(alpha)
        expected = 2 * params.norm_factor**2 * ecs_branch_tail(alpha, state.cutoff)
        assert state.truncation_deficit == pytest.approx(expected, rel=1e-12)

    def test_truncation_failure(self):
        with pytest.raises(TruncationError):
            ecs(30.0)

    def test_truncation_failure_far_past_the_cap_sums_no_tail(self):
        # a Poisson mean of 1e12 would need a 2e12-term sum; none is formed
        with pytest.raises(TruncationError):
            ecs(1e6)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 4.0, 6.0, 10.0, 12.2579, 15.0, 19.0])
    def test_branch_tail_matches_fsum_oracle(self, alpha):
        lam = alpha**2
        chosen, _ = _ecs_cutoff(lam)
        for cutoff in sorted({0, int(lam), chosen - 5, chosen - 1, chosen, chosen + 3}):
            assert ecs_branch_tail(alpha, cutoff) == pytest.approx(
                fsum_branch_tail(lam, cutoff), rel=1e-12
            )

    @pytest.mark.parametrize("alpha,cutoff", [(0.5, 10), (1.0, 15), (2.0, 26), (4.0, 53)])
    def test_cutoffs_of_the_cli_defaults(self, alpha, cutoff):
        assert ecs(alpha).cutoff == cutoff

    def test_cutoff_is_monotone_in_alpha_up_to_the_cap(self):
        # 1 - sum(kept) gave alpha = 12.038 the cutoff 243 but alpha = 12.056
        # the cutoff 242, and alpha = 10 the cutoff 181, whose true tail of
        # 1.23e-13 is above the bound
        alphas = np.linspace(0.001, ECS_EDGE_ALPHA, 3000)
        cutoffs = [_ecs_cutoff(a * a)[0] for a in alphas]
        assert all(a <= b for a, b in zip(cutoffs, cutoffs[1:]))
        assert cutoffs[-1] <= ECS_MAX_CUTOFF
        assert _ecs_cutoff(10.0**2)[0] == 182
        with pytest.raises(TruncationError):
            _ecs_cutoff(19.08**2)

    @pytest.mark.parametrize("alpha", np.linspace(0.3, ECS_EDGE_ALPHA, 40))
    def test_true_tail_at_the_cutoff_is_below_the_bound(self, alpha):
        lam = alpha**2
        cutoff, tail = _ecs_cutoff(lam)
        assert tail == ecs_branch_tail(alpha, cutoff)  # the same sum, bit for bit
        assert fsum_branch_tail(lam, cutoff) < ECS_TAIL_BOUND
        assert ecs_branch_tail(alpha, cutoff - 1) >= ECS_TAIL_BOUND

    def test_non_finite_alpha_rejected(self):
        with pytest.raises(ValueError):
            ecs(float("inf"))

    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, 1.5 + 0.5j, -0.3j])
    def test_norm_factor_closed_form(self, alpha):
        expected = 1 / math.sqrt(2 * (1 + math.exp(-abs(alpha) ** 2)))
        assert EcsParams.from_alpha(alpha).norm_factor == pytest.approx(expected, rel=1e-15)


class TestNormAndPhaseConventions:
    @pytest.mark.parametrize(
        "state",
        [
            css(5, 1.0, 2.0),
            css(1, 3.0, -1.0),
            ghz(4, 2.2),
            twin_fock(2),
            ecs(1.2),
        ],
    )
    def test_unit_norm(self, state):
        total = np.sum(np.abs(np.asarray(state.vector)) ** 2)
        deficit = getattr(state, "truncation_deficit", 0.0)
        assert abs(total + deficit - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "state",
        [css(5, 1.0, 2.0), ghz(4, 2.2), ghz(3, -0.7), ecs(0.8 + 0.6j)],
    )
    def test_first_nonzero_amplitude_real_positive(self, state):
        vec = np.asarray(state.vector)
        first = vec[np.flatnonzero(vec)[0]]
        assert first.imag == pytest.approx(0.0, abs=1e-14)
        assert first.real > 0

    def test_two_mode_state_validates_grid_shape(self):
        with pytest.raises(ValueError, match="grid"):
            TwoModeFockState(2, np.zeros((2, 2)))

    def test_two_mode_state_leaves_the_callers_array_writeable(self):
        grid = np.zeros((3, 3), dtype=complex)
        grid[1, 1] = 1.0
        state = TwoModeFockState(2, grid)
        grid[0, 0] = 0.5  # the caller's array is not frozen
        assert state.amplitudes[0, 0] == 0.0
        with pytest.raises(ValueError):
            state.amplitudes[0, 0] = 0.5

    def test_two_mode_state_rejects_nan_grid(self):
        with pytest.raises(ValueError, match="normalized"):
            TwoModeFockState(2, np.full((3, 3), np.nan, dtype=complex))

    @pytest.mark.parametrize(
        "grid",
        [
            np.full((3, 3), np.inf, dtype=complex),
            np.array([[1.0, 0.0], [complex(np.inf, np.nan), 0.0]]),
            np.array([[1.0, 0.0], [0.0, complex(0.0, -np.inf)]]),
        ],
    )
    def test_two_mode_state_rejects_inf_grid(self, grid):
        with pytest.raises(ValueError, match="normalized"):
            TwoModeFockState(grid.shape[0] - 1, grid)

    def test_two_mode_state_validates_norm(self):
        grid = np.zeros((3, 3), dtype=complex)
        grid[0, 0] = 0.5
        with pytest.raises(ValueError, match="normalized"):
            TwoModeFockState(2, grid)


def sparse_grid(cutoff, entries):
    grid = np.zeros((cutoff + 1, cutoff + 1), dtype=complex)
    for (na, nb), amp in entries.items():
        grid[na, nb] = amp
    return TwoModeFockState(cutoff, grid / np.linalg.norm(grid))


class TestTotalNumberSupport:
    @pytest.mark.parametrize(
        "state",
        [
            twin_fock(0),
            twin_fock(3),
            twin_fock(2, cutoff=7),
            ecs(1.0),
            sparse_grid(4, {(0, 0): 1.0}),  # only the vacuum
            sparse_grid(5, {(4, 1): 1j, (0, 2): -0.5, (2, 0): 0.5, (1, 1): 0.25}),
        ],
        ids=["vacuum-twin", "twin-3", "twin-2-cutoff-7", "ecs-1", "vacuum-only", "sparse"],
    )
    def test_equals_unique_total_numbers_of_nonzero_entries(self, state):
        na, nb = np.nonzero(state.amplitudes)
        support = state.total_number_support()
        assert support.dtype == np.unique(na + nb).dtype
        assert np.array_equal(support, np.unique(na + nb))

    def test_amplitude_whose_square_underflows_counts(self):
        grid = np.zeros((4, 4), dtype=complex)
        grid[0, 0], grid[1, 2] = 1.0, 1e-170j
        assert np.abs(grid[1, 2]) ** 2 == 0.0
        assert list(TwoModeFockState(3, grid).total_number_support()) == [0, 3]

    def test_read_only_and_computed_once(self):
        state = ecs(0.5)
        support = state.total_number_support()
        assert state.total_number_support() is support
        with pytest.raises(ValueError):
            support[0] = 7


def spin_amplitudes(norm_sq):
    """N = 1 amplitudes of squared norm ``norm_sq``."""
    return np.array([math.sqrt(norm_sq), 0.0], dtype=complex)


def fock_grid(norm_sq):
    """The cutoff-1 grid holding |1, 0> at squared norm ``norm_sq``."""
    grid = np.zeros((2, 2), dtype=complex)
    grid[1, 0] = math.sqrt(norm_sq)
    return grid


LIBRARY_STATES = {
    "css": lambda: css(12, 0.7, 0.2),
    "ghz": lambda: ghz(6, 0.4),
    "twin-fock": lambda: twin_fock(4),
    "ecs": lambda: ecs(1.2),
    "spin-constructor": lambda: CollectiveSpinState(1, spin_amplitudes(1.0)),
    "fock-constructor": lambda: TwoModeFockState(1, fock_grid(1.0)),
    "spin-with-values": lambda: css(3, 1.0, 0.0)._with_values(np.full(4, 0.5, dtype=complex)),
    "fock-with-values": lambda: twin_fock(2)._with_values(np.eye(1, 5, 1, dtype=complex)[0]),
    "ramsey": lambda: ramsey(css(12, 0.7, 0.2), 0.9),
    "ramsey-rotated": lambda: ramsey(css(12, 0.7, 0.2), 0.9, readout_rotation=0.3),
    "mz-two-mode": lambda: mz_two_mode(twin_fock(4), 0.9),
    "rotate": lambda: rotate(ghz(6), [0.0, 1.0, 0.0], 0.5),
    "oat-evolve": lambda: oat_evolve(css(12, math.pi / 2, 0.0), OatParams(chi=0.1, t=1.0)),
    "pickled-css": lambda: pickle.loads(pickle.dumps(css(12, 0.7, 0.2))),
    "pickled-ecs": lambda: pickle.loads(pickle.dumps(ecs(1.2))),
    "copied-css": lambda: copy.copy(css(12, 0.7, 0.2)),
    "deep-copied-twin-fock": lambda: copy.deepcopy(twin_fock(4)),
}


class TestOneStateStore:
    """Every state the library makes is kept by the one store,
    `spinops._take`: it checks the norm, freezes the amplitudes in place
    and records them as ``_occupied`` = (index, values)."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: CollectiveSpinState(1, spin_amplitudes(1.0 + 2e-12)),
            lambda: TwoModeFockState(1, fock_grid(1.0 + 2e-12)),
            lambda: TwoModeFockState(1, fock_grid(1.0), truncation_deficit=5e-11),
        ],
        ids=["spin", "fock", "fock-deficit"],
    )
    def test_both_state_types_raise_from_the_one_store(self, make):
        with pytest.raises(ValueError, match=r"^state not normalized: sum \|c\|\^2 = ") as exc:
            make()
        assert exc.traceback[-1].name == "_take"
        assert exc.traceback[-1].path.name == "spinops.py"

    def test_a_spin_state_with_new_values_is_rescaled_to_unit_norm(self):
        # Ramsey's output: the norm check passes 1 + 1e-13, then the values
        # are divided in place by their norm
        values = css(3, 0.7, 0.2).amplitudes * math.sqrt(1.0 + 1e-13)
        out = css(3, 0.7, 0.2)._with_values(values)
        assert out.amplitudes is values
        assert abs(np.vdot(values, values).real - 1.0) <= np.finfo(float).eps

    def test_a_two_mode_state_is_checked_against_one_less_its_deficit(self):
        state = TwoModeFockState(1, fock_grid(1.0 - 5e-11), truncation_deficit=5e-11)
        assert state.truncation_deficit == 5e-11

    @pytest.mark.parametrize("name", list(LIBRARY_STATES))
    def test_every_library_state_carries_its_occupied_amplitudes(self, name):
        state = LIBRARY_STATES[name]()
        index, values = vars(state)["_occupied"]
        assert _occupied(state) is vars(state)["_occupied"]
        assert not values.flags.writeable
        if isinstance(state, CollectiveSpinState):
            assert index is ALL
            assert values is state.amplitudes
        else:
            assert index is state._layout[1]
            assert np.array_equal(state.vector[index], values)

    def test_a_ramsey_sweep_never_reads_the_spin_vector(self, monkeypatch):
        def unread(state):
            raise RuntimeError("the sweep read the spin vector")

        probe = css(40, math.pi / 2, 0.0)
        readout = Readout(probe.m_values, probe.basis_tag)
        expected = phase_sweep(lambda phi: ramsey(css(40, math.pi / 2, 0.0), phi), readout, [0.3, 1.1])
        monkeypatch.setattr(CollectiveSpinState, "vector", property(unread))
        got = phase_sweep(lambda phi: ramsey(probe, phi), readout, [0.3, 1.1])
        assert got == expected

    def test_duck_typed_states_and_bare_vectors_read_as_all_of_their_vector(self):
        vector = np.array([0.6, 0.8j])
        duck = type("Duck", (), {"vector": vector, "basis_tag": _basis_tag("spin", 1)})()
        for state in (duck, vector, [0.6, 0.8j]):
            index, values = _occupied(state)
            assert index is ALL
            assert values.dtype == complex and np.array_equal(values, vector)


ROUND_TRIPS = {"pickle": lambda state: pickle.loads(pickle.dumps(state)), "deepcopy": copy.deepcopy}

SWEPT_PROBES = {
    "css": (lambda: css(60, 0.7, 0.2), ramsey, lambda s: Readout(s.m_values, s.basis_tag)),
    "twin-fock": (lambda: twin_fock(20), mz_two_mode, lambda s: parity_sector_povm("b", s.cutoff)),
    "ecs": (lambda: ecs(1.5), mz_two_mode, lambda s: parity_sector_povm("b", s.cutoff)),
}


class TestPickleAndCopy:
    """A pickled or deep-copied state is the same frozen value, without the
    caches a state keeps privately (kept half, kept outputs, dense grid)."""

    @pytest.mark.parametrize("trip", list(ROUND_TRIPS))
    @pytest.mark.parametrize("name", list(SWEPT_PROBES))
    def test_a_swept_probe_comes_back_frozen_and_without_caches(self, name, trip):
        make, sequence, readout = SWEPT_PROBES[name]
        fresh = len(pickle.dumps(make()))
        probe = make()
        phase_sweep(lambda phi: sequence(probe, phi), readout(probe), [0.3, 0.9, 1.4])
        grid = probe.amplitudes  # the two-mode grid, now cached on the probe
        assert "_kept" in vars(probe)
        assert len(pickle.dumps(probe)) == fresh

        back = ROUND_TRIPS[trip](probe)
        assert type(back) is type(probe)
        assert "_kept" not in vars(back)
        if isinstance(back, TwoModeFockState):
            assert "amplitudes" not in vars(back)
            assert back.cutoff == probe.cutoff
            assert back.truncation_deficit == probe.truncation_deficit
        assert back.basis_tag is probe.basis_tag
        for array in (_occupied(back)[1], back.amplitudes):
            assert not array.flags.writeable
        assert np.array_equal(back.amplitudes, grid)
        again = _occupied(sequence(back, 0.7))[1]
        assert again.tobytes() == _occupied(sequence(make(), 0.7))[1].tobytes()


VALUE_TYPES = {
    "readout": lambda: Readout(np.arange(5.0), _basis_tag("spin", 4)),
    "parity-readout": lambda: parity_sector_povm("b", 3),
    "spin-operators": lambda: collective_ops(3),
    "observable": lambda: Observable(np.diag([1.0, -1.0]), BasisTag("spin", 1)),
    "tridiagonal-hamiltonian": lambda: bjj_hamiltonian(BjjParams(4, 1.0, charging_energy=1.0)),
    "spectral-result": lambda: SpectralResult(np.array([-1.0, 1.0]), np.eye(2), False),
    "squeezing-report": lambda: squeezing_parameters(css(10, 1.2, 0.3)),
    "monte-carlo-run": lambda: MonteCarloRun(0, 10, 0.5, [0.4, 0.6], 0.0, 0.01),
}


class TestValueTypesRoundTrip:
    """A pickled or deep-copied value is rebuilt by its constructor: its
    arrays come back equal and read-only, and its tag is the shared one."""

    @pytest.mark.parametrize("trip", list(ROUND_TRIPS))
    @pytest.mark.parametrize("name", list(VALUE_TYPES))
    def test_comes_back_equal_and_frozen(self, name, trip):
        value = VALUE_TYPES[name]()
        back = ROUND_TRIPS[trip](value)
        assert type(back) is type(value)
        for field in dataclasses.fields(value):
            old, new = getattr(value, field.name), getattr(back, field.name)
            if isinstance(old, np.ndarray):
                assert not new.flags.writeable
                assert new.dtype == old.dtype and np.array_equal(new, old)
            elif isinstance(old, BasisTag):
                assert new is _basis_tag(old.kind, old.size)
            else:
                assert new == old

    @pytest.mark.parametrize("trip", list(ROUND_TRIPS))
    def test_a_basis_tag_comes_back_as_the_shared_one(self, trip):
        assert ROUND_TRIPS[trip](BasisTag("fock", 3)) is _basis_tag("fock", 3)


ARRAY_TYPES = {
    Readout,
    CollectiveSpinOperators,
    Observable,
    MonteCarloRun,
    SqueezingReport,
    TridiagonalHamiltonian,
    SpectralResult,
}
STATES = {"css": lambda: css(3, 0.4, 0.1), "two-mode": lambda: twin_fock(2)}


def coin(theta):
    return np.array([theta, 1.0 - theta])


SCALAR_TYPES = {
    "basis-tag": lambda: BasisTag("spin", 3),
    "oat-params": lambda: OatParams(chi=0.1, t=1.0, omega=0.5),
    "bjj-params": lambda: BjjParams(4, 1.0, charging_energy=2.0),
    "ecs-params": lambda: EcsParams.from_alpha(1.5),
    "precision-report": lambda: PrecisionReport(0.3, 2.0, 4.0, 1, 0.7, 0.5, 0.8),
    "distribution-family": lambda: DistributionFamily((0, 1), coin),
}


class TestValueTypeEquality:
    """Every frozen type that holds arrays, the two state classes among
    them, compares and hashes by identity; the scalar-only types compare
    by value."""

    def test_every_array_type_is_covered(self):
        held = set()
        for module in pkgutil.iter_modules(qmetro.__path__):
            for cls in vars(importlib.import_module(f"qmetro.{module.name}")).values():
                if dataclasses.is_dataclass(cls) and isinstance(cls, type):
                    if any(f.type in (np.ndarray, "np.ndarray") for f in dataclasses.fields(cls)):
                        held.add(cls)
        assert held == ARRAY_TYPES | {type(css(1, 0.0, 0.0))}
        assert all(cls.__eq__ is object.__eq__ and cls.__hash__ is object.__hash__ for cls in held)
        assert {type(make()) for make in VALUE_TYPES.values()} == ARRAY_TYPES

    @pytest.mark.parametrize("name", [*VALUE_TYPES, *STATES])
    def test_compares_and_hashes_by_identity(self, name):
        value = {**VALUE_TYPES, **STATES}[name]()
        twin = copy.deepcopy(value)
        assert type(value).__eq__ is object.__eq__ and type(value).__hash__ is object.__hash__
        assert value == value and value != twin and not value != value
        assert hash(value) == hash(value)
        assert len({value, twin, value}) == 2

    @pytest.mark.parametrize("name", list(SCALAR_TYPES))
    def test_scalar_only_types_compare_by_value(self, name):
        a, b = SCALAR_TYPES[name](), SCALAR_TYPES[name]()
        assert a is not b
        assert a == b and hash(a) == hash(b)


class TestLogFactorials:
    @pytest.mark.parametrize("n", [0, 1, 170, 1023, 1024, 5000])
    def test_entries_are_lgamma_and_read_only(self, n):
        table = _log_factorials(n)
        assert table.shape == (n + 1,)
        assert table.tolist() == [math.lgamma(k + 1) for k in range(n + 1)]
        with pytest.raises(ValueError):
            table[0] = 1.0

    def test_a_longer_table_keeps_every_entry(self):
        short = _log_factorials(700).copy()
        _log_factorials(9000)
        assert np.array_equal(_log_factorials(700), short)
        assert np.array_equal(_log_factorials(9000)[:701], short)
