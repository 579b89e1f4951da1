import math

import numpy as np
import pytest
from conftest import align_phase
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetro import (
    BasisTag,
    EcsParams,
    Observable,
    TruncationError,
    TwoModeFockState,
    collective_ops,
    css,
    ecs,
    ecs_branch_tail,
    expectation_vector,
    ghz,
    moments,
    rotate,
    twin_fock,
)
from qmetro.statelib import ECS_MAX_CUTOFF, ECS_TAIL_BOUND, _ecs_cutoff, _phase_normalized

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


def mode_numbers(cutoff, sign):
    """n_a + sign * n_b on the Fock grid, as a dense diagonal observable."""
    n = np.arange(cutoff + 1)
    diag = (n[:, None] + sign * n[None, :]).reshape(-1).astype(float)
    return Observable(np.diag(diag), BasisTag("fock", cutoff))


def loop_css_amplitudes(n, theta, phi):
    """The per-k loop css used before it was vectorised, kept as the oracle."""
    from scipy.special import gammaln

    def signed_power(base, exponent):
        if exponent == 0:
            return 1.0, 0.0
        if base == 0.0:
            return 0.0, -math.inf
        sign = -1.0 if (base < 0.0 and exponent % 2 == 1) else 1.0
        return sign, exponent * math.log(abs(base))

    c, s = math.cos(0.5 * theta), math.sin(0.5 * theta)
    k = np.arange(n + 1)
    log_binom_sqrt = 0.5 * (gammaln(n + 1) - gammaln(k + 1) - gammaln(n - k + 1))
    amp = np.zeros(n + 1, dtype=complex)
    for ki in range(n + 1):
        sc, lc = signed_power(c, n - ki)
        ss, ls = signed_power(s, ki)
        if sc * ss == 0.0:
            continue
        amp[ki] = sc * ss * math.exp(log_binom_sqrt[ki] + lc + ls) * np.exp(-1j * ki * phi)
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
        # the same arithmetic elementwise: only numpy's exp and log may
        # round differently from math's, by an ulp or two of each amplitude
        expected = loop_css_amplitudes(n, theta, phi)
        got = css(n, theta, phi).amplitudes
        np.testing.assert_allclose(got, expected, rtol=8 * np.finfo(float).eps, atol=0)
        assert np.array_equal(got == 0, expected == 0)  # exact zeros stay exact


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


class TestEcs:
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
