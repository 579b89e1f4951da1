import collections
import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetro import (
    BasisTag,
    CollectiveSpinState,
    DistributionFamily,
    InvalidDistributionError,
    InvalidFamilyError,
    MonteCarloRun,
    Observable,
    Readout,
    TwoModeFockState,
    classical_fisher,
    collective_ops,
    cramer_rao,
    css,
    error_propagation,
    ghz,
    moments,
    mz_two_mode,
    parity_expectation,
    parity_sector_povm,
    povm_family,
    povm_probabilities,
    projective_povm,
    qfi_from_family,
    qfi_generator,
    ramsey,
    readout_moments,
    rotate,
    run_monte_carlo,
    twin_fock,
)
from qmetro import estimate
from qmetro._search import grid_then_golden_many
from qmetro.cli import _MONTE_CARLO_COIN
from qmetro.estimate import _minus_log_likelihoods, _observed_patterns
from qmetro.spinops import evolve
from search_oracles import _log_likelihood, grid_then_golden


def spin_obs(n, which="z"):
    ops = collective_ops(n)
    return Observable(getattr(ops, f"j{which}"), ops.basis_tag)


def ramsey_single_family():
    return DistributionFamily(
        outcome_labels=("down", "up"),
        prob_at=lambda phi: np.array(
            [math.cos(phi / 2) ** 2, math.sin(phi / 2) ** 2]
        ),
    )


def bernoulli_family():
    return DistributionFamily(
        outcome_labels=("heads", "tails"),
        prob_at=lambda theta: np.array([theta, 1.0 - theta]),
        derivative=lambda theta: np.array([1.0, -1.0]),
    )


class TestClassicalFisher:
    def test_single_atom_ramsey_flat(self):
        family = ramsey_single_family()
        for phi in np.linspace(0.05, math.pi - 0.05, 25):
            assert classical_fisher(family, phi) == pytest.approx(1.0, abs=1e-9)

    def test_bernoulli_analytic(self):
        # d/dtheta of the two-outcome sum gives 1/(theta(1-theta))
        family = bernoulli_family()
        assert classical_fisher(family, 0.3) == pytest.approx(
            1.0 / (0.3 * 0.7), rel=1e-12
        )
        assert classical_fisher(family, 0.3) == pytest.approx(
            4.761904761904762, rel=1e-12
        )

    def test_bernoulli_finite_difference_agrees(self):
        family = DistributionFamily(
            outcome_labels=("heads", "tails"),
            prob_at=lambda theta: np.array([theta, 1.0 - theta]),
        )
        assert classical_fisher(family, 0.3) == pytest.approx(
            1.0 / (0.3 * 0.7), rel=1e-9
        )

    def test_theta_independent_is_zero(self):
        family = DistributionFamily(
            outcome_labels=("x", "y", "z"),
            prob_at=lambda theta: np.array([0.2, 0.3, 0.5]),
        )
        assert classical_fisher(family, 1.234) == 0.0

    def test_negative_probability_rejected(self):
        family = DistributionFamily(
            outcome_labels=("a", "b"),
            prob_at=lambda theta: np.array([1.2, -0.2]),
        )
        with pytest.raises(InvalidDistributionError):
            classical_fisher(family, 0.5)

    def test_unnormalized_rejected(self):
        family = DistributionFamily(
            outcome_labels=("a", "b"),
            prob_at=lambda theta: np.array([0.5, 0.4]),
        )
        with pytest.raises(InvalidDistributionError):
            classical_fisher(family, 0.5)

    def test_outcome_permutation_invariance(self):
        base = ramsey_single_family()
        flipped = DistributionFamily(
            outcome_labels=("up", "down"),
            prob_at=lambda phi: base.prob_at(phi)[::-1],
        )
        for phi in (0.4, 1.1, 2.6):
            assert classical_fisher(base, phi) == pytest.approx(
                classical_fisher(flipped, phi), abs=1e-8
            )

    def test_outcome_refinement_never_loses_information(self):
        # merging outcomes can only lose information
        n = 4
        state_family = lambda phi: ramsey(css(n, 0.0, 0.0), phi)
        fine = povm_family(state_family, projective_povm(BasisTag("spin", n)))
        m = np.diag(collective_ops(n).jz).real
        coarse = povm_family(state_family, Readout((m > 0).astype(int), BasisTag("spin", n)))
        for phi in (0.5, 1.2):
            assert classical_fisher(fine, phi) >= classical_fisher(coarse, phi) - 1e-9


def dense_readout_probabilities(vec, value):
    """<psi| diag(value == v) |psi> for each distinct value v, ascending: the
    dense POVM form, kept as the reference for the readout."""
    vec = np.asarray(vec, dtype=complex)
    probs = []
    for v in np.unique(value):
        element = np.diag((value == v).astype(complex))
        probs.append(np.vdot(vec, element @ vec).real)
    return np.array(probs)


class TestPovm:
    def test_css_dicke_projection_is_binomial(self):
        n = 6
        state = css(n, math.pi / 2, 0.0)
        probs = povm_probabilities(state, projective_povm(state.basis_tag))
        expected = np.array([math.comb(n, k) for k in range(n + 1)]) / 2**n
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_identity_povm(self):
        readout = Readout(np.zeros(3, dtype=int), BasisTag("spin", 2))
        probs = povm_probabilities(css(2, 0.7, 0.1), readout)
        assert probs.shape == (1,)
        assert probs[0] == pytest.approx(1.0, abs=1e-12)

    def test_parity_sectors_on_twin_fock_at_zero_phase(self):
        state = mz_two_mode(twin_fock(1), 0.0)
        povm = parity_sector_povm("b", state.cutoff)
        probs = povm_probabilities(state, povm)  # outcomes (odd, even)
        np.testing.assert_allclose(probs, [0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 5, 14])
    def test_parity_sector_contrast_is_parity_expectation(self, n):
        probe = twin_fock(n)
        readout = parity_sector_povm("b", probe.cutoff)
        for phi in (0.0, 0.013, 0.4, 1.1, 2.9):
            state = mz_two_mode(probe, phi)
            odd, even = povm_probabilities(state, readout)
            assert even - odd == pytest.approx(parity_expectation(state, "b"), abs=1e-14)

    @given(
        space=st.one_of(
            st.tuples(st.just("spin"), st.integers(min_value=1, max_value=40)),
            st.tuples(st.just("fock"), st.integers(min_value=0, max_value=12)),
        ),
        outcomes=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_quadratic_form(self, space, outcomes, seed):
        kind, size = space
        tag = BasisTag(kind, size)
        rng = np.random.default_rng(seed)
        vec = rng.normal(size=tag.dim) + 1j * rng.normal(size=tag.dim)
        vec /= np.linalg.norm(vec)
        if kind == "spin":
            state = CollectiveSpinState(size, vec)
        else:
            state = TwoModeFockState(size, vec.reshape(size + 1, size + 1))
        # real values, negative ones included, drawn from `outcomes` distinct ones
        value = rng.normal(size=outcomes)[rng.integers(0, outcomes, size=tag.dim)]
        readout = Readout(value, tag)
        # both sides sum dim non-negative terms of total 1, in different
        # orders: each sum is within (dim - 1) eps of exact, each term within eps
        np.testing.assert_allclose(
            povm_probabilities(state, readout),
            dense_readout_probabilities(state.vector, value),
            rtol=0,
            atol=2 * tag.dim * np.finfo(float).eps,
        )

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            Readout(np.arange(3), BasisTag("spin", 1))
        with pytest.raises(ValueError, match="shape"):
            Readout(np.zeros((2, 2), dtype=int), BasisTag("fock", 1))

    def test_outcomes_ascend_in_value_order(self):
        readout = Readout(np.array([1.5, -1.0, 0.0, -1.0]), BasisTag("spin", 3))
        np.testing.assert_array_equal(readout.outcome_values, [-1.0, 0.0, 1.5])
        assert readout.outcome.tolist() == [2, 0, 1, 0]
        assert len(readout) == 3
        # Jz's values are its m, negative ones first
        jz = Readout(css(4, 0.3, 0.0).m_values, BasisTag("spin", 4))
        np.testing.assert_array_equal(jz.outcome_values, [-2.0, -1.0, 0.0, 1.0, 2.0])
        assert jz.outcome.tolist() == [0, 1, 2, 3, 4]

    def test_non_real_values_rejected(self):
        for value in (np.array([0, 1j]), np.array([1.0 + 0j, 0.0]), np.array(["0", "1"])):
            with pytest.raises(ValueError, match="real"):
                Readout(value, BasisTag("spin", 1))

    def test_non_finite_values_rejected(self):
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                Readout(np.array([0.0, bad]), BasisTag("spin", 1))

    def test_values_read_only(self):
        value = np.array([0.5, -0.5, 0.5])
        readout = Readout(value, BasisTag("spin", 2))
        value[0] = 2.0
        assert readout.value.tolist() == [0.5, -0.5, 0.5]
        for array in (readout.value, readout.outcome_values, readout.outcome):
            with pytest.raises(ValueError):
                array[0] = 0

    def test_outcome_labels_read_only(self):
        labels = np.array([1, 0, 1])
        readout = Readout(labels, BasisTag("spin", 2))
        labels[0] = 0
        assert readout.outcome.tolist() == [1, 0, 1]
        with pytest.raises(ValueError):
            readout.outcome[0] = 0

    def test_basis_mismatch(self):
        povm = projective_povm(BasisTag("spin", 2))
        with pytest.raises(ValueError, match="basis"):
            povm_probabilities(css(3, 0.2, 0.0), povm)
        with pytest.raises(ValueError, match="basis"):
            readout_moments(css(3, 0.2, 0.0), povm)

    @pytest.mark.parametrize("n", [1, 4, 30])
    def test_readout_moments_match_dense_moments(self, n):
        state = rotate(css(n, 0.9, 0.4), (0.6, 0.0, 0.8), 0.7)
        readout = Readout(state.m_values, state.basis_tag)
        assert readout_moments(state, readout) == moments(state, spin_obs(n))


class TestQfi:
    @pytest.mark.parametrize("n", [1, 2, 10, 50])
    def test_ghz_generator_jz(self, n):
        assert qfi_generator(ghz(n), spin_obs(n)) == pytest.approx(
            n**2, abs=1e-8
        )

    def test_generator_eigenstate_zero(self):
        assert qfi_generator(css(4, 0.0, 0.0), spin_obs(4)) == pytest.approx(
            0.0, abs=1e-12
        )

    @pytest.mark.parametrize("n", [1, 3, 12])
    def test_equator_css_jz(self, n):
        state = css(n, math.pi / 2, 0.0)
        assert qfi_generator(state, spin_obs(n)) == pytest.approx(n, abs=1e-8)

    @pytest.mark.parametrize(
        "state,which",
        [
            (css(5, math.pi / 2, 0.0), "z"),
            (css(5, 1.1, 0.7), "x"),
            (ghz(7), "z"),
            (rotate(ghz(4), (0.0, 1.0, 0.0), 0.4), "y"),
        ],
    )
    def test_family_form_matches_generator_form(self, state, which):
        n = state.n_particles
        obs = spin_obs(n, which)

        def family(theta):
            return evolve(state.amplitudes, obs.matrix, theta)

        expected = qfi_generator(state, obs)
        got = qfi_from_family(family, 0.35)
        assert got == pytest.approx(expected, rel=1e-6, abs=1e-9)

    def test_global_phase_family_is_zero(self):
        base = css(3, 0.8, 0.2).amplitudes

        def family(theta):
            return np.exp(1j * theta) * base

        assert qfi_from_family(family, 0.5) == pytest.approx(0.0, abs=1e-8)

    def test_norm_drift_rejected(self):
        base = css(3, 0.8, 0.2).amplitudes

        def family(theta):
            return (1.0 + theta) * base

        with pytest.raises(InvalidFamilyError):
            qfi_from_family(family, 0.5)

    @staticmethod
    def two_sector_family(theta):
        """cos(theta) |2,0> + sin(theta) |0,1>: at theta = 0 exactly the
        state occupies sector 2 only, beside it sectors 1 and 2."""
        grid = np.zeros((3, 3), dtype=complex)
        grid[2, 0], grid[0, 1] = math.cos(theta), math.sin(theta)
        return TwoModeFockState(2, grid)

    def test_stencil_states_on_different_sectors_use_their_union(self):
        # F_Q = 4 (<psi'|psi'> - |<psi|psi'>|^2) = 4 for a rotation between two
        # orthogonal states, also where one of them has no amplitude
        dense = qfi_from_family(lambda t: self.two_sector_family(t).vector, 0.0)
        got = qfi_from_family(self.two_sector_family, 0.0)
        assert got == pytest.approx(4.0, abs=1e-8)
        assert got == pytest.approx(dense, rel=1e-12)

    def test_stencil_states_in_different_bases_rejected(self):
        def family(theta):
            return twin_fock(1, cutoff=2 if theta < 0.5 else 3)

        with pytest.raises(InvalidFamilyError, match="basis"):
            qfi_from_family(family, 0.5)


class TestNanGuards:
    """A NaN compares false to every tolerance, so each guard must reject
    it rather than let it through as "not too far off"."""

    @staticmethod
    def nan_family():
        return DistributionFamily(
            outcome_labels=("a", "b"), prob_at=lambda theta: np.array([np.nan, np.nan])
        )

    def test_family_probabilities_reject_nan(self):
        with pytest.raises(InvalidDistributionError, match="nan"):
            self.nan_family().probabilities(0.3)

    def test_family_table_rejects_a_nan_row(self):
        family = DistributionFamily(
            outcome_labels=("a", "b"),
            prob_at=lambda theta: np.array([np.nan, 1.0]) if theta > 0.5 else np.array([0.5, 0.5]),
        )
        with pytest.raises(InvalidDistributionError, match="theta=0.7"):
            family._probability_table([0.1, 0.7])

    def test_classical_fisher_rejects_nan_family(self):
        with pytest.raises(InvalidDistributionError):
            classical_fisher(self.nan_family(), 0.3)

    def test_readout_probabilities_reject_nan_vector(self):
        tag = BasisTag("spin", 2)
        state = SimpleNamespace(vector=np.array([np.nan, 0.0, 0.0]), basis_tag=tag)
        with pytest.raises(ValueError, match="sum to"):
            povm_probabilities(state, projective_povm(tag))

    def test_qfi_from_family_rejects_nan_family(self):
        with pytest.raises(InvalidFamilyError, match="nan"):
            qfi_from_family(lambda theta: np.full(3, np.nan, dtype=complex), 0.5)


class TestCramerRao:
    def test_standard_quantum_limit(self):
        for n in (4, 25, 10_000):
            assert cramer_rao(1.0, n) == pytest.approx(1.0 / math.sqrt(n))

    def test_heisenberg_limit(self):
        for n in (2, 10, 50):
            assert cramer_rao(float(n**2), 1) == pytest.approx(1.0 / n)

    def test_zero_information_is_infinite(self):
        assert math.isinf(cramer_rao(0.0, 7))

    def test_invalid_repetitions(self):
        with pytest.raises(ValueError):
            cramer_rao(1.0, 0)

    def test_negative_fisher_rejected(self):
        with pytest.raises(ValueError):
            cramer_rao(-1.0, 1)

    def test_nan_fisher_rejected(self):
        with pytest.raises(ValueError, match="nan"):
            cramer_rao(math.nan, 1)


class TestErrorPropagation:
    @pytest.mark.parametrize("n", [2, 10, 100])
    def test_css_ramsey_reaches_sql(self, n):
        initial = css(n, 0.0, 0.0)
        jz = spin_obs(n)

        def signal(phi):
            return moments(ramsey(initial, phi), jz)[0]

        def noise(phi):
            return math.sqrt(moments(ramsey(initial, phi), jz)[1])

        for phi in (0.6, math.pi / 2, 2.2):
            prop = error_propagation(signal, noise, phi)
            assert not prop.stationary
            assert prop.value == pytest.approx(1.0 / math.sqrt(n), abs=1e-8)

    def test_stationary_point_flagged(self):
        prop = error_propagation(lambda t: 1.0, lambda t: 0.5, 0.3)
        assert prop.stationary
        assert math.isinf(prop.value)


class TestBoundConsistency:
    """Classical Fisher <= QFI; error propagation >= quantum bound."""

    def _configurations(self):
        configs = []
        for n, theta in ((3, 1.1), (6, math.pi / 2)):
            state = css(n, theta, 0.4)
            obs = spin_obs(n)
            family = lambda t, s=state, o=obs: evolve(s.amplitudes, o.matrix, t)
            configs.append((n, state, obs, family))
        g = ghz(5)
        obs = spin_obs(5)
        configs.append(
            (5, g, obs, lambda t, s=g, o=obs: evolve(s.amplitudes, o.matrix, t))
        )
        return configs

    def test_classical_fisher_bounded_by_qfi(self):
        for n, state, obs, family in self._configurations():
            qfi = qfi_generator(state, obs)
            povm = projective_povm(BasisTag("spin", n))

            def tagged_family(t):
                from qmetro import CollectiveSpinState

                return CollectiveSpinState(n, family(t))

            fisher = classical_fisher(povm_family(tagged_family, povm), 0.3)
            assert fisher <= qfi + 1e-6

    def test_error_propagation_respects_qcrb(self):
        for n, state, obs, family in self._configurations():
            qfi = qfi_generator(state, obs)
            if qfi == 0.0:
                continue
            from qmetro import CollectiveSpinState

            def signal(t):
                return moments(CollectiveSpinState(n, family(t)), obs)[0]

            def noise(t):
                return math.sqrt(moments(CollectiveSpinState(n, family(t)), obs)[1])

            prop = error_propagation(signal, noise, 0.3)
            if math.isfinite(prop.value):
                assert prop.value >= cramer_rao(qfi, 1) - 1e-8


def per_trial_grid_estimates(family, theta_true, repetitions, trials, seed, interval):
    """The maximum-likelihood estimates with every trial searched on its own:
    the likelihood evaluated afresh by `_log_likelihood` at each of the 512
    grid points and at each point of a scalar golden-section refinement.
    Kept as the oracle of run_monte_carlo's shared table and lockstep
    refinement.  The family's validated probabilities are memoized per
    theta (and per theta's type, which the family sees), so the oracle
    pays once for each point the trials share."""
    memo = SimpleNamespace(probabilities=functools.lru_cache(maxsize=None, typed=True)(
        family.probabilities))
    p_true = family.probabilities(theta_true)
    estimates = np.empty(trials)
    for trial in range(trials):
        counts = np.random.default_rng([seed, trial]).multinomial(repetitions, p_true)
        estimates[trial] = grid_then_golden(
            lambda t: -_log_likelihood(memo, counts, t),
            interval[0],
            interval[1],
            n_grid=512,
            tol=1e-10,
        )
    return estimates


def binomial_family(n):
    """n + 1 outcomes: k successes in n Bernoulli(theta) draws."""
    k = np.arange(n + 1)
    choose = np.array([math.comb(n, int(i)) for i in k], dtype=float)
    return DistributionFamily(
        outcome_labels=tuple(range(n + 1)),
        prob_at=lambda theta: choose * theta**k * (1.0 - theta) ** (n - k),
    )


def vanishing_ends_family():
    """Outcomes 0 and 2 have probability zero at theta = 1 and theta = 0."""
    return DistributionFamily(
        outcome_labels=("aa", "ab", "bb"),
        prob_at=lambda theta: np.array(
            [theta**2, 2.0 * theta * (1.0 - theta), (1.0 - theta) ** 2]
        ),
    )


# (family, theta_true, repetitions, trials, seed, search interval)
MANY_OUTCOMES = (binomial_family(20), 0.37, 300, 12, 3, (0.01, 0.99))
VANISHING_ENDS = (vanishing_ends_family(), 0.3, 40, 12, 1, (0.0, 1.0))
# 41 outcomes from 50 draws: the trials observe many different outcome sets
MANY_PATTERNS = (binomial_family(40), 0.37, 50, 60, 2, (0.01, 0.99))
# the CLI's monte-carlo experiment: Bernoulli, 200 trials on [0.01, 0.99]
CLI_TRIALS, CLI_INTERVAL = 200, (0.01, 0.99)


def trial_counts(family, theta_true, repetitions, trials, seed):
    p_true = family.probabilities(theta_true)
    return np.array(
        [np.random.default_rng([seed, t]).multinomial(repetitions, p_true) for t in range(trials)]
    )


class TestSharedLikelihoodGrid:
    @pytest.mark.parametrize("seed, repetitions", [(0, 10_000), (5, 500), (7, 10_000), (11, 500)])
    def test_bernoulli_matches_per_trial_grid(self, seed, repetitions):
        args = (bernoulli_family(), 0.5, repetitions, 25, seed, (0.01, 0.99))
        run = run_monte_carlo(*args)
        assert np.array_equal(run.estimates, per_trial_grid_estimates(*args))

    def test_many_outcomes_match_per_trial_grid(self):
        run = run_monte_carlo(*MANY_OUTCOMES)
        assert np.array_equal(run.estimates, per_trial_grid_estimates(*MANY_OUTCOMES))

    def test_zero_probability_grid_ends_match_per_trial_grid(self):
        # the grid includes theta = 0 and 1, where an observed outcome has
        # P = 0: the log-likelihood is -inf there in both evaluations
        with np.errstate(all="raise"):
            run = run_monte_carlo(*VANISHING_ENDS)
        assert np.array_equal(run.estimates, per_trial_grid_estimates(*VANISHING_ENDS))
        assert np.all((run.estimates > 0.0) & (run.estimates < 1.0))

    @pytest.mark.parametrize("args", [MANY_OUTCOMES, VANISHING_ENDS], ids=["many", "vanishing"])
    def test_grid_values_equal_per_point_likelihoods(self, args):
        # the estimates see the grid only through its best cell, so compare
        # the values themselves: with more than 8 active outcomes numpy sums
        # pairwise, and each row of the table must be reduced in that order
        family, theta_true, repetitions, trials, seed, (lo, hi) = args
        counts = trial_counts(family, theta_true, repetitions, trials, seed)
        xs = np.linspace(lo, hi, 512)
        with np.errstate(divide="ignore"):
            grid_log_p = np.log(family._probability_table(xs))
        grids = _minus_log_likelihoods(counts, grid_log_p[None], *_observed_patterns(counts))
        for trial, grid in enumerate(grids):
            expected = [-_log_likelihood(family, counts[trial], t) for t in xs]
            assert np.array_equal(grid, expected)
        assert len(grids) == trials
        # each case exercises what it is named for
        if family is MANY_OUTCOMES[0]:
            assert np.count_nonzero(counts[-1]) > 8
        else:
            assert all(np.isinf(g[[0, -1]]).all() for g in grids)

    def test_likelihood_blocks_do_not_change_the_values(self, monkeypatch):
        family, theta_true, repetitions, trials, seed, (lo, hi) = MANY_PATTERNS
        counts = trial_counts(family, theta_true, repetitions, trials, seed)
        grid_log_p = np.log(family._probability_table(np.linspace(lo, hi, 512)))[None]
        monkeypatch.setattr(estimate, "LIKELIHOOD_BLOCK", 1 << 40)  # one block per pattern
        whole = _minus_log_likelihoods(counts, grid_log_p, *_observed_patterns(counts))
        monkeypatch.setattr(estimate, "LIKELIHOOD_BLOCK", 3000)  # one trial per block
        assert np.array_equal(
            _minus_log_likelihoods(counts, grid_log_p, *_observed_patterns(counts)), whole)

    def test_grid_values_must_fit_the_grid(self):
        with pytest.raises(ValueError, match="grid_values"):
            grid_then_golden_many(None, -1.0, 1.0, np.zeros(5))


class TestLockstepRefinement:
    @pytest.mark.parametrize("repetitions", [500, 10_000])
    @pytest.mark.parametrize("seed", [0, 5, 11, 1424759319])
    def test_cli_configuration_matches_per_trial_search(self, seed, repetitions):
        args = (bernoulli_family(), 0.5, repetitions, CLI_TRIALS, seed, CLI_INTERVAL)
        run = run_monte_carlo(*args)
        assert np.array_equal(run.estimates, per_trial_grid_estimates(*args))

    def test_many_observed_patterns_match_per_trial_search(self):
        run = run_monte_carlo(*MANY_PATTERNS)
        assert np.array_equal(run.estimates, per_trial_grid_estimates(*MANY_PATTERNS))
        counts = trial_counts(*MANY_PATTERNS[:5])
        assert len(_observed_patterns(counts)[0]) > 20

    def test_trials_stopping_on_different_steps_match_per_trial_search(self, monkeypatch):
        # near the interval's lower end some trials' best grid point is the
        # first, whose bracket is one grid cell wide, not two: those
        # searches reach width 1e-10 on an earlier step than the others
        args = (bernoulli_family(), 0.015, 300, 40, 4, CLI_INTERVAL)
        points = collections.Counter()

        def counting_search(f, *a, **kw):
            def counted(which, x):
                points.update(which.tolist())
                return f(which, x)

            return grid_then_golden_many(counted, *a, **kw)

        monkeypatch.setattr(estimate, "grid_then_golden_many", counting_search)
        run = run_monte_carlo(*args)
        assert np.array_equal(run.estimates, per_trial_grid_estimates(*args))
        assert len(set(points.values())) > 1
        assert sorted(points) == list(range(40))

    def test_negative_probability_in_one_bracket_raises(self):
        args = (bernoulli_family(), 0.5, 500, 20, 9, CLI_INTERVAL)
        estimates = run_monte_carlo(*args).estimates
        # an estimate no other trial shares, off the grid and off theta_true
        values, seen = np.unique(estimates, return_counts=True)
        dip = values[seen == 1][0]
        xs = np.linspace(*CLI_INTERVAL, 512)
        assert np.abs(xs - dip).min() > 1e-6 and abs(dip - 0.5) > 1e-6

        def prob_at(theta):
            if abs(theta - dip) < 1e-7:
                return np.array([-0.1, 1.1])
            return np.array([theta, 1.0 - theta])

        family = DistributionFamily(("heads", "tails"), prob_at)
        with pytest.raises(InvalidDistributionError, match="negative"):
            run_monte_carlo(family, *args[1:])

    def test_probability_table_names_the_bad_theta(self):
        family = DistributionFamily(
            ("a", "b"), lambda t: np.array([t, 1.0 - t]) if t < 0.5 else np.array([t, 0.9 - t])
        )
        assert np.array_equal(family._probability_table([0.1, 0.2]), [[0.1, 0.9], [0.2, 0.8]])
        with pytest.raises(InvalidDistributionError, match="sum to .* at theta=0.7"):
            family._probability_table([0.1, 0.7, 0.8])
        with pytest.raises(InvalidDistributionError, match="expected 2 probabilities"):
            DistributionFamily(("a", "b"), lambda t: np.ones(3) / 3)._probability_table([0.1])


class TestTableAt:
    """A family's ``table_at`` evaluates many thetas in one call; each row
    must be its ``prob_at`` at that theta, and it is checked as such."""

    def test_cli_coin_rows_equal_per_theta_rows(self):
        coin = _MONTE_CARLO_COIN
        thetas = np.concatenate(
            [np.linspace(*CLI_INTERVAL, 512), np.random.default_rng(3).uniform(*CLI_INTERVAL, 100)]
        )
        per_theta = np.array([coin.prob_at(t) for t in thetas.tolist()])
        assert np.array_equal(coin.table_at(thetas), per_theta)
        assert np.array_equal(coin._probability_table(thetas), per_theta)

    @pytest.mark.parametrize(
        "table_at",
        [lambda th: np.stack([th, 1.0 - th]), lambda th: np.ones((th.size, 3)) / 3, lambda th: 0.5],
        ids=["transposed", "three-outcomes", "scalar"],
    )
    def test_wrong_shape_raises(self, table_at):
        family = DistributionFamily(("a", "b"), lambda t: np.array([t, 1.0 - t]), table_at=table_at)
        with pytest.raises(InvalidDistributionError, match=r"table_at gave shape .*expected \(3, 2\)"):
            family._probability_table([0.1, 0.2, 0.3])

    def test_negative_row_names_its_theta(self):
        family = DistributionFamily(
            ("a", "b"),
            lambda t: np.array([t, 1.0 - t]),
            table_at=lambda th: np.stack([th - 0.5, 1.5 - th], axis=-1),
        )
        with pytest.raises(InvalidDistributionError, match="negative .* at theta=0.25"):
            family._probability_table([0.75, 0.25, 0.125])

    def test_unnormalized_row_names_its_theta(self):
        family = DistributionFamily(
            ("a", "b"),
            lambda t: np.array([t, 1.0 - t]),
            table_at=lambda th: np.stack([th, np.where(th < 0.5, 1.0 - th, 0.9 - th)], axis=-1),
        )
        with pytest.raises(InvalidDistributionError, match="sum to .* at theta=0.75"):
            family._probability_table([0.25, 0.75, 0.875])

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("repetitions", [1, 3, 50, 10_000])
    def test_run_is_bit_identical_without_table_at(self, repetitions, seed):
        coin = _MONTE_CARLO_COIN
        per_theta = DistributionFamily(coin.outcome_labels, coin.prob_at, coin.derivative)
        args = (0.5, repetitions, CLI_TRIALS, seed, CLI_INTERVAL)
        table, loop = run_monte_carlo(coin, *args), run_monte_carlo(per_theta, *args)
        assert np.array_equal(table.estimates, loop.estimates)
        assert (table.bias, table.mse) == (loop.bias, loop.mse)
        if repetitions == 1:
            # one draw per trial: two observed patterns, one likelihood group each
            counts = trial_counts(coin, *args[:2], CLI_TRIALS, seed)
            assert len(_observed_patterns(counts)[0]) == 2


class TestMonteCarlo:
    def test_same_seed_bit_exact(self):
        family = bernoulli_family()
        a = run_monte_carlo(family, 0.5, 500, 20, seed=7, search_interval=(0.01, 0.99))
        b = run_monte_carlo(family, 0.5, 500, 20, seed=7, search_interval=(0.01, 0.99))
        assert np.array_equal(a.estimates, b.estimates)
        assert a.mse == b.mse

    def test_different_seed_differs(self):
        family = bernoulli_family()
        a = run_monte_carlo(family, 0.5, 500, 20, seed=7, search_interval=(0.01, 0.99))
        b = run_monte_carlo(family, 0.5, 500, 20, seed=8, search_interval=(0.01, 0.99))
        assert not np.array_equal(a.estimates, b.estimates)

    def test_bernoulli_mse_tracks_crb(self):
        family = bernoulli_family()
        run = run_monte_carlo(
            family, 0.5, 10_000, 200, seed=5, search_interval=(0.01, 0.99)
        )
        crb_variance = 1.0 / (10_000 * classical_fisher(family, 0.5))
        assert 1.0 <= run.mse / crb_variance <= 1.3

    def test_theta_outside_interval_rejected(self):
        with pytest.raises(ValueError, match="interval"):
            run_monte_carlo(
                bernoulli_family(), 0.999, 10, 2, seed=0, search_interval=(0.01, 0.99)
            )

    def test_uninformative_family_pins_grid_argmax(self):
        # flat likelihood: the grid argmax convention picks the first point
        family = DistributionFamily(
            outcome_labels=("only",),
            prob_at=lambda theta: np.array([1.0]),
        )
        run = run_monte_carlo(
            family, 0.5, 1, 3, seed=0, search_interval=(0.0, 1.0)
        )
        assert np.all(run.estimates <= 1.0 / 511 + 1e-9)
        assert run.mse > 0.2  # far above any informative bound

    def test_run_leaves_the_callers_estimates_writeable(self):
        estimates = np.array([0.4, 0.6])
        run = MonteCarloRun(0, 10, 0.5, estimates, 0.0, 0.01)
        estimates[0] = 0.5  # the caller's array is not frozen
        assert run.estimates[0] == 0.4
        with pytest.raises(ValueError):
            run.estimates[0] = 0.5

    def test_invalid_sizes(self):
        with pytest.raises(ValueError):
            run_monte_carlo(bernoulli_family(), 0.5, 0, 5, 0, (0.0, 1.0))
        with pytest.raises(ValueError):
            run_monte_carlo(bernoulli_family(), 0.5, 5, 0, 0, (0.0, 1.0))
