"""Every count and real scalar argument of the library goes through one of
two rules: `spinops._count` (a Python or numpy integer, not a bool, at
least some floor) and `spinops._real` (a finite value).  Each case below
is one argument; a bad value raises ValueError naming it, and a count
given as np.int64 gives what the int gives, bit for bit (as pickled, so
that a stored count is an int too)."""

import math
import pickle

import numpy as np
import pytest

from qmetro import (
    BasisTag,
    BjjParams,
    CollectiveSpinState,
    DistributionFamily,
    OatParams,
    Readout,
    TwoModeFockState,
    collective_ops,
    cramer_rao,
    css,
    ecs,
    ecs_branch_tail,
    ghz,
    parity_sector_povm,
    phase_sweep,
    ramsey,
    rotate,
    run_monte_carlo,
    twin_fock,
)

COIN = DistributionFamily(
    outcome_labels=("success", "failure"),
    prob_at=lambda theta: np.array([theta, 1.0 - theta]),
)


def monte_carlo(repetitions=10, trials=3, seed=0):
    return run_monte_carlo(COIN, 0.5, repetitions, trials, seed, (0.01, 0.99))


PROBE = css(3, 0.0, 0.0)
JZ = Readout(PROBE.m_values, PROBE.basis_tag)


# (argument, call of the value, least, a good value)
COUNTS = [
    ("BasisTag.size", lambda v: BasisTag("spin", v), 0, 3),
    ("CollectiveSpinState.n_particles", lambda v: CollectiveSpinState(v, [1, 0, 0, 0]), 1, 3),
    ("collective_ops.n_particles", collective_ops, 1, 3),
    ("css.n_particles", lambda v: css(v, 0.3, 0.2), 1, 3),
    ("ghz.n_particles", ghz, 1, 3),
    ("twin_fock.n_per_mode", twin_fock, 0, 2),
    ("twin_fock.cutoff", lambda v: twin_fock(2, cutoff=v), 4, 5),
    ("TwoModeFockState.cutoff", lambda v: TwoModeFockState(v, np.eye(3) / math.sqrt(3)), 0, 2),
    ("ecs_branch_tail.cutoff", lambda v: ecs_branch_tail(1.0, v), 0, 3),
    ("parity_sector_povm.cutoff", lambda v: parity_sector_povm("b", v), 0, 3),
    ("BjjParams.n_particles", lambda v: BjjParams(v, 1.0), 1, 3),
    ("cramer_rao.repetitions", lambda v: cramer_rao(2.0, v), 1, 3),
    ("phase_sweep.repetitions", lambda v: phase_sweep(lambda phi: ramsey(PROBE, phi), JZ, [0.3], v), 1, 3),
    ("run_monte_carlo.repetitions", lambda v: monte_carlo(repetitions=v), 1, 10),
    ("run_monte_carlo.trials", lambda v: monte_carlo(trials=v), 1, 3),
    ("run_monte_carlo.seed", lambda v: monte_carlo(seed=v), 0, 2),
]

# (argument, call of the value)
REALS = [
    ("css.theta", lambda v: css(3, v, 0.2)),
    ("css.phi", lambda v: css(3, 0.3, v)),
    ("ghz.rel_phase", lambda v: ghz(3, v)),
    ("ecs.alpha.real", lambda v: ecs(complex(v, 0.5))),
    ("ecs.alpha.imag", lambda v: ecs(complex(0.5, v))),
    *((f"OatParams.{name}", lambda v, name=name: OatParams(**{"chi": 0.1, "t": 1.0, name: v}))
      for name in ("chi", "t", "omega", "delta", "gamma")),
    *((f"BjjParams.{name}", lambda v, name=name: BjjParams(3, **{"tunneling": 1.0, name: v}))
      for name in ("tunneling", "imbalance", "charging_energy")),
    ("rotate.angle", lambda v: rotate(css(3, 0.3, 0.2), (0.0, 1.0, 0.0), v)),
]


def named(argument):
    """The name an error gives: the argument's, with BasisTag's size a basis size."""
    return "basis size" if argument == "BasisTag.size" else argument.split(".")[1]


@pytest.mark.parametrize("argument, make, least, good", COUNTS, ids=[c[0] for c in COUNTS])
@pytest.mark.parametrize("bad", [True, 2.5, "least-1"])
def test_a_bad_count_is_named(argument, make, least, good, bad):
    bad = least - 1 if bad == "least-1" else bad
    with pytest.raises(ValueError, match=f"^{named(argument)} must be "):
        make(bad)


@pytest.mark.parametrize("argument, make, least, good", COUNTS, ids=[c[0] for c in COUNTS])
def test_a_numpy_count_gives_the_int_result(argument, make, least, good):
    assert pickle.dumps(make(np.int64(good))) == pickle.dumps(make(good))


@pytest.mark.parametrize("argument, make", REALS, ids=[r[0] for r in REALS])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_real_that_is_not_finite_is_named(argument, make, bad):
    with pytest.raises(ValueError, match=f"^{named(argument)} must be finite, got "):
        make(bad)


@pytest.mark.parametrize(
    "grid, repetitions, name",
    [
        ([0.3], True, "repetitions"),
        ([0.3], 2.5, "repetitions"),
        ([0.3], 0, "repetitions"),
        ([math.nan], 1, "phase grid"),
        ([0.1, math.inf], 1, "phase grid"),
    ],
    ids=["repetitions-bool", "repetitions-2.5", "repetitions-0", "grid-nan", "grid-inf"],
)
def test_phase_sweep_rejects_a_bad_argument_before_any_family_call(grid, repetitions, name):
    def family(phi):
        pytest.fail(f"the family was called at phi = {phi}")

    with pytest.raises(ValueError, match=f"^{name} must be "):
        phase_sweep(family, JZ, grid, repetitions)
