"""qmetro: exact finite-dimensional simulation of quantum-metrology
precision bounds for collective-spin and two-mode bosonic probes.

Covers state preparation (coherent spin, GHZ/NOON, twin Fock, entangled
coherent), parameter-dependent evolution (Ramsey and Mach-Zehnder
sequences, one-axis twisting, Bose-Josephson ground states), readout
(population counting and mode parity, both diagonal: one real value per
basis state gives the outcome distribution and the mean and variance of
the count), and precision figures (Fisher information, quantum
Fisher information, Cramer-Rao bounds, error propagation,
maximum-likelihood Monte Carlo).
"""

from .estimate import (
    DistributionFamily,
    ErrorPropagation,
    InvalidDistributionError,
    InvalidFamilyError,
    MonteCarloRun,
    PrecisionReport,
    Readout,
    classical_fisher,
    cramer_rao,
    error_propagation,
    povm_family,
    povm_probabilities,
    projective_povm,
    qfi_from_family,
    qfi_generator,
    readout_moments,
    run_monte_carlo,
)
from .interferom import (
    mz_single_particle,
    mz_single_particle_state,
    mz_two_mode,
    optimal_readout_rotation,
    parity_expectation,
    parity_sector_povm,
    phase_sweep,
    ramsey,
    ramsey_single_particle,
)
from .spinops import (
    BasisTag,
    CollectiveSpinOperators,
    CollectiveSpinState,
    Observable,
    apply,
    collective_ops,
    expectation_vector,
    moments,
    rotate,
)
from .squeeze import (
    BjjParams,
    OatParams,
    Regime,
    SpectralResult,
    SqueezingReport,
    TridiagonalHamiltonian,
    bjj_hamiltonian,
    classify_regime,
    ground_state,
    oat_evolve,
    squeezing_parameters,
)
from .statelib import (
    EcsParams,
    TruncationError,
    TwoModeFockState,
    css,
    ecs,
    ecs_branch_tail,
    ghz,
    twin_fock,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # spinops
    "BasisTag",
    "CollectiveSpinOperators",
    "CollectiveSpinState",
    "Observable",
    "apply",
    "collective_ops",
    "expectation_vector",
    "moments",
    "rotate",
    # statelib
    "EcsParams",
    "TruncationError",
    "TwoModeFockState",
    "css",
    "ecs",
    "ecs_branch_tail",
    "ghz",
    "twin_fock",
    # estimate
    "DistributionFamily",
    "ErrorPropagation",
    "InvalidDistributionError",
    "InvalidFamilyError",
    "MonteCarloRun",
    "PrecisionReport",
    "Readout",
    "classical_fisher",
    "cramer_rao",
    "error_propagation",
    "povm_family",
    "povm_probabilities",
    "projective_povm",
    "qfi_from_family",
    "qfi_generator",
    "readout_moments",
    "run_monte_carlo",
    # interferom
    "mz_single_particle",
    "mz_single_particle_state",
    "mz_two_mode",
    "optimal_readout_rotation",
    "parity_expectation",
    "parity_sector_povm",
    "phase_sweep",
    "ramsey",
    "ramsey_single_particle",
    # squeeze
    "BjjParams",
    "OatParams",
    "Regime",
    "SpectralResult",
    "SqueezingReport",
    "TridiagonalHamiltonian",
    "bjj_hamiltonian",
    "classify_regime",
    "ground_state",
    "oat_evolve",
    "squeezing_parameters",
]
