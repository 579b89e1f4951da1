"""Maximum-likelihood estimation against the Cramer-Rao bound.

Simulated Bernoulli experiments (v draws per trial) are fed to a
grid-plus-golden-section maximum-likelihood estimator.  Across many
trials the mean-squared error of the estimates tracks the Cramer-Rao
variance 1/(v F); the whole run is reproducible from its seed.
"""

import numpy as np

from qmetro import DistributionFamily, classical_fisher, run_monte_carlo

family = DistributionFamily(
    outcome_labels=("heads", "tails"),
    prob_at=lambda theta: np.array([theta, 1.0 - theta]),
    derivative=lambda theta: np.array([1.0, -1.0]),
    # many thetas at once, one row per theta: the MLE's likelihood tables
    table_at=lambda thetas: np.stack([thetas, 1.0 - thetas], axis=-1),
)

theta_true = 0.5
fisher = classical_fisher(family, theta_true)
print(f"Bernoulli family at theta = {theta_true}: Fisher information = {fisher}\n")

print("    v     trials   bias          mse          1/(vF)       mse/crb")
for v in (100, 1_000, 10_000):
    run = run_monte_carlo(
        family, theta_true, v, trials=200, seed=5, search_interval=(0.01, 0.99)
    )
    crb_variance = 1.0 / (v * fisher)
    print(
        f"{v:6d}     {len(run.estimates):4d}   {run.bias:+.2e}   {run.mse:.3e}"
        f"   {crb_variance:.3e}   {run.mse / crb_variance:7.3f}"
    )

print("\nDoubling the seed reproduces the run bit-exactly:")
a = run_monte_carlo(family, theta_true, 1_000, 50, seed=42, search_interval=(0.01, 0.99))
b = run_monte_carlo(family, theta_true, 1_000, 50, seed=42, search_interval=(0.01, 0.99))
print(f"  estimates identical: {np.array_equal(a.estimates, b.estimates)}")
