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

The public names are those each submodule lists in its own __all__;
this package re-exports them unchanged.
"""

from . import estimate, interferom, spinops, squeeze, statelib
from .estimate import *
from .interferom import *
from .spinops import *
from .squeeze import *
from .statelib import *

__version__ = "0.1.0"

__all__ = ["__version__", *spinops.__all__, *statelib.__all__, *estimate.__all__,
           *interferom.__all__, *squeeze.__all__]
