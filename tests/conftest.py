import numpy as np
from closed_forms import legendre  # noqa: F401  (tests/test_acceptance.py reads it here)


def align_phase(vec, reference):
    """Rotate vec by the global phase that best matches reference."""
    overlap = np.vdot(vec, reference)
    if overlap == 0:
        return np.asarray(vec)
    return np.asarray(vec) * (overlap / abs(overlap))
