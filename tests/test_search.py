import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmetro._search import golden_sections, grid_then_golden_many
from search_oracles import golden_section, grid_then_golden


def wavy(weight, centre, ripple, wavenumber):
    """A parabola with a sine ripple: multimodal when the ripple is large."""
    return lambda x: weight * (x - centre) ** 2 + ripple * math.sin(wavenumber * x)


def lockstep(objectives, calls=None):
    """The golden_sections objective of scalar objectives, each called with
    Python floats as golden_section calls it; counts the points per search."""

    def f(which, x):
        if calls is not None:
            calls.update(which.tolist())
        return [objectives[j](t) for j, t in zip(which.tolist(), x.tolist())]

    return f


finite = st.floats(-10.0, 10.0, allow_nan=False)
objective = st.builds(wavy, st.floats(0.0, 5.0), finite, st.floats(-2.0, 2.0), st.floats(0.0, 20.0))
bracket = st.tuples(finite, st.floats(0.0, 5.0))


class TestLockstepGoldenSection:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(objective, bracket), min_size=1, max_size=8),
           st.sampled_from([1e-10, 1e-6, 1e-2]))
    def test_each_search_equals_the_scalar_search(self, searches, tol):
        objectives = [f for f, _ in searches]
        lo = [start for _, (start, _) in searches]
        hi = [start + width for _, (start, width) in searches]
        found = golden_sections(lockstep(objectives), lo, hi, tol)
        expected = [golden_section(f, a, b, tol) for f, a, b in zip(objectives, lo, hi)]
        assert np.array_equal(found, expected)

    def test_searches_stop_on_their_own_steps(self):
        objectives = [wavy(1.0, 0.3, 0.0, 0.0), wavy(2.0, 0.5, 0.1, 7.0), abs]
        lo, hi = [0.0, 0.4, 0.25], [1.0, 0.401, 0.25]
        calls = collections.Counter()
        found = golden_sections(lockstep(objectives, calls), lo, hi)
        expected = [golden_section(f, a, b) for f, a, b in zip(objectives, lo, hi)]
        assert np.array_equal(found, expected)
        # narrower brackets need fewer steps; a one-point bracket none
        assert calls[0] > calls[1] > calls[2] == 2
        assert found[2] == 0.25

    def test_bracket_shapes_must_match(self):
        with pytest.raises(ValueError, match="brackets"):
            golden_sections(lockstep([abs]), [0.0, 1.0], [1.0])

    def test_grid_then_golden_many_equals_the_scalar_search(self):
        objectives = [wavy(0.5, c, 0.4, 9.0) for c in (-0.7, 0.1, 0.9)]
        xs = np.linspace(-1.0, 1.0, 64)
        table = [[f(x) for x in xs] for f in objectives]
        found = grid_then_golden_many(lockstep(objectives), -1.0, 1.0, table)
        expected = [grid_then_golden(f, -1.0, 1.0, n_grid=64) for f in objectives]
        assert np.array_equal(found, expected)
