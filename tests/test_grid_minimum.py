"""The bounded grid search of the sub-solver grid check against an
exhaustive scan of the same grid."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grid_minimum import grid_minimum, model_on_grid

_ENTRIES = st.floats(-3.0, 3.0) | st.just(0.0)


@settings(max_examples=60, deadline=None)
@given(
    g=st.tuples(_ENTRIES, _ENTRIES),
    h=st.tuples(_ENTRIES, _ENTRIES, _ENTRIES),
    sigma=st.floats(0.05, 3.0),
    step=st.sampled_from([1e-2, 2.5e-2, 0.25]),
    block=st.sampled_from([1, 7, 50, 64, 100, 1000]),
)
# The cross term alone decides which corner block holds the minimum.
@example(g=(0.0, 0.0), h=(0.0, 3.0, 0.0), sigma=0.05, step=1e-2, block=50)
# Tied minimizers (-a, b) and (a, -b) share an x block, so the one in
# the y block scanned first is not the first in row-major order.
@example(g=(0.0, 0.0), h=(1.0, 0.2, -1.0), sigma=1.0, step=1e-2, block=64)
@example(g=(0.0, 0.0), h=(1.0, -0.2, -1.0), sigma=1.0, step=1e-2, block=64)
def test_grid_minimum_equals_the_exhaustive_scan(g, h, sigma, step, block):
    """The minimum and its first row-major argmin, bit for bit, for any
    block size, including ties on a grid symmetric about the origin."""
    g = np.array(g)
    h = np.array([[h[0], h[1]], [h[1], h[2]]])
    half = np.arange(0.0, 3.0 + step / 2, step)
    xs = np.concatenate([-half[:0:-1], half])
    vals = model_on_grid(g, h, sigma, xs[:, None], xs)
    i, j = np.unravel_index(np.argmin(vals), vals.shape)
    assert grid_minimum(g, h, sigma, xs, block) == (vals[i, j], (xs[i], xs[j]))
