"""Randomised differential test of the batched Smith engine against the scalar one.

``smith_valuations_batch`` eliminates a whole batch at once with its own
pivoting and row operations; matrix by matrix it must give exactly the
valuations of the reference ``smith_valuations_raw``, with M standing for
saturated.  Batches mix zero rows, unit rows and rows scaled by powers of p,
so pivots of every valuation and fully saturated minors occur.  Dimensions
reach 8, the largest Weyl rank (E8); the draws and the examples put p^M on
both sides of ``VALUATION_TABLE_MAX``, so valuations are read from the
table and from the divisibility tests.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repcount.linalg import (
    VALUATION_TABLE_MAX, exact_dtype, smith_valuations_batch, smith_valuations_raw,
)


@st.composite
def batches(draw):
    p = draw(st.sampled_from([2, 3, 5, 7, 1451]))
    M = draw(st.integers(1, 8))
    n = draw(st.integers(1, 8))
    pM = p ** M
    unit = st.builds(lambda u, x: u + p * x, st.integers(1, p - 1), st.integers(0, pM // p))
    scaled = st.builds(lambda x, s: x * p ** s % pM, st.integers(0, pM - 1), st.integers(1, M))
    row = st.one_of(
        st.just([0] * n),
        st.lists(unit, min_size=n, max_size=n),
        st.lists(st.one_of(unit, scaled), min_size=n, max_size=n),
        st.lists(scaled, min_size=n, max_size=n),
    )
    matrix = st.lists(row, min_size=n, max_size=n)
    return p, M, draw(st.lists(matrix, min_size=1, max_size=40))


def _large_batch():
    # 2100 matrices of 4 x 4: flat offsets into the batch pass 2^15
    rng = np.random.default_rng(0)
    a = rng.integers(0, 125, size=(2100, 4, 4)) * 5 ** rng.integers(0, 4, size=(2100, 4, 1))
    return 5, 3, (a % 125).tolist()


# p^M = 2^16 is the largest modulus read from the table; 2^17 and 257^2 are above it
@example((2, 16, [[[2 ** 15, 3 * 2 ** 14], [2 ** 14, 0]], [[1, 2 ** 16 - 1], [2 ** 16 - 2, 2 ** 15]],
                  [[0, 0], [0, 2 ** 15]]]))
@example((2, 17, [[[2 ** 16, 3 * 2 ** 15], [2 ** 15, 0]], [[1, 2 ** 17 - 1], [2 ** 17 - 2, 2 ** 16]],
                  [[0, 0], [0, 2 ** 16]]]))
@example((257, 2, [[[257, 2 * 257], [3 * 257, 256 * 257]], [[1, 257 ** 2 - 1], [257, 0]],
                   [[0, 0], [0, 0]]]))
# int64 entries whose second pivot is saturated (a rank-one matrix), and a zero matrix
@example((5, 3, [[[1, 2, 3], [2, 4, 6], [3, 6, 9]], [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
                 [[25, 0, 0], [0, 0, 0], [0, 0, 5]]]))
@example(_large_batch())
# p^7 > 2^63: object entries, and a pivot whose p-power no int64 can hold
@example((1451, 8, [[[0, 2 * 1451 ** 7], [1451 ** 7, 3 * 1451 ** 7]], [[0, 0], [0, 0]],
                    [[1, 1451 ** 7], [5, 4]]]))
@settings(max_examples=200, deadline=None)
@given(batches())
def test_batch_matches_scalar_smith(case):
    p, M, mats = case
    dim = len(mats[0])
    got = smith_valuations_batch(np.array(mats, dtype=exact_dtype(p ** M, dim)), p, M)
    assert got.shape == (len(mats), dim)
    for mat, vals in zip(mats, got.tolist()):
        assert vals == smith_valuations_raw(mat, p, M)


def test_examples_straddle_the_table_bound():
    assert 2 ** 16 <= VALUATION_TABLE_MAX < min(2 ** 17, 257 ** 2)
