"""Randomised differential test of the batched Smith engine against the scalar one.

``smith_valuations_batch`` eliminates a whole batch at once with its own
pivoting and row operations; matrix by matrix it must give exactly the
valuations of the reference ``smith_valuations_raw``, with M standing for
saturated.  Batches mix zero rows, unit rows and rows scaled by powers of p,
so pivots of every valuation and fully saturated minors occur.  Dimensions
reach 8, the largest Weyl rank (E8); the draws and the examples put p^M on
both sides of ``VALUATION_TABLE_MAX``, so valuations are read from the
table and by the binary descent over p^(2^e), and on both sides of every bound of
``lane_dtype``, so the elimination runs in each of its lanes with entries
at the top of the range.  Entries off [0, p^M) by more than a lane holds
check that the batch is reduced before it is narrowed.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matrix_helpers import smith_valuations_raw
from repcount.linalg import VALUATION_TABLE_MAX, exact_dtype, lane_dtype, smith_valuations_batch


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


def _lane_edge(p, M):
    # 3 x 3 matrices over Z/p^M whose products reach (p^M - 1)^2: units at
    # the top of the range, repeated rows, a saturated entry and zero
    pM = p ** M
    return [
        [[pM - 1, pM - 2, pM - 1], [pM - 2, pM - 1, 1], [1, pM - 1, pM - 2]],
        [[p, pM - p, 1], [pM - 1, 0, p], [p, pM - p, 1]],
        [[p ** (M - 1), 0, 0], [0, pM - 1, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
    ]


#: (p, M) on both sides of each bound of ``lane_dtype``, and the lane each gets
LANE_EDGES = {(181, 1): np.int16, (191, 1): np.int32, (2, 7): np.int16, (2, 8): np.int32,
              (46337, 1): np.int32, (46349, 1): np.int64, (1451, 8): object}


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
# the binary descent above the table: every valuation below M in the int64
# lane at 2^31, and valuations of many bit patterns below M = 100 in the object lane
@example((2, 31, [[[2 ** 30, 3 * 2 ** 29], [5 * 2 ** 17, 2 ** 31 - 1]], [[0, 2 ** 30], [2 ** 30, 0]],
                  [[2 ** 16, 0], [0, 7 * 2 ** 15]]]))
@example((3, 100, [[[3 ** 99, 2 * 3 ** 63], [5 * 3 ** 64, 0]], [[3 ** 37, 0], [0, 2 * 3 ** 98]],
                   [[0, 3 ** 96], [3 ** 95, 3 ** 97]]]))
@example((181, 1, _lane_edge(181, 1)))
@example((191, 1, _lane_edge(191, 1)))
@example((2, 7, _lane_edge(2, 7)))
@example((2, 8, _lane_edge(2, 8)))
@example((46337, 1, _lane_edge(46337, 1)))
@example((46349, 1, _lane_edge(46349, 1)))
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


def test_examples_straddle_the_lane_bounds():
    for (p, M), lane in LANE_EDGES.items():
        assert lane_dtype(p ** M) is lane


@pytest.mark.parametrize("p, M", [(181, 1), (46337, 1), (46349, 1), (1451, 8)],
                         ids=["int16", "int32", "int64", "object"])
def test_entries_are_reduced_before_the_lane_narrows(p, M):
    # every entry moves by a multiple of p^M beyond what the lane holds, up or
    # down; narrowed first, it would wrap and change the valuations
    pM = p ** M
    dtype = exact_dtype(pM, 3)
    step = (2 ** 40 if dtype is np.int64 else 2 ** 100) // pM + 1
    rng = np.random.default_rng(p)
    mats = _lane_edge(p, M)
    moved = [[[x + int(c) * step * pM for x, c in zip(row, rng.integers(-3, 4, size=3))]
              for row in mat] for mat in mats]
    assert any(x < 0 for mat in moved for row in mat for x in row)
    got = smith_valuations_batch(np.array(moved, dtype=dtype), p, M)
    assert got.tolist() == [smith_valuations_raw(mat, p, M) for mat in mats]
