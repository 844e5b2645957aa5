"""sympy as an independent oracle for the closure and the class table.

A group acts faithfully on the orbit of the basis rows under right
multiplication by its generators, so sympy's permutation group on that
orbit is the group itself: its order must be |W|, and its conjugacy
classes must have exactly the sizes and element orders of
``conjugacy_classes()``.  The action is built in plain Python by
``matrix_helpers.row_action``, so the two sides share no code; nothing in
the package imports sympy.  G31 is left out: sympy takes ~30 s on it.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy.combinatorics import Permutation, PermutationGroup

from matrix_helpers import admissible_tuples, generator_rows, row_action
from repcount.catalog import build, parse_spec

SMALL_MONOMIAL = sorted({
    f"family2a:m={m},s={s},n={n},p={p}"
    for cases in admissible_tuples(max_order=2000, max_points=2 ** 11).values()
    for m, s, n, p, _ in cases
})


def _check_against_sympy(group):
    perms = row_action(generator_rows(group), group.modulus.pM)
    sym = PermutationGroup([Permutation(perm) for perm in perms])
    assert sym.order() == group.order
    theirs = Counter((len(c), next(iter(c)).order()) for c in sym.conjugacy_classes())
    ours = Counter((r.class_size, r.element_order) for r in group.conjugacy_classes())
    assert theirs == ours


@pytest.mark.parametrize("name", ["g12", "g24", "g29"])
def test_exceptional_group_matches_sympy(exceptional_groups, name):
    _check_against_sympy(exceptional_groups[name])


@example("family2a:m=3,s=1,n=3,p=7")
@example("family2a:m=6,s=3,n=2,p=7")
@example("family2a:m=4,s=4,n=4,p=5")  # s = m
@example("family2a:m=4,s=1,n=4,p=5")  # order 6144, a generator of order 4
@settings(max_examples=8, deadline=None)
@given(st.sampled_from(SMALL_MONOMIAL))
def test_monomial_group_matches_sympy(spec):
    _check_against_sympy(build(parse_spec(spec)))
