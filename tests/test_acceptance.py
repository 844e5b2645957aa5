"""Acceptance suite: the package's exit criteria, one test per criterion.

Each test prints a single PASS line (with timing where a budget applies) so
`pytest -s tests/test_acceptance.py` doubles as the acceptance report.  All
numeric comparisons are exact; there are no tolerances anywhere.
"""

import random
import time

import pytest

from matrix_helpers import (
    class_of,
    close_rows,
    element,
    generator_rows,
    identity,
    index_of,
    kernel_size,
    minus_identity,
    prod,
    solomon_sum,
)
from repcount.catalog import GroupSpec, build, exponents, parse_spec
from repcount.counting import (
    count_burnside_classes,
    count_burnside_full,
    count_formula_general,
    torsion_census,
    torsion_classes,
)
from repcount.errors import SpecInvalid
from repcount.formulas import theorem_a, theorem_c
from repcount.grassmannian import theorem_b
from repcount.linalg import diagonal, smith_valuations
from repcount.modp import Modulus
from repcount.oracle import orbit_count_bruteforce

EXCEPTIONAL_NAMES = ("g12", "g24", "g29", "g31")


def _report(num: int, detail: str) -> None:
    print(f"ACCEPTANCE {num}: PASS  {detail}")


def test_acceptance_01_group_orders():
    start = time.perf_counter()
    orders = {}
    for name, want in [("g12", 48), ("g24", 336), ("g29", 7680), ("g31", 46080)]:
        group = build(parse_spec(name))
        orders[name] = group.order
        assert group.order == want
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    _report(1, f"orders {orders} built in {elapsed:.2f}s (< 10s)")


def test_acceptance_02_x24_anchor(g24):
    start = time.perf_counter()
    values = {
        "burnside": count_burnside_full(g24, 1).count,
        "classes": count_burnside_classes(g24, 1).count,
        "formula": count_formula_general(g24, exponents(GroupSpec("g24")), 1).count,
        "oracle": orbit_count_bruteforce(g24, 1),
    }
    assert set(values.values()) == {2}
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(2, f"x24 count at k=1 is 2 by {sorted(values)} in {elapsed:.2f}s (< 5s)")


def test_acceptance_03_theorem_c_reproduction(exceptional_groups):
    start = time.perf_counter()
    checked = 0
    for name, group in exceptional_groups.items():
        for k in (1, 2, 3):
            counted = count_burnside_full(group, k, per_element=True).count
            assert counted == theorem_c(name, k), (name, k)
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(3, f"{checked} (group, k) pairs match the polynomials exactly "
               f"in {elapsed:.1f}s (< 2min)")


def test_acceptance_04_g24_table(g24):
    start = time.perf_counter()
    a, b, c = generator_rows(g24)
    ident = identity(3)
    mod = g24.modulus
    neg = prod(mod, [[-1 if i == j else 0 for j in range(3)] for i in range(3)])
    ac, ab = prod(mod, a, c), prod(mod, a, b)
    expected = [
        (ident, (0, 0, 0)), (neg, (2, 2, 2)),
        (c, (1, 0, 0)), (prod(mod, neg, c), (1, 2, 0)),
        (ac, (1, 1, 0)), (prod(mod, neg, ac), (1, 1, 2)),
        (ab, (1, 1, 0)), (prod(mod, neg, ab), (1, 1, 4)),
    ]
    for x, diag in expected:
        assert diagonal(smith_valuations(minus_identity(x, mod), 2, mod.M), 2, mod.M) == diag
    recs = g24.conjugacy_classes()
    classes, index = class_of(g24), index_of(g24)
    sizes = [recs[classes[index[x]]].class_size
             for x in (ident, c, ac, ab)]
    assert sizes == [1, 21, 56, 42]
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    _report(4, f"eight Smith diagonals and class sizes {sizes} reproduced "
               f"in {elapsed:.2f}s (< 5s)")


def test_acceptance_05_torsion_censuses(exceptional_groups):
    start = time.perf_counter()
    expected = {
        "g12": [(8, 3, 6)],
        "g24": [(1, 8, 336), (21, 2, 16), (42, 4, 8), (56, 2, 6)],
        "g29": [(384, 5, 20)],
        "g31": [(2304, 5, 20)],
    }
    for name, group in exceptional_groups.items():
        rows = torsion_classes(group)
        got = sorted(
            (r.class_size, r.torsion_order, r.centralizer_order)
            for r in rows
        )
        assert got == sorted(expected[name]), name
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(5, f"censuses match: g12 1 class, g24 4 classes, g29/g31 one "
               f"|A|=5 class each, in {elapsed:.2f}s (< 1min)")


def test_acceptance_06_oracle_agreement(exceptional_groups):
    start = time.perf_counter()
    grid = [("g12", (1, 2, 3)), ("g24", (1, 2, 3)), ("g29", (1, 2)), ("g31", (1, 2))]
    pairs = 0
    for name, ks in grid:
        group = exceptional_groups[name]
        for k in ks:
            assert (orbit_count_bruteforce(group, k)
                    == count_burnside_full(group, k).count), (name, k)
            pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    _report(6, f"flood fill equals Burnside on {pairs} (group, k) pairs "
               f"in {elapsed:.1f}s (< 5min)")


def test_acceptance_07_theorem_b_grid():
    start = time.perf_counter()
    with pytest.raises(SpecInvalid):
        GroupSpec("family2a", m=4, s=4, n=2, p=5)
    with pytest.raises(SpecInvalid):
        theorem_b(4, 4, 2, 5, 1)
    grid = [(3, 1, 2, 7), (3, 3, 3, 7), (4, 2, 3, 5), (4, 1, 2, 5), (6, 2, 2, 7)]
    pairs = 0
    for m, s, n, p in grid:
        group = build(GroupSpec("family2a", m=m, s=s, n=n, p=p))
        for k in (1, 2):
            if p ** (k * n) > 2 ** 24:
                continue
            closed = theorem_b(m, s, n, p, k)
            counted = count_burnside_full(group, k).count
            assert closed == counted, (m, s, n, p, k)
            pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report(7, f"two-way agreement on {pairs} grid points plus the "
               f"(4,4,2,5) rejection in {elapsed:.1f}s (< 2min)")


def test_acceptance_08_theorem_a_property():
    checked = []
    for m, p in [(4, 5), (3, 7), (6, 7)]:
        spec = GroupSpec("sphere", m=m, p=p)
        group = build(spec)
        for k in (1, 2):
            assert (theorem_a(exponents(spec), p, k)
                    == count_burnside_full(group, k).count), (m, p, k)
        checked.append(f"sphere({m},{p})")
    from repcount.catalog import monomial_generators
    mod = Modulus(11, 2)
    g552 = close_rows(monomial_generators(5, 5, 2, mod), mod, order=10, name="g(5,5,2)")
    assert g552.order == 10
    for k in (1, 2):
        assert theorem_a([1, 4], 11, k) == count_burnside_full(g552, k).count
    checked.append("g(5,5,2)@p=11")
    _report(8, f"theorem-A product equals Burnside for {', '.join(checked)}, k=1,2")


def test_acceptance_09_solomon_identity(exceptional_groups):
    for name, group in exceptional_groups.items():
        exps = exponents(GroupSpec(name))
        p = group.modulus.p
        for k in (1, 2):
            rhs = 1
            for m in exps:
                rhs *= m + p ** k
            assert solomon_sum(group, k) == rhs, (name, k)
    _report(9, "classwise sum of p^(k*rank) equals the exponent product, "
               "four groups, k=1,2")


def test_acceptance_10_x34_properties():
    for k in range(1, 9):
        theorem_c("x34", k)  # raises InvariantViolation on failure
    assert theorem_c("x34", 1) == 7
    _report(10, "x34 polynomial integral for k=1..8 and equal to 7 at k=1")


def test_acceptance_11_invariant_suites(exceptional_groups):
    start = time.perf_counter()
    # kernel lifting: nontrivial kernels persist down to precision 1
    for name in ("g12", "g24"):
        group = exceptional_groups[name]
        for i in range(group.order):
            diff = minus_identity(element(group, i), group.modulus)
            if kernel_size(diff, group.modulus, group.modulus.M) > 1:
                assert kernel_size(diff, group.modulus, 1) > 1
    # p-Sylow divisibility of every torsion order
    for group in exceptional_groups.values():
        p = group.modulus.p
        p_part, order = 1, group.order
        while order % p == 0:
            order //= p
            p_part *= p
        for row in torsion_census(group):
            assert p_part % row.torsion_order == 0
    # Smith invariance under 1000 random unimodular transforms, dim <= 5
    rng = random.Random(2024)
    trials = 0
    while trials < 1000:
        p, M = rng.choice([(2, 4), (3, 3), (5, 2)])
        l = rng.randrange(2, 6)
        mod = Modulus(p, M)
        rows = [[rng.randrange(mod.pM) for _ in range(l)] for _ in range(l)]
        u = _random_unimodular(l, mod, rng)
        v = _random_unimodular(l, mod, rng)
        assert smith_valuations(prod(mod, u, rows, v), p, M) == smith_valuations(rows, p, M)
        trials += 1
    elapsed = time.perf_counter() - start
    _report(11, f"kernel lifting, Sylow divisibility, {trials} unimodular "
                f"trials checked in {elapsed:.1f}s")


def _random_unimodular(l, mod, rng):
    units = [x for x in range(1, mod.pM) if x % mod.p != 0]
    a = [[0] * l for _ in range(l)]
    for i in range(l):
        a[i][i] = rng.choice(units)
        for j in range(i + 1, l):
            a[i][j] = rng.randrange(mod.pM)
    perm = list(range(l))
    rng.shuffle(perm)
    return [[a[i][perm[j]] for j in range(l)] for i in range(l)]
