"""Units, valuations, Hensel lifting, Teichmüller lifts.

Expected values for the lifted constants were frozen from exhaustive root
scans over the full residue ring (re-run inline where cheap), so they do
not depend on the Newton iteration they certify.
"""

import random
import time

import pytest
import sympy

from matrix_helpers import smith_valuations_raw
from repcount import modp
from repcount.errors import (
    CapExceeded,
    DivisibleByP,
    NotARoot,
    NotASimpleRoot,
    NotAUnit,
    OrderUnavailable,
)
from repcount.modp import (
    Modulus,
    hensel_lift,
    int_valuation,
    invert,
    _strong_lucas_probable_prime,
    _strong_probable_prime,
    is_prime,
    mth_root_of_unity,
    prime_factors,
    smallest_primitive_root,
    teichmuller,
)


def test_modulus_validation():
    Modulus(2, 1)
    Modulus(97, 5)
    with pytest.raises(ValueError):
        Modulus(6, 2)
    with pytest.raises(ValueError):
        Modulus(1, 2)
    with pytest.raises(ValueError):
        Modulus(3, 0)


def test_modulus_threshold():
    assert Modulus(2, 4).threshold == 2
    assert Modulus(3, 4).threshold == 1
    assert Modulus(5, 1).threshold == 1


def test_valuation_examples():
    # int_valuation on nonzero ints; a residue's valuation, saturated at 0,
    # is the Smith form of the 1 x 1 matrix
    assert smith_valuations_raw([[0]], 3, 4) == [4]
    assert smith_valuations_raw([[81]], 3, 4) == [4]
    assert int_valuation(18, 3) == 2 and smith_valuations_raw([[18]], 3, 4) == [2]
    assert int_valuation(7, 3) == 0 and smith_valuations_raw([[7]], 3, 4) == [0]
    assert int_valuation(27, 3) == 3 and smith_valuations_raw([[27]], 3, 4) == [3]
    assert int_valuation(4, 2) == 2 and smith_valuations_raw([[4]], 2, 3) == [2]


def test_invert_examples():
    m = Modulus(3, 2)
    assert invert(2, m) == 5
    assert invert(1, m) == 1
    with pytest.raises(NotAUnit):
        invert(3, m)
    with pytest.raises(NotAUnit):
        invert(0, m)


@pytest.mark.parametrize("p,M", [(2, 5), (3, 3), (5, 2), (7, 2)])
def test_invert_all_units(p, M):
    m = Modulus(p, M)
    for x in range(m.pM):
        if x % p == 0:
            continue
        assert x * invert(x, m) % m.pM == 1


def test_hensel_alpha():
    # x^2 - x + 2 has exactly one root = 3 mod 8 in Z/2^10; scan certifies 91.
    scan = [x for x in range(2 ** 10) if (x * x - x + 2) % 2 ** 10 == 0 and x % 8 == 3]
    assert scan == [91]
    assert hensel_lift([2, -1, 1], 3, 3, Modulus(2, 10)) == 91


def test_hensel_omega():
    # (2x+1)^2 + 2 = 0 with x divisible by 3, in Z/3^6; scan certifies 618.
    scan = [x for x in range(3 ** 6) if ((2 * x + 1) ** 2 + 2) % 3 ** 6 == 0 and x % 3 == 0]
    assert scan == [618]
    assert hensel_lift([3, 4, 4], 0, 1, Modulus(3, 6)) == 618


def test_hensel_linear():
    assert hensel_lift([-1, 1], 1, 1, Modulus(5, 4)) == 1
    assert hensel_lift([-1, 1], 1, 1, Modulus(2, 7)) == 1


def test_hensel_relift_consistent():
    for M in range(4, 9):
        low = hensel_lift([2, -1, 1], 3, 3, Modulus(2, M))
        high = hensel_lift([2, -1, 1], 3, 3, Modulus(2, M + 1))
        assert high % 2 ** M == low


def test_hensel_errors():
    with pytest.raises(NotARoot):
        hensel_lift([1, 0, 1], 1, 1, Modulus(3, 4))  # x^2+1 has no root 1 mod 3
    with pytest.raises(NotASimpleRoot):
        hensel_lift([0, 0, 1], 0, 1, Modulus(3, 4))  # x^2 at the double root


def test_teichmuller_examples():
    assert teichmuller(1, Modulus(7, 3)) == 1
    assert teichmuller(2, Modulus(5, 4)) == 182
    assert pow(182, 2, 625) == 624
    assert pow(182, 4, 625) == 1
    with pytest.raises(DivisibleByP):
        teichmuller(5, Modulus(5, 2))


TEICHMULLER_CASES = [(3, 4), (5, 3), (7, 2), (13, 2)]
TEICHMULLER_CASES += [(p, M) for p in (2, 3, 5, 7, 1451) for M in range(1, 9)
                      if (p, M) not in TEICHMULLER_CASES]


@pytest.mark.parametrize("p,M", TEICHMULLER_CASES)
def test_teichmuller_is_root_of_unity(p, M):
    # omega = a mod p and omega^(p-1) = 1 mod p^M fix omega, for integers a above p too
    m = Modulus(p, M)
    for a in [*range(1, p), 7 * p + 1, p ** 9 - 1]:
        t = teichmuller(a, m)
        assert 0 <= t < m.pM and t % p == a % p, a
        assert pow(t, p - 1, m.pM) == 1, a


def test_smallest_primitive_root():
    assert smallest_primitive_root(3) == 2
    assert smallest_primitive_root(5) == 2
    assert smallest_primitive_root(7) == 3
    assert smallest_primitive_root(41) == 6
    with pytest.raises(OrderUnavailable):
        smallest_primitive_root(1)


def test_smallest_primitive_root_matches_sympy():
    # p - 1 up to 2^62 is factored by rho, so a large prime factor costs nothing
    rng = random.Random(62)
    for bits in (20, 40, 55, 62):
        for _ in range(10):
            p = sympy.prevprime(rng.getrandbits(bits) | (1 << (bits - 1)))
            assert smallest_primitive_root(p) == sympy.primitive_root(p), p
    # p - 1 = 2 q with q a 17-digit prime
    assert smallest_primitive_root(20000000000002643) == \
        sympy.primitive_root(20000000000002643)


def test_prime_factors_match_sympy():
    rng = random.Random(7)
    cases = [1, 2, 4, 97 ** 3, 2 ** 61 - 1, (2 ** 31 - 1) ** 2, (2 ** 31 - 1) * sympy.prevprime(2 ** 31 - 1)]
    cases += [rng.getrandbits(rng.randint(2, 62)) + 1 for _ in range(200)]
    for n in cases:
        assert prime_factors(n) == sorted(sympy.factorint(n)), n


def test_factoring_past_the_step_budget_is_refused(monkeypatch):
    # p - 1 = 2 q1 q2 with q1, q2 prime and of 17 digits: rho needs ~10^8 steps
    p = 9399065556056301725180829159926783
    assert is_prime(p) and not is_prime((p - 1) // 2)
    with pytest.raises(CapExceeded):
        smallest_primitive_root(p)
    # 2^127 - 2 splits into 12 primes within the budget (a few thousand steps);
    # with a budget of 2 steps it is refused
    assert len(prime_factors(2 ** 127 - 2)) == 12
    monkeypatch.setattr(modp, "FACTOR_STEPS", 2)
    with pytest.raises(CapExceeded):
        prime_factors(2 ** 127 - 2)


def test_mth_root_examples():
    assert mth_root_of_unity(1, Modulus(11, 2)) == 1
    b = mth_root_of_unity(4, Modulus(5, 1))
    assert b in (2, 3)  # exhaustively, the only order-4 units mod 5
    assert [a for a in range(1, 5) if pow(a, 4, 5) == 1 and pow(a, 2, 5) != 1] == [2, 3]
    c = mth_root_of_unity(3, Modulus(7, 2))
    assert pow(c, 3, 49) == 1 and c != 1
    assert c in (18, 30)  # scan of order-3 units mod 49
    with pytest.raises(OrderUnavailable):
        mth_root_of_unity(3, Modulus(5, 2))


@pytest.mark.parametrize("p,M", [(7, 2), (13, 3), (31, 2)])
def test_mth_root_exact_order(p, M):
    m = Modulus(p, M)
    divisors = [d for d in range(1, p) if (p - 1) % d == 0]
    for d in divisors:
        b = mth_root_of_unity(d, m)
        assert next(e for e in range(1, p) if pow(b, e, m.pM) == 1) == d


ORDER_TWO_PRIMES = [p for p in range(3, 500) if is_prime(p)] + [1297, 1451, 46337, 46349,
                                                                4294967311]


def test_order_two_root_is_the_primitive_roots_power():
    # -1 is the only unit of order 2 for odd p, so it is the residue the power of the
    # primitive root's Teichmüller lift gives: the class tables' bytes rest on this
    for p in ORDER_TWO_PRIMES:
        g = smallest_primitive_root(p)
        for M in range(1, 7):
            mod = Modulus(p, M)
            assert mth_root_of_unity(2, mod) == \
                pow(teichmuller(g, mod), (p - 1) // 2, p ** M), (p, M)


def test_roots_of_order_one_and_two_need_no_factoring():
    p = 9399065556056301725180829159926783  # p - 1 = 2 q1 q2, past the factoring budget
    mod = Modulus(p, 2)
    assert mth_root_of_unity(1, mod) == 1
    assert mth_root_of_unity(2, mod) == p ** 2 - 1
    with pytest.raises(CapExceeded):
        mth_root_of_unity(p - 1, mod)



def test_is_prime_agrees_with_sympy_on_a_range():
    assert [n for n in range(-3, 200_000) if is_prime(n)] == \
        list(sympy.primerange(2, 200_000))


def test_is_prime_agrees_with_sympy_on_random_64_bit():
    rng = random.Random(20151)
    for _ in range(2000):
        n = rng.getrandbits(64) | 1
        assert is_prime(n) == sympy.isprime(n), n


@pytest.mark.parametrize("n", [
    3215031751,                   # strong pseudoprime to the bases 2, 3, 5, 7
    3825123056546413051,          # ... to the bases 2 ... 31
    318665857834031151167461,     # ... to the bases 2 ... 37
])
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not sympy.isprime(n)
    assert not is_prime(n)


def test_is_prime_at_large_primes():
    for n in (10 ** 16 + 61, 10 ** 18 + 3, 2 ** 61 - 1, 2 ** 64 - 59):
        assert sympy.isprime(n) and is_prime(n)
        assert not is_prime(n + 2) and not sympy.isprime(n + 2)


def test_is_prime_at_and_above_the_miller_rabin_bound():
    # the bound itself is 1287836182261 * 2575672364521, a strong pseudoprime to the 13 bases
    assert 3317044064679887385961981 == 1287836182261 * 2575672364521
    assert not is_prime(3317044064679887385961981)
    rng = random.Random(80200)
    for _ in range(1500):
        n = rng.getrandbits(rng.randint(80, 200)) | 1
        assert is_prime(n) == sympy.isprime(n), n
    for digits in (30, 40, 50, 60):
        p = sympy.nextprime(rng.randrange(10 ** (digits - 1), 10 ** digits))
        q = sympy.nextprime(p)
        assert is_prime(p) and is_prime(q) and not is_prime(p * q)
    assert is_prime(2 ** 89 - 1) and is_prime(2 ** 127 - 1) and not is_prime(2 ** 128 + 1)


def test_is_prime_agrees_with_sympy_on_proth_numbers():
    # c 2^e + 1 has n - 1 = c 2^e: the Miller-Rabin round squares e times
    for c in (1, 3, 5, 7):
        for e in range(401):
            n = c * 2 ** e + 1
            assert is_prime(n) == sympy.isprime(n), (c, e)


def test_miller_rabin_squares_in_place():
    # a fresh power per square made this call quadratic in e = 2000: 21 s
    start = time.perf_counter()
    assert not is_prime(3 * 2 ** 2000 + 1)
    assert time.perf_counter() - start < 1


def test_baillie_psw_rounds_cover_each_other():
    # strong Lucas pseudoprimes pass the Lucas round and fail base 2 ...
    for n in (5459, 5777, 10877, 16109, 18971):
        assert _strong_lucas_probable_prime(n) and not _strong_probable_prime(n, 2)
    # ... and strong base-2 pseudoprimes the other way round
    for n in (2047, 3277, 4033, 4681, 8321):
        assert _strong_probable_prime(n, 2) and not _strong_lucas_probable_prime(n)
    assert not _strong_lucas_probable_prime(3 ** 60)  # a square has no D with (D/n) = -1
