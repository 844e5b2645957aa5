"""The value records: Modulus, GroupSpec, SquareMatrix and CountReport.

Pins what callers rely on: equality, the hash of the frozen records,
AttributeError on assignment to them, the exact repr strings, and pickle
and deepcopy round trips, which must rebuild an equal, valid record.
"""

import copy
import pickle
import random

import pytest

from repcount.catalog import GroupSpec
from repcount.counting import CountReport
from repcount.errors import InvariantViolation
from repcount.linalg import SquareMatrix
from repcount.modp import Modulus
from repcount.records import PIECE_BITS, STR_BITS, decimal_digits

MOD = Modulus(5, 3)
SPECS = {
    "g12": GroupSpec("g12"),
    "g31 at its home prime": GroupSpec("g31", p=5),
    "sphere": GroupSpec("sphere", m=4, p=5),
    "family2a": GroupSpec("family2a", m=4, s=2, n=3, p=5),
}
MATRIX = SquareMatrix.from_rows([[1, 2], [-3, 4]], MOD)
REPORTS = {
    "bare": CountReport("g12", 3, 2, "classes", 5),
    "breakdown": CountReport("g12", 3, 2, "classes", 1, breakdown=[(0, 1, 1)], elapsed=0.5),
}


def round_trips(obj):
    return [pickle.loads(pickle.dumps(obj, protocol)) for protocol in
            range(pickle.HIGHEST_PROTOCOL + 1)] + [copy.deepcopy(obj), copy.copy(obj)]


# -- Modulus --------------------------------------------------------------------


def test_modulus_equality_and_hash():
    assert Modulus(5, 3) == MOD
    assert Modulus(5, 2) != MOD
    assert Modulus(7, 3) != MOD
    assert MOD != (5, 3)
    assert hash(MOD) == hash(Modulus(5, 3)) == hash((5, 3))
    assert len({MOD, Modulus(5, 3), Modulus(5, 2)}) == 2


def test_modulus_fields_and_repr():
    assert (MOD.p, MOD.M, MOD.pM) == (5, 3, 125)
    assert repr(MOD) == "Modulus(5^3)"


@pytest.mark.parametrize("attr", ["p", "M", "pM", "other"])
def test_modulus_is_frozen(attr):
    with pytest.raises(AttributeError):
        setattr(MOD, attr, 2)
    assert (MOD.p, MOD.M, MOD.pM) == (5, 3, 125)


def test_modulus_round_trips():
    for copied in round_trips(MOD):
        assert type(copied) is Modulus
        assert copied == MOD and hash(copied) == hash(MOD)
        assert copied.pM == 125


# -- GroupSpec ------------------------------------------------------------------


def test_group_spec_normalises_sphere_and_exceptional_prime():
    assert (SPECS["sphere"].s, SPECS["sphere"].n) == (1, 1)
    assert SPECS["sphere"] == GroupSpec("sphere", m=4, s=1, n=1, p=5)
    assert SPECS["g12"].p == 3
    assert SPECS["g12"] == GroupSpec("g12", p=3)
    assert SPECS["g12"] != GroupSpec("g24")
    assert SPECS["family2a"] != GroupSpec("family2a", m=4, s=1, n=3, p=5)
    assert SPECS["g12"] != ("g12", None, None, None, 3)


def test_group_spec_hash():
    assert hash(SPECS["sphere"]) == hash(("sphere", 4, 1, 1, 5))
    assert hash(SPECS["g12"]) == hash(("g12", None, None, None, 3))
    assert hash(SPECS["family2a"]) == hash(("family2a", 4, 2, 3, 5))
    assert len({GroupSpec("g12"), GroupSpec("g12", p=3), GroupSpec("sphere", m=4, p=5),
                SPECS["sphere"]}) == 2


@pytest.mark.parametrize("spec,text", [
    ("g12", "GroupSpec(kind='g12', m=None, s=None, n=None, p=3)"),
    ("g31 at its home prime", "GroupSpec(kind='g31', m=None, s=None, n=None, p=5)"),
    ("sphere", "GroupSpec(kind='sphere', m=4, s=1, n=1, p=5)"),
    ("family2a", "GroupSpec(kind='family2a', m=4, s=2, n=3, p=5)"),
])
def test_group_spec_repr(spec, text):
    assert repr(SPECS[spec]) == text


@pytest.mark.parametrize("attr", ["kind", "m", "s", "n", "p", "other"])
def test_group_spec_is_frozen(attr):
    spec = SPECS["family2a"]
    with pytest.raises(AttributeError):
        setattr(spec, attr, 7)
    assert spec == GroupSpec("family2a", m=4, s=2, n=3, p=5)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_group_spec_round_trips(name):
    spec = SPECS[name]
    for copied in round_trips(spec):
        assert type(copied) is GroupSpec
        assert copied == spec and hash(copied) == hash(spec)
        assert copied.label() == spec.label()
        assert repr(copied) == repr(spec)


# -- SquareMatrix ---------------------------------------------------------------


def test_square_matrix_equality_hash_and_repr():
    assert MATRIX.rows == ((1, 2), (122, 4))
    assert MATRIX == SquareMatrix(((1, 2), (122, 4)), MOD)
    assert MATRIX != SquareMatrix(((1, 2), (122, 4)), Modulus(5, 2))
    assert MATRIX != ((1, 2), (122, 4))
    assert hash(MATRIX) == hash((((1, 2), (122, 4)), MOD))
    assert repr(MATRIX) == "SquareMatrix(rows=((1, 2), (122, 4)), modulus=Modulus(5^3))"
    assert MATRIX.dim == 2


@pytest.mark.parametrize("attr", ["rows", "modulus", "other"])
def test_square_matrix_is_frozen(attr):
    with pytest.raises(AttributeError):
        setattr(MATRIX, attr, None)
    assert MATRIX.rows == ((1, 2), (122, 4))


def test_square_matrix_round_trips():
    for copied in round_trips(MATRIX):
        assert type(copied) is SquareMatrix
        assert copied == MATRIX and hash(copied) == hash(MATRIX)
        assert copied.modulus.pM == 125


# -- CountReport ----------------------------------------------------------------


def test_count_report_equality_and_repr():
    assert REPORTS["bare"] == CountReport("g12", 3, 2, "classes", 5)
    assert REPORTS["bare"] != CountReport("g12", 3, 2, "classes", 6)
    assert REPORTS["bare"] != CountReport("g12", 3, 2, "classes", 5, elapsed=0.1)
    assert REPORTS["bare"] != ("g12", 3, 2, "classes", 5, None, None)
    assert repr(REPORTS["bare"]) == ("CountReport(group='g12', p=3, k=2, method='classes', "
                                     "count=5, breakdown=None, elapsed=None)")
    assert repr(REPORTS["breakdown"]) == ("CountReport(group='g12', p=3, k=2, "
                                          "method='classes', count=1, "
                                          "breakdown=[(0, 1, 1)], elapsed=0.5)")


def test_count_report_is_unhashable():
    with pytest.raises(TypeError):
        hash(REPORTS["bare"])


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_count_report_round_trips(name):
    report = REPORTS[name]
    for copied in round_trips(report):
        assert type(copied) is CountReport
        assert copied == report
        assert copied.to_json() == report.to_json()


@pytest.mark.parametrize("count", [0, -3])
def test_count_report_count_below_one(count):
    with pytest.raises(InvariantViolation, match=f"orbit count {count} is below 1"):
        CountReport("g12", 3, 1, "classes", count)


def test_count_report_bad_breakdown():
    # 4 elements fixing 3 points each sum to 12, not |W| * count = 4 * 2
    with pytest.raises(InvariantViolation, match="breakdown sums to 12, not .* = 8"):
        CountReport("g12", 3, 1, "burnside", 2, breakdown=[(0, 4, 3)])


# -- decimal digits -------------------------------------------------------------


def test_decimal_digits_match_str_around_every_size_boundary(any_number_of_digits):
    # str below and at STR_BITS, halves down to PIECE_BITS above it: every
    # bit length next to a boundary of either, all ones, a power of two and
    # a random number, and their negatives
    rng = random.Random(0)
    sizes = {1, 2, 64, 128, PIECE_BITS, 2 * PIECE_BITS + 1, STR_BITS, 2 * STR_BITS, 3 * STR_BITS}
    for bits in sorted({b + d for b in sizes for d in (-1, 0, 1)} - {0}):
        for n in ((1 << bits) - 1, 1 << bits, rng.getrandbits(bits) | 1 << (bits - 1)):
            assert decimal_digits(n) == str(n)
            assert decimal_digits(-n) == str(-n)
    for bits in (2 ** 17, 2 ** 19):
        n = rng.getrandbits(bits)
        assert decimal_digits(n) == str(n)


def test_decimal_digits_of_a_two_to_the_twenty_bit_count():
    # 10^k - 1, 10^k and 10^k + 1 spell out their digits without str, so
    # they check the conversion up to 2^20 bits; 10^k = 2^k 5^k ends in k
    # zero bits, so many of its pieces are 0 and many of 10^k - 1's all ones
    k = 315653  # 10^k just reaches 2^20 bits
    ten = 10 ** k
    assert ten.bit_length() == 2 ** 20 + 1
    assert decimal_digits(ten - 1) == "9" * k
    assert decimal_digits(ten) == "1" + "0" * k
    assert decimal_digits(ten + 1) == "1" + "0" * (k - 1) + "1"


def test_count_report_prints_a_long_count_in_full(any_number_of_digits):
    # every output format carries a count of more than STR_BITS bits whole
    count = 3 ** 40000
    report = CountReport("g12", 3, 1, "classes", count, breakdown=[(0, 1, count)])
    digits = str(count)
    assert count.bit_length() > STR_BITS and len(digits) == 19085
    assert report.to_json_dict() == {"group": "g12", "p": 3, "k": 1, "method": "classes",
                                     "count": digits,
                                     "classes": [{"rep": 0, "size": 1, "fixed": digits}]}
    assert report.to_csv().split("\n")[1].endswith("," + digits)
    assert report.to_text().endswith(f" {digits}\n")
