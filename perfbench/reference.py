"""Reference orbit counts that do not come from repcount, and output checks.

The counts restate the paper's closed forms from scratch: theorem C's fixed
polynomials for the exceptional groups, written in q = p^k, and theorem B's
binomial form for G(m,s,n).  A job passes when its exit code is 0, its JSON
output parses, and every count in it equals the reference.
"""

from __future__ import annotations

import json
from math import comb

# Theorem C: the orbit count of the exceptional group on (Z/p^k)^l is
# (numerator polynomial in q = p^k) / |W|.  G24 adds 42 * 2^min(k, 2).
_THEOREM_C = {
    "g12": (48, (1, 12, 51)),
    "g24": (336, (1, 21, 140, 216)),
    "g29": (7680, (1, 40, 530, 2720, 5925)),
    "g31": (46080, (1, 60, 1270, 11100, 42865)),
}


def theorem_c(name: str, p: int, k: int) -> int:
    order, coeffs = _THEOREM_C[name]
    q = p ** k
    num = 0
    for c in coeffs:  # Horner in q
        num = num * q + c
    if name == "g24":
        num += 42 * 2 ** min(k, 2)
    count, rest = divmod(num, order)
    if rest:
        raise ArithmeticError(f"theorem C numerator for {name} at k={k} is not divisible")
    return count


def theorem_b(m: int, s: int, n: int, p: int, k: int) -> int:
    """C(N+n-1, n-1) + s * C(N+n-1, n) with N = (p^k - 1) / m."""
    big_n = (p ** k - 1) // m
    return comb(big_n + n - 1, n - 1) + s * comb(big_n + n - 1, n)


def expected_count(group, k: int) -> int:
    """Reference orbit count of `group` (a workloads.Group) on (Z/p^k)^l."""
    if group.name in _THEOREM_C:
        return theorem_c(group.name, group.p, k)
    return theorem_b(group.m, group.s, group.n, group.p, k)


def check(job, returncode: int, stdout: bytes, reference=expected_count) -> list:
    """Problems with one job's result; the empty list means it is correct."""
    if returncode != 0:
        return [f"exit code {returncode}"]
    try:
        out = json.loads(stdout)
    except ValueError:
        return ["stdout is not one JSON object"]
    try:
        return _CHECKS[job.command](job, out, reference)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed output: {exc!r}"]


def _check_count(job, out, reference) -> list:
    want = reference(job.group, job.k)
    got = int(out["count"])
    return [] if got == want else [f"count {got} != reference {want}"]


def _check_crosscheck(job, out, reference) -> list:
    problems = []
    if out["pass"] is not True:
        problems.append("crosscheck did not pass")
    ks = [chk["k"] for chk in out["checks"]]
    if ks != list(range(1, job.kmax + 1)):
        problems.append(f"checked k values {ks}")
    for chk in out["checks"]:
        want = reference(job.group, chk["k"])
        for method, value in chk["counts"].items():
            if int(value) != want:
                problems.append(f"k={chk['k']} {method}={value} != reference {want}")
    return problems


def _check_census(job, out, reference) -> list:
    # With k at least every torsion valuation, a class contributes
    # size * p^(k*rank) * |A_w| fixed points, so the census must reproduce the
    # reference count at that k by Burnside's lemma.
    group, rows = job.group, out["classes"]
    order = sum(row["size"] for row in rows)
    if order != group.order or out["order"] != group.order:
        return [f"class sizes sum to {order}, group order is {group.order}"]
    k = 1
    while group.p ** k < max(row["torsion_order"] for row in rows):
        k += 1
    total = sum(row["size"] * group.p ** (k * row["rank"]) * row["torsion_order"]
                for row in rows)
    want = reference(group, k)
    if total != want * order:
        return [f"census Burnside sum at k={k} is {total}, reference {want} * {order}"]
    return []


_CHECKS = {"count": _check_count, "crosscheck": _check_crosscheck, "census": _check_census}
