"""Orbit-counting engines: full Burnside sums, classwise sums, torsion census.

All engines count orbits of a finite matrix group W acting on (Z/p^k)^l and
must agree exactly; they differ in what they sum.  ``count_burnside_full``
computes fixed-point counts directly from Smith forms of w - I, all read by
the Smith engine at one precision, p^min(k, v_p(|W|) + 1), whatever k is,
from the batches of w - I that ``FiniteMatrixGroup.minus_identity_lanes``
gives there: the class representatives, or, per element, every element in
fixed chunks, a sum that does not use the class partition at all;
``count_burnside_classes`` decomposes each count as p^(k*rank) times the
torsion contribution, both read off the complete class records (the
whole table is read at one precision, the least m >= M with p^m > d*l for
the largest element order d, where every class's torsion separates from
its free part);
``count_formula_general`` replaces the torsion-free bulk with the exponent
product and only sums corrections over the torsion classes.  Counts are
arbitrary-precision ints throughout, and every engine hands its sum to
``_report``, the one place that divides by |W| and builds the
``CountReport``.
"""

from __future__ import annotations

import math
import time
from typing import Optional, Sequence

import numpy as np

from .errors import InvariantViolation
from .groups import FiniteMatrixGroup
from .linalg import smith_valuations_lanes
from .modp import int_valuation
from .records import CountReport

#: Elements per lift and batched Smith elimination in per-element Burnside;
#: bounds both the lifted rows and the temporaries of the elimination.
BURNSIDE_CHUNK = 4096


def _report(group: FiniteMatrixGroup, k: int, method: str, total: int, start: float,
            breakdown: Optional[list] = None) -> CountReport:
    """The report of an engine whose sum over W is ``total``, timed from ``start``.

    Raises InvariantViolation unless |W| divides the sum.
    """
    if total % group.order != 0:
        raise InvariantViolation(f"{method} sum {total} not divisible by |W|={group.order}")
    return CountReport(
        group=group.name or "<anonymous>",
        p=group.modulus.p,
        k=k,
        method=method,
        count=total // group.order,
        breakdown=breakdown,
        elapsed=time.perf_counter() - start,
    )


def count_burnside_full(
    group: FiniteMatrixGroup,
    k: int,
    per_element: bool = False,
) -> CountReport:
    """Exact orbit count via Burnside: average of |Ker(w - I mod p^k)| over W.

    Every w - I is read once, by the batched Smith engine at m = min(k,
    v_p(|W|) + 1).  The torsion of Coker(w - I) is killed by the order of w,
    which divides |W|, so a valuation below m is exact and one that reads m
    is free: w fixes p^(sum of the valuations + (k - m) * the number that
    read m) points.  The default reads one kernel per conjugacy class (the
    count is a class function); ``per_element=True`` sums over every element
    instead, independently of the class partition.  Either way
    ``BURNSIDE_CHUNK`` elements are read and eliminated at a time.
    """
    start = time.perf_counter()
    p = group.modulus.p
    m = min(k, int_valuation(group.order, p) + 1)
    if per_element:
        idx = np.arange(group.order)
    else:
        records = group.conjugacy_classes()
        idx = [rec.rep_index for rec in records]
    exps = []  # element t fixes p^exps[t] points: the kernel of w - I mod p^k
    for lo in range(0, len(idx), BURNSIDE_CHUNK):
        lanes = group.minus_identity_lanes(idx[lo:lo + BURNSIDE_CHUNK], m)
        vals = smith_valuations_lanes(lanes, p, m)
        exps.append(vals.sum(axis=0) + (k - m) * (vals == m).sum(axis=0))
    exps = np.concatenate(exps)
    if per_element:
        counts = np.bincount(exps)  # up to k*l long: sum only the exponents that occur
        total = sum(int(counts[e]) * p ** e for e in np.flatnonzero(counts).tolist())
        return _report(group, k, "burnside", total, start)
    breakdown = [(rec.rep_index, rec.class_size, p ** e)
                 for rec, e in zip(records, exps.tolist())]
    total = sum(size * fixed for _, size, fixed in breakdown)
    return _report(group, k, "burnside", total, start, breakdown)


def torsion_contribution(p: int, torsion_vals: Sequence[int], k: int) -> int:
    """|A/p^k A| for A with the given cyclic-factor valuations."""
    return p ** sum(min(e, k) for e in torsion_vals)


def count_burnside_classes(group: FiniteMatrixGroup, k: int) -> CountReport:
    """Classwise Burnside count with fixed points split as rank times torsion."""
    start = time.perf_counter()
    p = group.modulus.p
    breakdown = [
        (rec.rep_index, rec.class_size,
         p ** (k * rec.rank) * torsion_contribution(p, rec.torsion_vals, k))
        for rec in group.conjugacy_classes()
    ]
    total = sum(size * fixed for _, size, fixed in breakdown)
    return _report(group, k, "classes", total, start, breakdown)


def torsion_census(group: FiniteMatrixGroup) -> list:
    """Every class record; those with |A_w| > 1 drive the corrections.

    Postconditions: every |A_w| divides the p-part of |W|, and a class with
    |A_w| > 1 has p | ord(w): for a p'-element w the average of its powers is
    a p-integral projector onto Fix(w), so Coker(w - I) is free.
    """
    p = group.modulus.p
    p_part = p ** int_valuation(group.order, p)
    records = group.conjugacy_classes()
    for rec in records:
        if p_part % rec.torsion_order != 0:
            raise InvariantViolation(
                f"|A_w| = {rec.torsion_order} of class at index {rec.rep_index} "
                f"does not divide the p-part {p_part} of |W|"
            )
        if rec.torsion_order > 1 and rec.element_order % p != 0:
            raise InvariantViolation(
                f"class at index {rec.rep_index} has |A_w| = {rec.torsion_order} "
                f"but element order {rec.element_order} prime to p = {p}"
            )
    return list(records)


def torsion_classes(group: FiniteMatrixGroup) -> list:
    """The class records with nontrivial torsion."""
    return [rec for rec in torsion_census(group) if rec.torsion_order > 1]


def count_formula_general(
    group: FiniteMatrixGroup,
    exps: Sequence[int],
    k: int,
) -> CountReport:
    """Exponent-product count plus torsion-class corrections.

    (prod(m_i + p^k) + sum over torsion classes of size * p^(k*rank) *
    (t_k - 1)) / |W|, which must agree exactly with the Burnside engines.
    """
    start = time.perf_counter()
    p = group.modulus.p
    total = math.prod(m + p ** k for m in exps)
    for rec in torsion_classes(group):
        t_k = torsion_contribution(p, rec.torsion_vals, k)
        total += rec.class_size * p ** (k * rec.rank) * (t_k - 1)
    return _report(group, k, "formula", total, start)
