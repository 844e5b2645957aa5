"""Orbit-counting engines: full Burnside sums, classwise sums, torsion census.

All engines count orbits of a finite matrix group W acting on (Z/p^k)^l and
must agree exactly; they differ in what they sum.  ``count_burnside_full``
computes fixed-point counts directly from Smith forms of w - I at precision
k, all read by the batched Smith engine on the rows that
``FiniteMatrixGroup.rows_at`` gives at p^k: the class representatives, or,
per element, every element in fixed chunks, a sum that does not use the
class partition at all;
``count_burnside_classes`` decomposes each count as p^(k*rank) times the
torsion contribution, both read off the complete class records (each
class is read once, at the least m >= M with p^m > d*l for its element
order d, where the torsion always separates from the free part);
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

from .errors import InvariantViolation, NonIntegralCount, PrecisionTooLow
from .groups import FiniteMatrixGroup
from .linalg import smith_valuations_batch
from .modp import int_valuation
from .records import CountReport

#: Elements per lift and batched Smith elimination in per-element Burnside;
#: bounds both the lifted rows and the temporaries of the elimination.
BURNSIDE_CHUNK = 4096


def _report(group: FiniteMatrixGroup, k: int, method: str, total: int, start: float,
            breakdown: Optional[list] = None) -> CountReport:
    """The report of an engine whose sum over W is ``total``, timed from ``start``.

    Raises NonIntegralCount unless |W| divides the sum.
    """
    if total % group.order != 0:
        raise NonIntegralCount(f"{method} sum {total} not divisible by |W|={group.order}")
    return CountReport(
        group=group.name or "<anonymous>",
        p=group.modulus.p,
        k=k,
        method=method,
        count=total // group.order,
        breakdown=breakdown,
        elapsed=time.perf_counter() - start,
    )


def _check_precision(group: FiniteMatrixGroup, k: int) -> None:
    if group.modulus.M < group.modulus.threshold:
        raise PrecisionTooLow(
            f"group at {group.modulus} is below the faithfulness threshold "
            f"M >= {group.modulus.threshold}, cannot count at k={k}"
        )


def count_burnside_full(
    group: FiniteMatrixGroup,
    k: int,
    per_element: bool = False,
) -> CountReport:
    """Exact orbit count via Burnside: average of |Ker(w - I mod p^k)| over W.

    Fixed-point counts come straight from Smith valuations of w - I at
    precision k, |Ker| = p^(sum of min(e, k)), all read by the batched Smith
    engine.  The default evaluates one kernel per conjugacy class (the count
    is a class function); ``per_element=True`` sums over every single
    element instead, independently of the class partition.  Either way the
    elements are lifted and eliminated ``BURNSIDE_CHUNK`` at a time, so no
    more than one chunk of rows is alive at once.  Any k is reachable:
    ``rows_at`` reads the representatives, or for ``per_element`` every
    element, at p^k, lifting them by their generator words above the
    group's precision.
    """
    _check_precision(group, k)
    start = time.perf_counter()
    p = group.modulus.p
    if per_element:
        idx = np.arange(group.order)
    else:
        records = group.conjugacy_classes()
        idx = [rec.rep_index for rec in records]
    exps = []  # element t fixes p^exps[t] points: the kernel of w - I mod p^k
    for lo in range(0, len(idx), BURNSIDE_CHUNK):
        rows = group.rows_at(idx[lo:lo + BURNSIDE_CHUNK], k)
        ident = np.eye(group.dim, dtype=rows.dtype)
        exps.append(smith_valuations_batch(rows - ident, p, k).sum(axis=1))
    exps = np.concatenate(exps)
    if per_element:
        total = sum(c * p ** e for e, c in enumerate(np.bincount(exps).tolist()))
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
    _check_precision(group, k)
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

    Postcondition: every |A_w| divides the p-part of |W|.
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
    _check_precision(group, k)
    start = time.perf_counter()
    p = group.modulus.p
    total = math.prod(m + p ** k for m in exps)
    for rec in torsion_classes(group):
        t_k = torsion_contribution(p, rec.torsion_vals, k)
        total += rec.class_size * p ** (k * rec.rank) * (t_k - 1)
    return _report(group, k, "formula", total, start)
