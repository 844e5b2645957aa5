"""Orbit-counting engines: full Burnside sums, classwise sums, torsion census.

All engines count orbits of a finite matrix group W acting on (Z/p^k)^l and
must agree exactly; they differ in what they sum.  ``count_burnside_full``
computes fixed-point counts directly from Smith forms at precision k;
``count_burnside_classes`` decomposes each count as p^(k*rank) times the
torsion contribution, with the torsion resolved adaptively at whatever
precision separates it from the free part; ``count_formula_general``
replaces the torsion-free bulk with the exponent product and only sums
corrections over the torsion classes.  Counts are arbitrary-precision ints
throughout.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .catalog import ExponentList
from .errors import NonIntegralCount, PrecisionCeiling, PrecisionTooLow
from .groups import ConjugacyClassRecord, FiniteMatrixGroup
from .linalg import kernel_size_raw, smith_valuations_raw
from .modp import SATURATED

DEFAULT_PRECISION_CEILING = 16


@dataclass
class CountReport:
    """Result of one counting run, serializable to JSON/CSV/text."""

    group: str
    p: int
    k: int
    method: str
    count: int
    breakdown: Optional[list] = None  # (rep_index, class_size, fixed_points) rows
    elapsed: Optional[float] = None

    def __post_init__(self):
        assert self.count >= 1
        if self.breakdown is not None:
            total = sum(size * fixed for _, size, fixed in self.breakdown)
            order = sum(size for _, size, _ in self.breakdown)
            assert total == order * self.count

    def to_json_dict(self, include_timing: bool = True) -> dict:
        out = {
            "group": self.group,
            "p": self.p,
            "k": self.k,
            "method": self.method,
            "count": str(self.count),
        }
        if self.breakdown is not None:
            out["classes"] = [
                {"rep": rep, "size": size, "fixed": str(fixed)}
                for rep, size, fixed in self.breakdown
            ]
        if include_timing and self.elapsed is not None:
            out["elapsed"] = round(self.elapsed, 6)
        return out

    def to_json(self, include_timing: bool = True) -> str:
        return json.dumps(self.to_json_dict(include_timing))

    def to_csv(self) -> str:
        lines = ["group,p,k,method,count",
                 f"{self.group},{self.p},{self.k},{self.method},{self.count}"]
        if self.breakdown is not None:
            lines.append("rep,class_size,fixed_points")
            lines.extend(f"{r},{s},{f}" for r, s, f in self.breakdown)
        return "\n".join(lines) + "\n"

    def to_text(self) -> str:
        head = f"{self.group}  p={self.p}  k={self.k}  method={self.method}  count={self.count}"
        if self.breakdown is None:
            return head + "\n"
        lines = [head, f"{'rep':>8} {'size':>8} {'fixed':>16}"]
        lines.extend(f"{r:>8} {s:>8} {f:>16}" for r, s, f in self.breakdown)
        return "\n".join(lines) + "\n"


def _check_precision(group: FiniteMatrixGroup, k: int) -> None:
    if group.modulus.M < group.modulus.threshold:
        raise PrecisionTooLow(
            f"group at {group.modulus} is below the faithfulness threshold "
            f"M >= {group.modulus.threshold}, cannot count at k={k}"
        )


def _diff_rows_mod(group: FiniteMatrixGroup, index: int, k: int) -> tuple:
    """w - I mod p^k for element ``index``, evaluated at precision k."""
    pk = group.modulus.p ** k
    rows = group.element_rows_at(index, k)
    return tuple(
        tuple((x - (1 if i == j else 0)) % pk for j, x in enumerate(row))
        for i, row in enumerate(rows)
    )


def count_burnside_full(
    group: FiniteMatrixGroup,
    k: int,
    per_element: bool = False,
) -> CountReport:
    """Exact orbit count via Burnside: average of |Ker(w - I mod p^k)| over W.

    Fixed-point counts come straight from Smith valuations at precision k.
    The default evaluates one kernel per conjugacy class (the count is a
    class function); ``per_element=True`` sums over every single element
    instead, which is the slow mutually-validating path.  Any k is reachable:
    above the group's precision the representatives, or for ``per_element``
    the whole store, are lifted by their generator words.
    """
    _check_precision(group, k)
    start = time.perf_counter()
    p = group.modulus.p
    breakdown = None
    if per_element:
        store = group.store_at(k)
        diffs = (store - np.eye(group.dim, dtype=store.dtype)) % p ** k
        total = sum(kernel_size_raw(d.tolist(), p, k) for d in diffs)
    else:
        breakdown = []
        total = 0
        for rec in group.conjugacy_classes():
            fixed = kernel_size_raw(_diff_rows_mod(group, rec.rep_index, k), p, k)
            breakdown.append((rec.rep_index, rec.class_size, fixed))
            total += rec.class_size * fixed
    if total % group.order != 0:
        raise NonIntegralCount(f"Burnside sum {total} not divisible by |W|={group.order}")
    return CountReport(
        group=group.name or "<anonymous>",
        p=p,
        k=k,
        method="burnside",
        count=total // group.order,
        breakdown=breakdown,
        elapsed=time.perf_counter() - start,
    )


def resolve_torsion(
    group: FiniteMatrixGroup,
    record: ConjugacyClassRecord,
    ceiling: int = DEFAULT_PRECISION_CEILING,
) -> tuple:
    """Valuations of the torsion part of Coker(w - I), raising precision as needed.

    At a precision that separates torsion from the free kernel part, the
    count of saturated Smith valuations of w - I equals the fixed-space rank
    and the remaining positive valuations are exactly the torsion.  Starts
    at threshold + 2 and walks up until that happens.
    """
    if record.torsion_vals is not None:
        return record.torsion_vals
    p = group.modulus.p
    m = group.modulus.threshold + 2
    while m <= ceiling:
        pm = p ** m
        rows = group.element_rows_at(record.rep_index, m)
        diff = tuple(
            tuple((x - (1 if i == j else 0)) % pm for j, x in enumerate(row))
            for i, row in enumerate(rows)
        )
        vals = smith_valuations_raw(diff, p, m)
        if sum(1 for e in vals if e is SATURATED) == record.rank:
            record.torsion_vals = tuple(
                e for e in vals if e is not SATURATED and e > 0
            )
            return record.torsion_vals
        m += 1
    raise PrecisionCeiling(
        f"torsion of class at index {record.rep_index} unresolved below M={ceiling}"
    )


def torsion_contribution(p: int, torsion_vals: Sequence[int], k: int) -> int:
    """|A/p^k A| for A with the given cyclic-factor valuations."""
    return p ** sum(min(e, k) for e in torsion_vals)


def count_burnside_classes(
    group: FiniteMatrixGroup,
    k: int,
    ceiling: int = DEFAULT_PRECISION_CEILING,
) -> CountReport:
    """Classwise Burnside count with fixed points split as rank times torsion."""
    _check_precision(group, k)
    start = time.perf_counter()
    p = group.modulus.p
    total = 0
    breakdown = []
    for rec in group.conjugacy_classes():
        tors = resolve_torsion(group, rec, ceiling)
        fixed = p ** (k * rec.rank) * torsion_contribution(p, tors, k)
        breakdown.append((rec.rep_index, rec.class_size, fixed))
        total += rec.class_size * fixed
    if total % group.order != 0:
        raise NonIntegralCount(f"class sum {total} not divisible by |W|={group.order}")
    return CountReport(
        group=group.name or "<anonymous>",
        p=p,
        k=k,
        method="classes",
        count=total // group.order,
        breakdown=breakdown,
        elapsed=time.perf_counter() - start,
    )


@dataclass
class CensusRow:
    """One conjugacy class annotated with rank and torsion order."""

    record: ConjugacyClassRecord
    rank: int
    torsion_order: int


def torsion_census(
    group: FiniteMatrixGroup,
    ceiling: int = DEFAULT_PRECISION_CEILING,
) -> list:
    """Annotate every class with |A_w|; rows with |A_w| > 1 drive the corrections.

    Postcondition: every |A_w| divides the p-part of |W|.
    """
    p = group.modulus.p
    p_part = p ** _p_adic_valuation(group.order, p)
    rows = []
    for rec in group.conjugacy_classes():
        tors = resolve_torsion(group, rec, ceiling)
        a_order = p ** sum(tors)
        assert p_part % a_order == 0, (
            f"|A_w| = {a_order} does not divide the p-part {p_part} of |W|"
        )
        rows.append(CensusRow(record=rec, rank=rec.rank, torsion_order=a_order))
    return rows


def torsion_classes(group: FiniteMatrixGroup, ceiling: int = DEFAULT_PRECISION_CEILING) -> list:
    """The census rows with nontrivial torsion."""
    return [row for row in torsion_census(group, ceiling) if row.torsion_order > 1]


def _p_adic_valuation(n: int, p: int) -> int:
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def solomon_sum(group: FiniteMatrixGroup, k: int) -> int:
    """Sum of class_size * p^(k*rank) over the classes."""
    p = group.modulus.p
    return sum(
        rec.class_size * p ** (k * rec.rank) for rec in group.conjugacy_classes()
    )


def count_formula_general(
    group: FiniteMatrixGroup,
    exps: ExponentList,
    k: int,
    ceiling: int = DEFAULT_PRECISION_CEILING,
) -> CountReport:
    """Exponent-product count plus torsion-class corrections.

    (prod(m_i + p^k) + sum over torsion classes of size * p^(k*rank) *
    (t_k - 1)) / |W|, which must agree exactly with the Burnside engines.
    """
    _check_precision(group, k)
    start = time.perf_counter()
    p = group.modulus.p
    total = math.prod(m + p ** k for m in exps)
    for row in torsion_classes(group, ceiling):
        rec = row.record
        t_k = torsion_contribution(p, rec.torsion_vals, k)
        total += rec.class_size * p ** (k * rec.rank) * (t_k - 1)
    if total % group.order != 0:
        raise NonIntegralCount(f"formula sum {total} not divisible by |W|={group.order}")
    return CountReport(
        group=group.name or "<anonymous>",
        p=p,
        k=k,
        method="formula",
        count=total // group.order,
        elapsed=time.perf_counter() - start,
    )
