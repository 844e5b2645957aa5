"""Seeded job lists for the benchmark workloads.

A job is one `repcount` invocation.  Every workload is a list of strata; a
stratum draws one job from its alternatives with the workload's seeded
random generator, so the same seed gives the same argv lists.  The
alternatives inside one stratum were chosen to cost about the same on the
same code, which keeps the cost of a pass in one band whatever the seed:
a claim measured on one seed can be confirmed on a held-out seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Optional

#: name -> (prime, group order) for the exceptional groups.
EXCEPTIONAL = {
    "g12": (3, 48),
    "g24": (2, 336),
    "g29": (5, 7680),
    "g31": (5, 46080),
}


@dataclass(frozen=True)
class Group:
    """An exceptional group by name, or a monomial group G(m,s,n) over p."""

    name: str
    p: int
    m: Optional[int] = None
    s: Optional[int] = None
    n: Optional[int] = None

    @property
    def spec(self) -> str:
        if self.name in EXCEPTIONAL:
            return self.name
        return f"family2a:m={self.m},s={self.s},n={self.n},p={self.p}"

    @property
    def order(self) -> int:
        if self.name in EXCEPTIONAL:
            return EXCEPTIONAL[self.name][1]
        return self.m ** self.n * math.factorial(self.n) // self.s


def exceptional(name: str) -> Group:
    return Group(name, EXCEPTIONAL[name][0])


def monomial(m: int, s: int, n: int, p: int) -> Group:
    return Group("family2a", p, m, s, n)


@dataclass(frozen=True)
class Job:
    """One CLI invocation: `command` is count, census or crosscheck."""

    command: str
    group: Group
    k: Optional[int] = None          # count: the exponent k
    kmax: Optional[int] = None       # crosscheck: the largest k
    method: Optional[str] = None     # count: the counting method
    per_element: bool = False

    @property
    def argv(self) -> list:
        out = [self.command, "--group", self.group.spec]
        if self.command == "count":
            out += ["--k", str(self.k), "--method", self.method]
            if self.per_element:
                out.append("--per-element")
        elif self.command == "crosscheck":
            out += ["--kmax", str(self.kmax)]
        return out + ["--format", "json", "--no-timing"]


def _highk(rng: random.Random) -> list:
    # All four strata re-close the group at M = k.  g29, g24 and g12 fall in
    # the pure-Python element store (p^M * p^M * l >= 2^63); g31 at k <= 13
    # stays in the numpy store.  g31 at k >= 14 alone would take ~20 s.  The
    # k ranges keep every matmul entry sum below 2^90, three 30-bit digits
    # of a Python int, so the cost does not step up with k inside a range.
    strata = (("g29", 14, 18), ("g31", 9, 13), ("g24", 31, 40), ("g12", 20, 28))
    return [
        Job("count", exceptional(name), k=rng.randint(lo, hi),
            method=rng.choice(("classes", "formula")))
        for name, lo, hi in strata
    ]


def _elementwise(rng: random.Random) -> list:
    # One Smith elimination per group element at precision k.  k <= 3 keeps
    # every group at its default M (k = 4 would re-close it at M = 4, which
    # is what highk measures); at k = 1 g31 runs ~12% faster than at k = 2
    # or 3.  The monomial group's prime changes the entries, not the work.
    groups = (exceptional("g31"), exceptional("g29"),
              monomial(4, 1, 4, rng.choice((5, 13, 17, 29, 37))))
    return [Job("count", g, k=rng.randint(2, 3), method="burnside", per_element=True)
            for g in groups]


def _crosscheck(rng: random.Random) -> list:
    # Every oracle space stays at most 2^20 points.  kmax is fixed for g12
    # and g24, because one step more or less moves the pass cost by ~10%
    # (g12 at kmax 5 adds a flood of 3^10 points); the small monomial groups
    # all flood (Z/7^2)^3, at a similar cost.
    small = rng.choice(((6, 1, 3, 7), (6, 2, 3, 7), (6, 3, 3, 7)))
    return [
        Job("crosscheck", exceptional("g12"), kmax=4),
        Job("crosscheck", exceptional("g24"), kmax=5),
        Job("crosscheck", exceptional("g29"), kmax=2),
        Job("crosscheck", exceptional("g31"), kmax=2),
        Job("crosscheck", monomial(*small), kmax=2),
    ]


def _monomial(rng: random.Random) -> list:
    # G(4,2,5) has order 61440 and G(3,1,5) order 29160.  Only the prime,
    # the command and k vary, so the element store, and with it the peak
    # RSS, has the same size for every seed.  k <= 3 keeps the default M.
    groups = (monomial(4, 2, 5, rng.choice((5, 13, 17, 29, 37))),
              monomial(3, 1, 5, rng.choice((7, 13, 19, 31, 37))))
    jobs = []
    for g in groups:
        if rng.random() < 0.5:
            jobs.append(Job("census", g))
        else:
            jobs.append(Job("count", g, k=rng.randint(1, 3), method="classes"))
    return jobs


def _smoke(rng: random.Random) -> list:
    # Tiny inputs for the harness self-test: one job of each command.
    return [
        Job("count", exceptional("g12"), k=rng.randint(1, 3), method="classes"),
        Job("census", monomial(3, 1, 2, 7)),
        Job("crosscheck", exceptional("g12"), kmax=1),
    ]


WORKLOADS = {
    "highk": _highk,
    "elementwise": _elementwise,
    "crosscheck": _crosscheck,
    "monomial": _monomial,
}

_ALL = dict(WORKLOADS, smoke=_smoke)


def jobs_for(workload: str, seed: int) -> list:
    """The job list of one pass; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = _ALL[workload](rng)
    rng.shuffle(jobs)
    return jobs
