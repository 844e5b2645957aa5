"""Command-line frontend: build groups, count orbits, cross-check methods.

Exit codes: 0 success, 1 cross-check divergence, 2 invalid spec or parse
error, 3 cap or precision error, 4 internal error (any other RepcountError,
such as a broken invariant or a non-integral count).  Errors are reported as
one JSON object on stderr.  With --no-timing, identical flags produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import catalog, counting, formulas, grassmannian, oracle
from .catalog import GroupSpec, parse_spec
from .errors import (
    CapExceeded,
    NonIntegralResult,
    PrecisionTooLow,
    RepcountError,
    SpaceTooLarge,
    SpecInvalid,
)
from .groups import DEFAULT_CLOSURE_CAP
from .linalg import parse_matrix_text, smith_valuations
from .modp import SATURATED

EXIT_OK = 0
EXIT_DIVERGENCE = 1
EXIT_SPEC = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

_CAP_ERRORS = (CapExceeded, PrecisionTooLow, SpaceTooLarge)

GROUP_METHODS = ("burnside", "classes", "formula", "oracle")
ALL_METHODS = GROUP_METHODS + ("theoremA", "theoremB", "theoremC", "domain")


class _Config:
    def __init__(self, args):
        self.closure_cap = getattr(args, "closure_cap", None)
        self.oracle_cap = getattr(args, "oracle_cap", None)
        self.fmt = args.format
        self.timing = not getattr(args, "no_timing", False)
        self.per_element = getattr(args, "per_element", False)
        self._groups = {}

    def group(self, spec: GroupSpec):
        """Build (and cache) the group, closed once at its default precision.

        Every k is served by this one closure: counting lifts class
        representatives (or the whole store) by their generator words.
        """
        label = spec.label()
        if label not in self._groups:
            self._groups[label] = catalog.build(spec, cap=self.closure_cap)
        return self._groups[label]


def _emit(report: counting.CountReport, cfg: _Config) -> None:
    if cfg.fmt == "json":
        print(report.to_json(include_timing=cfg.timing))
    elif cfg.fmt == "csv":
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(report.to_text())


def _applicable_methods(spec: GroupSpec) -> list:
    if spec.kind in catalog.FORMULA_ONLY:
        return ["theoremC"]
    methods = ["burnside", "classes", "formula"]
    if spec.kind in catalog.EXCEPTIONAL:
        methods.append("theoremC")
    if spec.kind in ("family2a", "sphere"):
        methods.extend(["theoremB", "domain"])
        if _is_nonmodular(spec):
            methods.append("theoremA")
    methods.append("oracle")
    return methods


def _is_nonmodular(spec: GroupSpec) -> bool:
    return spec.expected_order % spec.p != 0


def run_count(spec: GroupSpec, k: int, method: str, cfg: _Config) -> counting.CountReport:
    if k < 1:
        raise SpecInvalid(f"k must be >= 1, got {k}")
    if method == "theoremC":
        start = time.perf_counter()
        value = formulas.theorem_c(spec.kind, k)
        return counting.CountReport(spec.label(), spec.p, k, "theoremC", value,
                                    elapsed=time.perf_counter() - start)
    if method == "theoremA":
        start = time.perf_counter()
        value = formulas.theorem_a(catalog.exponents(spec), spec.p, k)
        return counting.CountReport(spec.label(), spec.p, k, "theoremA", value,
                                    elapsed=time.perf_counter() - start)
    if method in ("theoremB", "domain"):
        if spec.kind not in ("family2a", "sphere"):
            raise SpecInvalid(f"method {method} applies to family2a/sphere specs only")
        start = time.perf_counter()
        m, s, n = spec.m, (spec.s if spec.kind == "family2a" else 1), (spec.n or 1)
        if method == "theoremB":
            value = grassmannian.theorem_b(m, s, n, spec.p, k)
        else:
            value, _ = grassmannian.enumerate_distinguished(m, s, n, spec.p, k)
        return counting.CountReport(spec.label(), spec.p, k, method, value,
                                    elapsed=time.perf_counter() - start)
    if not spec.buildable:
        raise SpecInvalid(f"{spec.label()} supports only closed-form methods")
    group = cfg.group(spec)
    if method == "burnside":
        return counting.count_burnside_full(group, k, per_element=cfg.per_element)
    if method == "classes":
        return counting.count_burnside_classes(group, k)
    if method == "formula":
        return counting.count_formula_general(group, catalog.exponents(spec), k)
    if method == "oracle":
        start = time.perf_counter()
        value = oracle.orbit_count_bruteforce(group, k, cap=cfg.oracle_cap)
        return counting.CountReport(spec.label(), spec.p, k, "oracle", value,
                                    elapsed=time.perf_counter() - start)
    raise SpecInvalid(f"unknown method {method!r}")


def cmd_count(args) -> int:
    cfg = _Config(args)
    if cfg.per_element and args.method != "burnside":
        raise SpecInvalid(f"--per-element applies to --method burnside, not {args.method}")
    spec = _spec_from_args(args)
    report = run_count(spec, args.k, args.method, cfg)
    _emit(report, cfg)
    return EXIT_OK


def _spec_from_args(args) -> GroupSpec:
    if getattr(args, "group", None):
        dropped = [f"--{f}" for f in ("m", "s", "n", "p") if getattr(args, f) is not None]
        if dropped:
            raise SpecInvalid(f"--group names the whole group and cannot be combined "
                              f"with {' '.join(dropped)}")
        return parse_spec(args.group)
    if getattr(args, "m", None) is not None:
        s = 1 if args.s is None else args.s
        n = 1 if args.n is None else args.n
        if n >= 2:
            return GroupSpec("family2a", m=args.m, s=s, n=n, p=args.p)
        if (s, n) != (1, 1):
            raise SpecInvalid(f"--s {s} --n {n}: G(m,s,n) needs n >= 2, and the "
                              "flags without --n name the sphere G(m,1,1)")
        return GroupSpec("sphere", m=args.m, p=args.p)
    raise SpecInvalid("no group given: pass --group or the --m/--s/--n/--p flags")


def cmd_census(args) -> int:
    cfg = _Config(args)
    spec = _spec_from_args(args)
    if not spec.buildable:
        raise SpecInvalid(f"{spec.label()} has no build path, so no census")
    group = cfg.group(spec)
    rows = counting.torsion_census(group)
    if cfg.fmt == "json":
        payload = {
            "group": spec.label(),
            "p": spec.p,
            "order": group.order,
            "classes": [
                {
                    "rep": rec.rep_index,
                    "size": rec.class_size,
                    "centralizer": rec.centralizer_order,
                    "rank": rec.rank,
                    "torsion_order": rec.torsion_order,
                }
                for rec in rows
            ],
        }
        print(json.dumps(payload))
    elif cfg.fmt == "csv":
        print("rep,size,centralizer,rank,torsion_order")
        for rec in rows:
            print(f"{rec.rep_index},{rec.class_size},{rec.centralizer_order},"
                  f"{rec.rank},{rec.torsion_order}")
    else:
        print(f"group {spec.label()}  order {group.order}  classes {len(rows)}")
        print(f"{'rep':>8} {'size':>8} {'centralizer':>12} {'rank':>5} {'|A_w|':>8}")
        for rec in rows:
            print(f"{rec.rep_index:>8} {rec.class_size:>8} "
                  f"{rec.centralizer_order:>12} {rec.rank:>5} {rec.torsion_order:>8}")
        torsion = [r for r in rows if r.torsion_order > 1]
        print(f"torsion classes: {len(torsion)}")
    return EXIT_OK


def cmd_classes(args) -> int:
    cfg = _Config(args)
    spec = _spec_from_args(args)
    if not spec.buildable:
        raise SpecInvalid(f"{spec.label()} has no build path, so no class table")
    group = cfg.group(spec)
    records = group.conjugacy_classes()
    if cfg.fmt == "json":
        payload = {
            "group": spec.label(),
            "p": spec.p,
            "order": group.order,
            "classes": [
                {
                    "rep": rec.rep_index,
                    "element_order": rec.element_order,
                    "size": rec.class_size,
                    "centralizer": rec.centralizer_order,
                    "rank": rec.rank,
                    "diagonal": list(rec.smith_vals.diagonal()),
                }
                for rec in records
            ],
        }
        print(json.dumps(payload))
    elif cfg.fmt == "csv":
        print("rep,element_order,size,centralizer,rank,diagonal")
        for rec in records:
            diag = " ".join(str(d) for d in rec.smith_vals.diagonal())
            print(f"{rec.rep_index},{rec.element_order},{rec.class_size},"
                  f"{rec.centralizer_order},{rec.rank},{diag}")
    else:
        print(f"group {spec.label()}  order {group.order}  classes {len(records)}")
        print(f"{'rep':>8} {'ord':>5} {'size':>8} {'centralizer':>12} {'rank':>5}  diagonal")
        for rec in records:
            print(f"{rec.rep_index:>8} {rec.element_order:>5} {rec.class_size:>8} "
                  f"{rec.centralizer_order:>12} {rec.rank:>5}  {rec.smith_vals.diagonal()}")
    return EXIT_OK


def cmd_crosscheck(args) -> int:
    cfg = _Config(args)
    spec = _spec_from_args(args)
    if args.kmax < 1:
        raise SpecInvalid(f"kmax must be >= 1, got {args.kmax}")
    methods = _applicable_methods(spec)
    checks = []
    passed = True
    first_divergence = None
    for k in range(1, args.kmax + 1):
        counts = {}
        for method in methods:
            if method == "oracle":
                size = spec.p ** (k * spec.rank)
                if size > cfg.oracle_cap:
                    continue
            if method == "domain":
                if spec.p ** k > grassmannian.MAX_TABLE_POINTS:
                    continue
            counts[method] = run_count(spec, k, method, cfg).count
        distinct = set(counts.values())
        ok = len(distinct) <= 1
        checks.append({"k": k, "counts": {m: str(v) for m, v in counts.items()},
                       "ok": ok})
        if not ok and passed:
            passed = False
            first_divergence = (k, counts)
    payload = {
        "group": spec.label(),
        "kmax": args.kmax,
        "methods": methods,
        "checks": checks,
        "pass": passed,
    }
    if not spec.buildable:
        payload["note"] = "no group methods available; integrality of the closed form only"
    if cfg.fmt == "json":
        print(json.dumps(payload))
    else:
        for chk in checks:
            state = "ok" if chk["ok"] else "DIVERGENT"
            counts = "  ".join(f"{m}={v}" for m, v in chk["counts"].items())
            print(f"k={chk['k']}: {counts}  [{state}]")
        print(f"crosscheck {spec.label()}: {'pass' if passed else 'FAIL'}")
    if not passed:
        k, counts = first_divergence
        print(
            json.dumps({"error": "Divergence", "message": f"methods disagree at k={k}: "
                        + ", ".join(f"{m}={v}" for m, v in counts.items())}),
            file=sys.stderr,
        )
        return EXIT_DIVERGENCE
    return EXIT_OK


def cmd_snf(args) -> int:
    cfg = _Config(args)
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            mat = parse_matrix_text(fh.read())
    except (OSError, ValueError) as exc:
        raise SpecInvalid(f"cannot read matrix: {exc}") from exc
    sv = smith_valuations(mat)
    vals = ["saturated" if e is SATURATED else e for e in sv.vals]
    if cfg.fmt == "json":
        print(json.dumps({
            "p": mat.modulus.p,
            "M": mat.modulus.M,
            "valuations": vals,
            "diagonal": list(sv.diagonal()),
        }))
    else:
        print(f"p={mat.modulus.p} M={mat.modulus.M}")
        print("valuations:", " ".join(str(v) for v in vals))
        print("diagonal:  ", " ".join(str(d) for d in sv.diagonal()))
    return EXIT_OK


def cmd_formula(args) -> int:
    cfg = _Config(args)
    start = time.perf_counter()
    if args.name:
        if args.p is not None or args.exponents is not None:
            raise SpecInvalid(f"--name {args.name} fixes the polynomial and its prime "
                              "and cannot be combined with --p or --exponents")
        value = formulas.theorem_c(args.name, args.k)
        spec = parse_spec(args.name)
        report = counting.CountReport(spec.label(), spec.p, args.k, "closed-form",
                                      value, elapsed=time.perf_counter() - start)
    elif args.exponents:
        if args.p is None:
            raise SpecInvalid("--exponents requires --p")
        try:
            exps = [int(tok) for tok in args.exponents.split(",")]
        except ValueError:
            raise SpecInvalid(f"bad exponent list {args.exponents!r}") from None
        value = formulas.theorem_a(exps, args.p, args.k)
        report = counting.CountReport(f"exponents:{args.exponents}", args.p, args.k,
                                      "closed-form", value,
                                      elapsed=time.perf_counter() - start)
    else:
        raise SpecInvalid("pass --name for a fixed polynomial or --exponents with --p")
    _emit(report, cfg)
    return EXIT_OK


def _add_output(parser, formats=("json", "csv", "text")) -> None:
    parser.add_argument("--format", choices=formats, default="text")
    parser.add_argument("--no-timing", action="store_true",
                        help="omit elapsed times for byte-identical output")


def _add_oracle_cap(parser) -> None:
    parser.add_argument("--oracle-cap", type=int, default=oracle.DEFAULT_POINT_CAP)


def _add_group_args(parser) -> None:
    parser.add_argument("--group", help="g12|g24|g29|g31|x34|family2a:m=..,s=..,n=..,p=..|sphere:m=..,p=..")
    parser.add_argument("--m", type=int)
    parser.add_argument("--s", type=int)
    parser.add_argument("--n", type=int)
    parser.add_argument("--p", type=int)
    parser.add_argument("--closure-cap", type=int, default=DEFAULT_CLOSURE_CAP)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repcount",
        description="Exact orbit counts of reflection groups acting on (Z/p^k)^l",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count orbits with one method")
    _add_group_args(p_count)
    p_count.add_argument("--k", type=int, required=True)
    p_count.add_argument("--method", choices=ALL_METHODS, default="classes")
    p_count.add_argument("--per-element", action="store_true",
                         help="sum the Burnside method over every element")
    _add_output(p_count)
    _add_oracle_cap(p_count)
    p_count.set_defaults(func=cmd_count)

    p_census = sub.add_parser("census", help="per-class rank and torsion table")
    _add_group_args(p_census)
    _add_output(p_census)
    p_census.set_defaults(func=cmd_census)

    p_classes = sub.add_parser("classes", help="conjugacy class table")
    _add_group_args(p_classes)
    _add_output(p_classes)
    p_classes.set_defaults(func=cmd_classes)

    p_cross = sub.add_parser("crosscheck", help="run all applicable methods and compare")
    _add_group_args(p_cross)
    p_cross.add_argument("--kmax", type=int, required=True)
    _add_output(p_cross, formats=("json", "text"))
    _add_oracle_cap(p_cross)
    p_cross.set_defaults(func=cmd_crosscheck)

    p_snf = sub.add_parser("snf", help="Smith valuations of a matrix file")
    p_snf.add_argument("file")
    _add_output(p_snf, formats=("json", "text"))
    p_snf.set_defaults(func=cmd_snf)

    p_formula = sub.add_parser("formula", help="evaluate a closed form")
    p_formula.add_argument("--name", help="x12|x24|x29|x31|x34")
    p_formula.add_argument("--exponents", help="comma-separated exponent list")
    p_formula.add_argument("--p", type=int)
    p_formula.add_argument("--k", type=int, required=True)
    _add_output(p_formula)
    p_formula.set_defaults(func=cmd_formula)

    return parser


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)  # exact counts can run to any number of digits
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecInvalid, NonIntegralResult) as exc:
        # a non-integral closed form means the formula does not apply to the
        # requested data (e.g. the exponent product on modular exponents)
        _report_error(exc)
        return EXIT_SPEC
    except _CAP_ERRORS as exc:
        _report_error(exc)
        return EXIT_CAP
    except RepcountError as exc:
        _report_error(exc)
        return EXIT_INTERNAL


def _report_error(exc: RepcountError) -> None:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
          file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
