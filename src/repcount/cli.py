"""Command-line frontend: build groups, count orbits, cross-check methods.

Exit codes: 0 success, 1 cross-check divergence, 2 invalid spec or usage
error, 3 a cap, precision or size bound reached, 4 internal error.  A
RepcountError exits with its class's ``exit_code``: 2 for SpecInvalid; 3 for
CapExceeded, PrecisionTooLow and SpaceTooLarge (among them a k at which a
count could exceed records.MAX_COUNT_BITS = 2^19 bits, and a p of more than
modp.MAX_PRIME_BITS = 4096 bits, refused untested); 4 for every other
class, such as InvariantViolation.  A MemoryError or output that could not
be written exits 3 too.  Errors are reported as one JSON object on stderr;
on a divergence it names the first divergent k, while stdout still carries
the whole cross-check.  With --no-timing, identical flags produce
byte-identical output.  ``--method`` takes ``catalog.METHODS``, and
``crosscheck`` runs a spec's ``GroupSpec.methods``.
"""

from __future__ import annotations

import gc
import os

if __name__ == "__main__":
    gc.disable()  # for the life of the process: see entry()
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")  # before numpy loads: see entry()

import argparse
import json
import sys
import time
from typing import NoReturn

from . import catalog
from .catalog import ALIASES, GRAMMAR, parse_spec
from .errors import EXIT_LIMIT, RepcountError, SpaceTooLarge, SpecInvalid
from .records import CountReport, check_bits, decimal_digits

EXIT_OK = 0
EXIT_DIVERGENCE = 1


class _Job:
    """One command's one spec, with that spec's group built at most once.

    The caps are checked before the spec is parsed.  Every k is served by the
    one closure at the group's default precision, with no lift per k.
    ``levels`` keeps the oracle's level counts P(1), P(2), ... across k.
    """

    def __init__(self, args):
        for flag, cap in (("--closure-cap", args.closure_cap), ("--oracle-cap", args.oracle_cap)):
            if cap is not None and cap < 1:
                raise SpecInvalid(f"{flag} must be >= 1, got {cap}")
        if args.group is None:
            raise SpecInvalid("no group given: pass --group")
        self.args = args
        self.spec = parse_spec(args.group)
        self.levels = []
        self._group = None

    def group(self):
        if self._group is None:
            self._group = catalog.build(self.spec, cap=self.args.closure_cap)
        return self._group


def _emit(report: CountReport, args) -> None:
    if args.format == "json":
        print(report.to_json(include_timing=not args.no_timing))
    elif args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(report.to_text())


def _check_count_size(p: int, l: int, k: int) -> None:
    """Refuse every count at k on (Z/p^k)^l, l the rank, before one is formed."""
    check_bits(k * l * p.bit_length(), f"counts at k={k} on (Z/{p}^k)^{l}")


def run_count(job: _Job, k: int, method: str) -> CountReport:
    """One method's count at k: an engine's report, or a timed value wrapped once.

    A method outside the spec's ``methods`` is refused.  The group is built
    and its engines imported before any timing starts.
    """
    spec = job.spec
    if k < 1:
        raise SpecInvalid(f"k must be >= 1, got {k}")
    if method not in spec.methods:
        raise SpecInvalid(f"method {method} does not apply to {spec.label()}, "
                          f"which takes {', '.join(spec.methods)}")
    if method not in catalog.CLOSED_FORMS:
        from . import counting, oracle
        group = job.group()
    if method == "burnside":
        return counting.count_burnside_full(group, k, per_element=job.args.per_element)
    if method == "classes":
        return counting.count_burnside_classes(group, k)
    if method == "formula":
        return counting.count_formula_general(group, catalog.exponents(spec), k)
    if method in catalog.CLOSED_FORMS:
        from . import formulas, grassmannian  # imported by the closed forms only
    start = time.perf_counter()
    if method == "theoremC":
        value = formulas.theorem_c(spec.kind, k)
    elif method == "theoremA":
        value = formulas.theorem_a(catalog.exponents(spec), spec.p, k)
    elif method == "theoremB":
        value = grassmannian.theorem_b(spec.m, spec.s, spec.n, spec.p, k)
    else:  # the oracle: argparse admits only catalog.METHODS
        cap = oracle.DEFAULT_POINT_CAP if job.args.oracle_cap is None else job.args.oracle_cap
        value = oracle.orbit_count_bruteforce(group, k, cap=cap, levels=job.levels)
    return CountReport(spec.label(), spec.p, k, method, value,
                       elapsed=time.perf_counter() - start)


def cmd_count(args) -> int:
    if args.per_element and args.method != "burnside":
        raise SpecInvalid(f"--per-element applies to --method burnside, not {args.method}")
    job = _Job(args)
    _check_count_size(job.spec.p, job.spec.rank, args.k)
    _emit(run_count(job, args.k, args.method), args)
    return EXIT_OK


def _class_table(args, rows, header: str, row: str, footer=None) -> int:
    """Print ``rows(group)``, each class's columns (key -> value), as JSON, CSV or text.

    The text table is ``header``, then ``row`` formatted with each class's
    columns, then ``footer(rows)`` when one is given.
    """
    job = _Job(args)
    spec, group = job.spec, job.group()
    table = rows(group)
    if args.format == "json":
        print(json.dumps({"group": spec.label(), "p": spec.p, "order": group.order,
                          "classes": table}))
    elif args.format == "csv":
        print(",".join(table[0]))  # every group has the identity's class
        for cols in table:
            print(",".join(" ".join(map(str, v)) if isinstance(v, tuple) else str(v)
                           for v in cols.values()))
    else:
        print(f"group {spec.label()}  order {group.order}  classes {len(table)}")
        print(header)
        for cols in table:
            print(row.format(**cols))
        if footer is not None:
            print(footer(table))
    return EXIT_OK


def cmd_census(args) -> int:
    from . import counting
    return _class_table(
        args,
        lambda group: [{"rep": rec.rep_index, "size": rec.class_size,
                        "centralizer": rec.centralizer_order, "rank": rec.rank,
                        "torsion_order": rec.torsion_order}
                       for rec in counting.torsion_census(group)],
        f"{'rep':>8} {'size':>8} {'centralizer':>12} {'rank':>5} {'|A_w|':>8}",
        "{rep:>8} {size:>8} {centralizer:>12} {rank:>5} {torsion_order:>8}",
        lambda table: f"torsion classes: {sum(c['torsion_order'] > 1 for c in table)}",
    )


def cmd_classes(args) -> int:
    from .linalg import diagonal
    return _class_table(
        args,
        lambda group: [{"rep": rec.rep_index, "element_order": rec.element_order,
                        "size": rec.class_size, "centralizer": rec.centralizer_order,
                        "rank": rec.rank,
                        "diagonal": diagonal(rec.smith_vals, group.modulus.p, group.modulus.M)}
                       for rec in group.conjugacy_classes()],
        f"{'rep':>8} {'ord':>5} {'size':>8} {'centralizer':>12} {'rank':>5}  diagonal",
        "{rep:>8} {element_order:>5} {size:>8} {centralizer:>12} {rank:>5}  {diagonal}",
    )


def cmd_crosscheck(args) -> int:
    job = _Job(args)
    spec = job.spec
    if args.kmax < 1:
        raise SpecInvalid(f"kmax must be >= 1, got {args.kmax}")
    _check_count_size(spec.p, spec.rank, args.kmax)  # the whole run
    methods = spec.methods
    checks = []
    for k in range(1, args.kmax + 1):
        counts = {}
        for method in methods:
            try:
                counts[method] = decimal_digits(run_count(job, k, method).count)
            except SpaceTooLarge:
                continue  # the oracle's point cap or unit table: too large at this k
        checks.append({"k": k, "counts": counts, "ok": len(set(counts.values())) <= 1})
    divergent = next((chk for chk in checks if not chk["ok"]), None)
    payload = {
        "group": spec.label(),
        "kmax": args.kmax,
        "methods": methods,
        "checks": checks,
        "pass": divergent is None,
    }
    if not spec.buildable:
        payload["note"] = "no group methods available; integrality of the closed form only"
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for chk in checks:
            state = "ok" if chk["ok"] else "DIVERGENT"
            counts = "  ".join(f"{m}={v}" for m, v in chk["counts"].items())
            print(f"k={chk['k']}: {counts}  [{state}]")
        print(f"crosscheck {spec.label()}: {'pass' if divergent is None else 'FAIL'}")
    if divergent is None:
        return EXIT_OK
    counts = ", ".join(f"{m}={v}" for m, v in divergent["counts"].items())
    print(json.dumps({"error": "Divergence",
                      "message": f"methods disagree at k={divergent['k']}: {counts}"}),
          file=sys.stderr)
    return EXIT_DIVERGENCE


def cmd_snf(args) -> int:
    from .linalg import diagonal, parse_matrix_text, smith_valuations
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            rows, modulus = parse_matrix_text(fh.read())
    except (OSError, ValueError) as exc:
        raise SpecInvalid(f"cannot read matrix: {exc}") from exc
    p, M = modulus.p, modulus.M
    sv = smith_valuations(rows, p, M)
    vals = ["saturated" if e == M else e for e in sv]
    diag = diagonal(sv, p, M)
    if args.format == "json":
        print(json.dumps({"p": p, "M": M, "valuations": vals, "diagonal": list(diag)}))
    else:
        print(f"p={p} M={M}")
        print("valuations:", " ".join(str(v) for v in vals))
        print("diagonal:  ", " ".join(str(d) for d in diag))
    return EXIT_OK


def cmd_formula(args) -> int:
    from . import formulas
    start = time.perf_counter()
    if args.name:
        if args.p is not None or args.exponents is not None:
            raise SpecInvalid(f"--name {args.name} fixes the polynomial and its prime "
                              "and cannot be combined with --p or --exponents")
        spec = parse_spec(args.name)
        _check_count_size(spec.p, spec.rank, args.k)
        value = formulas.theorem_c(args.name, args.k)
        label, p = spec.label(), spec.p
    elif args.exponents is not None:
        if args.p is None:
            raise SpecInvalid("--exponents requires --p")
        try:
            exps = [int(tok) for tok in args.exponents.split(",")]
        except ValueError:
            raise SpecInvalid(f"bad exponent list {args.exponents!r}") from None
        _check_count_size(args.p, len(exps), args.k)
        value = formulas.theorem_a(exps, args.p, args.k)
        label, p = f"exponents:{args.exponents}", args.p
    else:
        raise SpecInvalid("pass --name for a fixed polynomial or --exponents with --p")
    _emit(CountReport(label, p, args.k, "closed-form", value,
                      elapsed=time.perf_counter() - start), args)
    return EXIT_OK


def _add_output(parser, formats=("json", "csv", "text")) -> None:
    parser.add_argument("--format", choices=formats, default="text")
    parser.add_argument("--no-timing", action="store_true",
                        help="omit elapsed times for byte-identical output")


def _add_oracle_cap(parser) -> None:
    parser.add_argument("--oracle-cap", type=int)  # None: the oracle's own default


def _add_group_args(parser) -> None:
    parser.add_argument("--group", help=GRAMMAR)
    parser.add_argument("--closure-cap", type=int)  # None: the closure's own default


class _Parser(argparse.ArgumentParser):
    """argparse, except that help which cannot be written raises OSError and
    that no flag may be abbreviated.

    argparse's own printing swallows the error, so ``--help`` into a full
    disk would exit 0 with nothing written.  With abbreviations on, ``--p``
    would read as ``--per-element`` and ``--n`` as ``--no-timing``, so a
    mistyped flag would silently change the run; now it exits 2.
    Subparsers share the class.
    """

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def print_help(self, file=None):
        file = sys.stdout if file is None else file
        file.write(self.format_help())
        file.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="repcount",
        description="Exact orbit counts of reflection groups acting on (Z/p^k)^l",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.set_defaults(oracle_cap=None, per_element=False)  # read by commands without them

    p_count = sub.add_parser("count", help="count orbits with one method")
    _add_group_args(p_count)
    p_count.add_argument("--k", type=int, required=True)
    p_count.add_argument("--method", choices=catalog.METHODS, default="classes")
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
    p_formula.add_argument("--name", help=", ".join(
        [*(kind for kind, row in catalog.KINDS.items() if row.coefficients), *ALIASES]))
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
    try:
        args = parser.parse_args(argv)  # help exits 0 here, a usage error 2
        code = args.func(args)
        sys.stdout.flush()  # a failed write surfaces here, not at exit
        return code
    except RepcountError as exc:
        _report_error(exc)
        return exc.exit_code
    except MemoryError as exc:
        _report_error(exc)
        return EXIT_LIMIT
    except OSError as exc:  # stdout could not be written: a full disk, a closed pipe
        _report_error(exc)
        # the rest of stdout goes to os.devnull, so the flush at exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_LIMIT


def _report_error(exc: Exception) -> None:
    # a MemoryError usually carries no message; its docstring says what it is
    print(json.dumps({"error": type(exc).__name__, "message": str(exc) or exc.__doc__}),
          file=sys.stderr)


def entry() -> NoReturn:
    """The process entry: ``python -m repcount.cli`` and the console script.

    Both run this module as ``__main__``, so its first lines switch the
    collector off before anything else is imported, and it stays off: no import
    (numpy's, when a group method runs) and no work starts a collection.  They
    also set one BLAS thread, unless the caller's environment names a number:
    repcount calls no BLAS routine, and the threads OpenBLAS starts when numpy
    loads cost a numpy job about a fifth of its time.  ``import repcount.cli``
    changes neither.
    Cyclic garbage is bounded: a ``main`` call leaves a few hundred unreachable
    objects, the parser's cycles.  Once ``main`` returns, stdout and stderr are
    flushed and the process leaves with ``os._exit``, skipping the
    interpreter's teardown (~8 ms against ~2 ms), so no atexit handler runs and
    no other stream is flushed; the package registers none and writes only
    those two.  A stdout that cannot take the flush exits 3, as in ``main``.
    argparse's SystemExit (help, a usage error) leaves ``main`` by the normal
    exit path.  ``main`` leaves the collector alone and returns its code.
    """
    code = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        _report_error(exc)
        code = EXIT_LIMIT
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
