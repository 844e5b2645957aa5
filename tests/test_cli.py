"""CLI surface: subcommands, formats, exit codes, output determinism."""

import hashlib
import json
import time

import pytest

from repcount import catalog, counting, errors, formulas
from repcount.grassmannian import theorem_b
from repcount.cli import main
from repcount.linalg import parse_matrix_text, smith_valuations
from repcount.records import MAX_COUNT_BITS


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_classes_json(capsys):
    code, out, err = run(capsys, "count", "--group", "g29", "--k", "1",
                         "--method", "classes", "--format", "json", "--no-timing")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["count"] == "5"
    assert payload["method"] == "classes"
    assert sum(c["size"] for c in payload["classes"]) == 7680


def test_count_burnside_g24(capsys):
    code, out, _ = run(capsys, "count", "--group", "g24", "--k", "1",
                       "--method", "burnside", "--format", "json", "--no-timing")
    assert code == 0
    assert json.loads(out)["count"] == "2"


def test_count_theorem_b(capsys):
    code, out, _ = run(capsys, "count", "--group", "family2a:m=3,s=1,n=2,p=7",
                       "--k", "1", "--method", "theoremB", "--format", "json",
                       "--no-timing")
    assert code == 0
    assert json.loads(out)["count"] == "6"


@pytest.mark.parametrize("group", [
    "sphere:m=4,s=3,p=5",            # a sphere takes no s
    "family2a:m=4,s=0,n=2,p=5",
    "sphere:m=0,p=3",
    "g12:p=3",                       # an exceptional kind takes no parameters,
    "g12:p=5",
    "g12:",                          # ... not even an empty list
    "x34:p=7",                       # an alias names the kind outright
    "family2a",                      # a kind with keys needs them
    "weyl:A2,p=3",                   # no such kind
])
def test_inadmissible_group_strings_are_spec_errors(capsys, group):
    code, out, err = run(capsys, "count", "--group", group, "--k", "1", "--method", "theoremB")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "SpecInvalid"


@pytest.mark.parametrize("argv", [
    ["formula", "--name", "x12", "--exponents", "1,4", "--k", "1"],
    ["formula", "--name", "x12", "--p", "7", "--k", "1"],
    ["formula", "--name", "x12", "--exponents", "1,4", "--p", "11", "--k", "1"],
])
def test_flags_a_named_group_would_drop_are_spec_errors(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "SpecInvalid"


def test_duplicate_spec_key_is_a_spec_error(capsys):
    code, out, err = run(capsys, "count", "--group", "family2a:m=3,s=1,n=2,p=7,p=13",
                         "--k", "1", "--method", "theoremB")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "SpecInvalid"


@pytest.mark.parametrize("argv", [
    ["snf", "mat.txt", "--closure-cap", "5"],
    ["snf", "mat.txt", "--oracle-cap", "5"],
    ["snf", "mat.txt", "--format", "csv"],
    ["formula", "--name", "x12", "--k", "1", "--closure-cap", "5"],
    ["formula", "--name", "x12", "--k", "1", "--oracle-cap", "5"],
    ["census", "--group", "g12", "--oracle-cap", "5"],
    ["classes", "--group", "g12", "--oracle-cap", "5"],
    ["crosscheck", "--group", "g12", "--kmax", "1", "--format", "csv"],
    # a method that only re-checked theoremB's binomials
    ["count", "--group", "sphere:m=4,p=5", "--k", "1", "--method", "domain"],
])
def test_knobs_that_change_nothing_are_gone(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_count_oracle(capsys):
    code, out, _ = run(capsys, "count", "--group", "g12", "--k", "1",
                       "--method", "oracle", "--format", "json", "--no-timing")
    assert code == 0
    assert json.loads(out)["count"] == "2"


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--group", "g12", "--k", "2",
                       "--method", "theoremC", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1] == "g12,3,2,theoremC,5"


def test_bad_spec_exit_code(capsys):
    code, _, err = run(capsys, "count", "--group", "nosuch", "--k", "1",
                       "--method", "classes")
    assert code == 2
    msg = json.loads(err)
    assert msg["error"] == "SpecInvalid"


def test_rejected_family2a_spec(capsys):
    code, _, err = run(capsys, "count", "--group", "family2a:m=4,s=4,n=2,p=5",
                       "--k", "1", "--method", "theoremB")
    assert code == 2
    assert json.loads(err)["error"] == "SpecInvalid"


def test_oracle_cap_exit_code(capsys):
    code, _, err = run(capsys, "count", "--group", "g29", "--k", "2",
                       "--method", "oracle", "--oracle-cap", "1000")
    assert code == 3
    assert json.loads(err)["error"] == "SpaceTooLarge"


def test_oracle_unit_table_exit_code(capsys):
    # 1451^3 points are under the cap, but the unit table of 1451^3 entries
    # is above 2^30
    code, out, err = run(capsys, "count", "--group", "sphere:m=2,p=1451", "--k", "3",
                         "--method", "oracle", "--oracle-cap", "4000000000")
    assert code == 3 and out == ""
    msg = json.loads(err)
    assert msg["error"] == "SpaceTooLarge" and msg["message"].startswith("unit table ")


def test_closure_cap_exit_code(capsys):
    code, _, err = run(capsys, "count", "--group", "g31", "--k", "1",
                       "--method", "classes", "--closure-cap", "100")
    assert code == 3
    assert json.loads(err)["error"] == "CapExceeded"


@pytest.mark.parametrize("argv", [
    ["count", "--group", "g12", "--k", "1", "--method", "classes", "--closure-cap", "-1"],
    ["count", "--group", "g12", "--k", "1", "--method", "oracle", "--oracle-cap", "-5"],
    ["crosscheck", "--group", "g12", "--kmax", "1", "--closure-cap", "0"],
    ["crosscheck", "--group", "g12", "--kmax", "1", "--oracle-cap", "0"],  # not the oracle dropped
    ["crosscheck", "--group", "g12", "--kmax", "0"],
], ids=" ".join)
def test_cap_below_one_is_a_spec_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "SpecInvalid"
    assert "must be >= 1" in json.loads(err)["message"]


def test_count_builds_higher_precision_on_demand(capsys):
    code, out, _ = run(capsys, "count", "--group", "g12", "--k", "5",
                       "--method", "classes", "--format", "json", "--no-timing")
    assert code == 0
    from repcount.formulas import theorem_c
    assert json.loads(out)["count"] == str(theorem_c("x12", 5))


@pytest.mark.parametrize("group,method", [
    ("g24", "theoremB"),
    ("g12", "theoremA"),                        # 3 divides |G12|
    ("family2a:m=4,s=2,n=5,p=5", "theoremA"),   # 5 divides |G(4,2,5)|
    ("family2a:m=3,s=1,n=2,p=7", "theoremC"),
    ("x34", "burnside"),                        # no published matrices
    ("x34", "oracle"),
])
def test_theorem_b_rejected_on_exceptional_spec(capsys, group, method):
    # every method outside the spec's methods is refused, the same way
    code, out, err = run(capsys, "count", "--group", group, "--k", "1", "--method", method)
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "SpecInvalid"


def test_count_help_lists_every_kind_and_alias(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--help"])
    out = capsys.readouterr().out
    assert exc.value.code == 0
    assert [name for name in (*catalog.KINDS, *catalog.ALIASES) if name not in out] == []


def test_theorem_a_on_modular_data_is_a_spec_error(capsys):
    # the exponents are the caller's: a remainder is their error, not ours
    code, _, err = run(capsys, "formula", "--exponents", "5,7", "--p", "3",
                       "--k", "1")
    assert code == 2
    assert json.loads(err)["error"] == "SpecInvalid"


@pytest.mark.parametrize("argv", [
    ["count", "--group", "g12", "--k", "1", "--method", "theoremC"],
    ["crosscheck", "--group", "g12", "--kmax", "1"],
], ids=lambda argv: argv[0])
def test_broken_theorem_c_row_is_an_internal_error(capsys, monkeypatch, argv):
    # a mistyped coefficient is a fault of the table, not of the caller's spec
    row = catalog.KINDS["g12"]
    monkeypatch.setitem(catalog.KINDS, "g12", row._replace(coefficients=(1, 12, 50)))
    code, out, err = run(capsys, *argv, "--no-timing")
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "InvariantViolation",
                               "message": "numerator 95 at k=1 is not divisible by 48"}


def test_parse_spec_rejects_stray_sphere_params(capsys):
    code, _, err = run(capsys, "count", "--group", "sphere:m=4,p=5,n=3",
                       "--k", "1", "--method", "theoremB")
    assert code == 2
    assert json.loads(err)["error"] == "SpecInvalid"


def test_census_g24_json(capsys):
    code, out, _ = run(capsys, "census", "--group", "g24", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    torsion = [c for c in payload["classes"] if c["torsion_order"] > 1]
    assert len(torsion) == 4
    assert sorted((c["size"], c["torsion_order"]) for c in torsion) == \
        [(1, 8), (21, 2), (42, 4), (56, 2)]


def test_census_g12_text(capsys):
    code, out, _ = run(capsys, "census", "--group", "g12")
    assert code == 0
    assert "torsion classes: 1" in out


def test_census_g31_torsion_row(capsys):
    code, out, _ = run(capsys, "census", "--group", "g31", "--format", "json")
    assert code == 0
    torsion = [c for c in json.loads(out)["classes"] if c["torsion_order"] > 1]
    assert len(torsion) == 1
    assert torsion[0]["size"] == 2304


def test_classes_table(capsys):
    code, out, _ = run(capsys, "classes", "--group", "g12", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["classes"]) == 8
    assert sum(c["size"] for c in payload["classes"]) == 48


def test_census_and_classes_csv(capsys):
    code, out, _ = run(capsys, "census", "--group", "g12", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rep,size,centralizer,rank,torsion_order"
    assert len(lines) == 9
    code, out, _ = run(capsys, "classes", "--group", "g12", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "rep,element_order,size,centralizer,rank,diagonal"


def test_crosscheck_g12(capsys):
    code, out, _ = run(capsys, "crosscheck", "--group", "g12", "--kmax", "2",
                       "--format", "json", "--no-timing")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert len(payload["checks"]) == 2
    assert payload["checks"][0]["counts"]["burnside"] == "2"


def test_crosscheck_family2a(capsys):
    code, out, _ = run(capsys, "crosscheck", "--group", "family2a:m=4,s=2,n=3,p=5",
                       "--kmax", "1", "--format", "json", "--no-timing")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    counts = payload["checks"][0]["counts"]
    assert "theoremB" in counts and "burnside" in counts
    assert len(set(counts.values())) == 1


@pytest.mark.parametrize("spec,methods", [
    ("g24", ["burnside", "classes", "formula", "theoremC", "oracle"]),
    # 5 divides |G(4,2,5)|, so theorem A does not apply
    ("family2a:m=4,s=2,n=5,p=5",
     ["burnside", "classes", "formula", "theoremB", "oracle"]),
    ("family2a:m=6,s=2,n=3,p=7",
     ["burnside", "classes", "formula", "theoremB", "theoremA", "oracle"]),
    ("sphere:m=4,p=5",
     ["burnside", "classes", "formula", "theoremB", "theoremA", "oracle"]),
])
def test_crosscheck_methods_per_kind(capsys, spec, methods):
    code, out, _ = run(capsys, "crosscheck", "--group", spec, "--kmax", "1",
                       "--format", "json", "--no-timing")
    assert code == 0
    payload = json.loads(out)
    assert payload["methods"] == methods == list(catalog.parse_spec(spec).methods)
    assert list(payload["checks"][0]["counts"]) == methods


def test_crosscheck_x34_formula_only(capsys):
    code, out, _ = run(capsys, "crosscheck", "--group", "x34", "--kmax", "6",
                       "--format", "json", "--no-timing")
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["methods"] == ["theoremC"]
    assert "note" in payload


def test_snf_subcommand(tmp_path, capsys):
    f = tmp_path / "mat.txt"
    f.write_text("2 4 3 3\n12 1 0\n0 13 2\n0 0 11\n")
    code, out, _ = run(capsys, "snf", str(f), "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["diagonal"] == [1, 1, 4]
    assert payload["valuations"] == [0, 0, 2]


def test_snf_zero_and_identity(tmp_path, capsys):
    z = tmp_path / "zero.txt"
    z.write_text("3 2 2 2\n0 0\n0 0\n")
    code, out, _ = run(capsys, "snf", str(z), "--format", "json")
    assert code == 0
    assert json.loads(out)["valuations"] == ["saturated", "saturated"]
    assert json.loads(out)["diagonal"] == [0, 0]
    code, out, _ = run(capsys, "snf", str(z))
    assert code == 0
    assert out == "p=3 M=2\nvaluations: saturated saturated\ndiagonal:   0 0\n"
    i = tmp_path / "ident.txt"
    i.write_text("3 2 2 2\n1 0\n0 1\n")
    code, out, _ = run(capsys, "snf", str(i), "--format", "json")
    assert json.loads(out)["valuations"] == [0, 0]
    code, out, _ = run(capsys, "snf", str(i))
    assert code == 0
    assert out == "p=3 M=2\nvaluations: 0 0\ndiagonal:   1 1\n"


@pytest.mark.parametrize("rows,want", [
    ("1 0\n0 3", [0, 0]),
    (f"{2 ** 1000} 0\n0 3", [0, 1000]),
    (f"{2 ** 1000} 0\n0 0", [1000, 200000]),
], ids=["units", "valuation 1000", "saturated pivot"])
def test_snf_at_a_huge_precision(tmp_path, capsys, rows, want):
    # p^M = 2^200000 is far above the valuation table: the engine divides by
    # p, p^2, ... only up to the largest finite valuation present, and a
    # saturated pivot's all-zero block takes any power of p
    f = tmp_path / "huge.txt"
    f.write_text(f"2 200000 2 2\n{rows}\n")
    assert smith_valuations(parse_matrix_text(f.read_text())) == tuple(want)
    code, out, _ = run(capsys, "snf", str(f), "--format", "json")
    assert code == 0
    assert json.loads(out)["valuations"] == [e if e < 200000 else "saturated" for e in want]


@pytest.mark.parametrize("M,code", [
    (262144, 0),      # 2M bits: the largest M admitted at p = 3
    (262145, 3),
    (30000000, 3),    # ran for over 20 s before the bound
])
def test_snf_bounds_the_modulus_before_forming_it(tmp_path, capsys, M, code):
    f = tmp_path / "big.txt"
    f.write_text(f"3 {M} 1 1\n1\n")
    start = time.perf_counter()
    got, out, err = run(capsys, "snf", str(f), "--format", "json")
    assert got == code and time.perf_counter() - start < 1
    if code == 0:
        assert json.loads(out) == {"p": 3, "M": M, "valuations": [0], "diagonal": [1]}
    else:
        assert out == "" and json.loads(err) == {
            "error": "SpaceTooLarge",
            "message": f"modulus 3^{M} can reach {2 * M} bits, above the bound of {MAX_COUNT_BITS}"}


def test_snf_parse_error(tmp_path, capsys):
    for name, text in [("bad.txt", "2 4 2 3\n1 2 3\n4 5 6\n"), ("empty.txt", "5 2 0 0\n"),
                       ("header.txt", "2 4 2\n1 2\n3 4\n"),
                       ("missing_row.txt", "2 4 2 2\n1 2\n"),
                       ("short_row.txt", "2 4 2 2\n1 2\n3\n")]:
        f = tmp_path / name
        f.write_text(text)
        code, _, err = run(capsys, "snf", str(f))
        assert code == 2
        assert json.loads(err)["error"] == "SpecInvalid"
        assert json.loads(err)["message"].startswith("cannot read matrix: ")


def test_count_with_more_digits_than_the_int_str_limit(capsys):
    # 4800 * 3 binary digits: about 4335 decimal digits, above CPython's
    # default int-to-str limit of 4300
    code, out, _ = run(capsys, "count", "--group", "g24", "--k", "4800",
                       "--method", "theoremC", "--format", "json", "--no-timing")
    assert code == 0
    assert json.loads(out)["count"] == str(formulas.theorem_c("x24", 4800))


def test_formula_subcommand(capsys):
    code, out, _ = run(capsys, "formula", "--name", "x34", "--k", "1",
                       "--format", "json", "--no-timing")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == "7" and payload["method"] == "closed-form"


def test_formula_exponents(capsys):
    code, out, _ = run(capsys, "formula", "--exponents", "1,4", "--p", "11",
                       "--k", "1", "--format", "json", "--no-timing")
    assert code == 0
    assert json.loads(out)["count"] == "18"


def test_output_determinism(capsys):
    args = ("count", "--group", "g24", "--k", "2", "--method", "classes",
            "--format", "json", "--no-timing")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


@pytest.mark.parametrize("exponents,p", [("-1", "5"), ("1,4", "4"), ("1,4", "0"), ("", "5"),
                                         ("1,4", None), (None, None)])
def test_formula_exponents_bad_input_is_a_spec_error(capsys, exponents, p):
    # None leaves the flag out
    argv = ["formula"] + ([f"--exponents={exponents}"] if exponents is not None else [])
    argv += (["--p", p] if p is not None else []) + ["--k", "1"]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert json.loads(err)["error"] == "SpecInvalid"
    if p is None:
        assert json.loads(err)["message"] == ("--exponents requires --p" if exponents else
                                              "pass --name for a fixed polynomial or "
                                              "--exponents with --p")
    if p == "0":
        # p = 0 is given, so the fault is that it is not prime
        assert "p=0" in json.loads(err)["message"]
    if exponents == "":
        # an empty list is given, so the fault is the list, not a missing flag
        assert "bad exponent list ''" in json.loads(err)["message"]


def test_crosscheck_builds_one_group(capsys, monkeypatch):
    # g12 closes at M = 3; k = 4 is reached by lifting, not by a rebuild
    calls = []
    real_build = catalog.build

    def counting_build(*args, **kwargs):
        calls.append(args)
        return real_build(*args, **kwargs)

    monkeypatch.setattr(catalog, "build", counting_build)
    code, out, _ = run(capsys, "crosscheck", "--group", "g12", "--kmax", "4",
                       "--format", "json", "--no-timing")
    assert code == 0 and json.loads(out)["pass"]
    assert len(calls) == 1


def test_breakdown_reps_above_closure_precision_match_class_table(capsys):
    _, out, _ = run(capsys, "classes", "--group", "g24", "--format", "json")
    table = [c["rep"] for c in json.loads(out)["classes"]]
    for method in ("classes", "burnside"):
        _, out, _ = run(capsys, "count", "--group", "g24", "--k", "9", "--method",
                        method, "--format", "json", "--no-timing")
        assert [c["rep"] for c in json.loads(out)["classes"]] == table


@pytest.mark.parametrize("spec", ["family2a:m=4,s=2,n=3,p=1297", "sphere:m=2,p=1451"])
def test_crosscheck_large_prime(capsys, spec):
    # these close in the object-dtype store; the oracle cap keeps the oracle
    # to k = 1 (the sphere's 1451^2 points at k = 2 are tested in test_oracle)
    code, out, _ = run(capsys, "crosscheck", "--group", spec, "--kmax", "2",
                       "--oracle-cap", "2000000", "--format", "json", "--no-timing")
    payload = json.loads(out)
    assert code == 0 and payload["pass"]
    assert len(payload["checks"][1]["counts"]) >= 3


@pytest.mark.parametrize("method", ["classes", "formula"])
def test_per_element_requires_burnside(capsys, method):
    code, out, err = run(capsys, "count", "--group", "g12", "--k", "2", "--method",
                         method, "--per-element")
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "SpecInvalid"


@pytest.mark.parametrize("argv", [
    # prefixes of --per-element and --no-timing
    ["count", "--group", "g12", "--k", "1", "--method", "burnside", "--p", "--n"],
    # prefixes of --method, --no-timing and --format
    ["count", "--group", "g12", "--k", "1", "--m", "oracle", "--no-t", "--form", "json"],
    ["crosscheck", "--group", "g12", "--kmax", "1", "--no-timing", "--oracle", "5"],
])
def test_abbreviated_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_precision_ceiling_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--group", "g12", "--k", "1", "--precision-ceiling", "16"])
    assert exc.value.code == 2


def test_internal_error_exit_code(capsys, monkeypatch):
    # an internal invariant failure must not read as exit 1 ("divergence"): with
    # no torsion counted, g12's torsion class of 8 elements adds 8 instead of 24
    monkeypatch.setattr(counting, "torsion_contribution", lambda p, vals, k: 1)
    code, out, err = run(capsys, "count", "--group", "g12", "--k", "1",
                         "--method", "classes")
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "InvariantViolation",
                               "message": "classes sum 80 not divisible by |W|=48"}


EXIT_CODES = {errors.SpecInvalid: 2, errors.CapExceeded: 3, errors.PrecisionTooLow: 3,
              errors.SpaceTooLarge: 3}  # every other RepcountError: 4


@pytest.mark.parametrize("error", [
    cls for cls in vars(errors).values()
    if isinstance(cls, type) and issubclass(cls, errors.RepcountError)
    and cls is not errors.RepcountError
], ids=lambda cls: cls.__name__)
def test_exit_code_belongs_to_the_error_class(capsys, monkeypatch, error):
    def broken(group, k):
        raise error("the engine failed")

    monkeypatch.setattr(counting, "count_burnside_classes", broken)
    code, out, err = run(capsys, "count", "--group", "g12", "--k", "1",
                         "--method", "classes")
    assert code == EXIT_CODES.get(error, 4) and out == ""
    assert err.count("\n") == 1
    assert json.loads(err) == {"error": error.__name__, "message": "the engine failed"}


def test_crosscheck_skips_an_oracle_over_its_cap(capsys):
    # k = 1 has 5^5 = 3125 points, under the cap; k = 2 has 5^10
    code, out, _ = run(capsys, "crosscheck", "--group", "family2a:m=4,s=2,n=5,p=5",
                       "--kmax", "2", "--oracle-cap", "4000", "--format", "json",
                       "--no-timing")
    payload = json.loads(out)
    assert code == 0 and payload["pass"]
    counts = [chk["counts"] for chk in payload["checks"]]
    assert "oracle" in counts[0] and "oracle" not in counts[1]


def test_memory_error_exit_code(capsys, monkeypatch):
    # a refused allocation is a resource limit, not a divergence (exit 1)
    def exhausted(group, k):
        raise MemoryError

    monkeypatch.setattr(counting, "count_burnside_classes", exhausted)
    code, out, err = run(capsys, "count", "--group", "g12", "--k", "1",
                         "--method", "classes")
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "MemoryError", "message": "Out of memory."}


def test_crosscheck_divergence_exits_one(capsys, monkeypatch):
    # theorem C off by one from k = 2 on: k = 3 diverges too, but the error
    # names the first divergent k
    real_theorem_c = formulas.theorem_c

    def off_by_one(group, k):
        return real_theorem_c(group, k) + (k >= 2)

    monkeypatch.setattr(formulas, "theorem_c", off_by_one)
    argv = ("crosscheck", "--group", "g12", "--kmax", "3", "--no-timing")
    error = {"error": "Divergence", "message": "methods disagree at k=2: "
             "burnside=5, classes=5, formula=5, theoremC=6, oracle=5"}
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["pass"] is False
    assert [chk["ok"] for chk in payload["checks"]] == [True, False, False]
    assert err.count("\n") == 1 and json.loads(err) == error
    code, out, err = run(capsys, *argv)
    assert code == 1
    lines = out.splitlines()
    assert lines[1].startswith("k=2: ") and lines[1].endswith("  [DIVERGENT]")
    assert lines[-1] == "crosscheck g12: FAIL"
    assert err.count("\n") == 1 and json.loads(err) == error


@pytest.mark.parametrize("argv", [
    ["formula", "--name", "x12", "--k", "99999999999"],
    ["count", "--group", "g12", "--k", "99999999999", "--method", "classes"],
    # refused as a whole: no method is skipped into a vacuous pass
    ["crosscheck", "--group", "g12", "--kmax", "99999999999"],
    ["formula", "--exponents", "1,4", "--p", "11", "--k", "99999999999"],
    ["count", "--group", "g24", "--k", str(10 ** 400), "--method", "theoremC"],
    # the rank alone refuses these: |W| = 3^n n! is never formed
    ["count", "--group", "family2a:m=3,s=1,n=1000000,p=7", "--k", "1", "--method", "theoremB"],
    ["crosscheck", "--group", "family2a:m=3,s=1,n=1000000,p=7", "--kmax", "1"],
], ids=lambda argv: " ".join(argv)[:40])
def test_count_too_large_to_compute_is_refused(capsys, argv):
    # refused before any work: without the bound x12 at k = 99999999999 needs ~40 GB
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--no-timing")
    assert code == 3 and out == "" and time.perf_counter() - start < 1
    assert err.count("\n") == 1 and json.loads(err)["error"] == "SpaceTooLarge"


@pytest.mark.parametrize("argv", [
    # 300 generators of 300 x 300 rows took seconds and hundreds of MB before the
    # order was compared with the cap
    ["census", "--group", "family2a:m=3,s=1,n=300,p=7"],
    # 10^18 entries of generators; refused by its rank, before m^n n! is formed
    ["classes", "--group", "family2a:m=3,s=1,n=1000000,p=7"],
], ids=lambda argv: argv[0])
def test_group_over_the_closure_cap_is_refused_before_its_generators(capsys, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--no-timing")
    assert code == 3 and out == "" and time.perf_counter() - start < 1
    assert err.count("\n") == 1 and json.loads(err)["error"] == "CapExceeded"


def test_count_size_bound_edge(capsys):
    # g24: k l bit_length(p) = 6 k, so k = 87381 is the last k admitted
    assert 6 * 87381 <= MAX_COUNT_BITS < 6 * 87382
    code, out, _ = run(capsys, "formula", "--name", "x24", "--k", "87381", "--format", "json",
                       "--no-timing")
    assert code == 0 and json.loads(out)["count"] == str(formulas.theorem_c("x24", 87381))
    code, out, _ = run(capsys, "formula", "--name", "x24", "--k", "87382", "--no-timing")
    assert code == 3 and out == ""


def counts(want, within=None):
    """The run's first line ends with count=want, and it took under ``within`` seconds if
    given; a callable want is called for its value."""
    def check(code, out, err, seconds):
        assert code == 0 and err == ""
        assert out.splitlines()[0].endswith(f"count={want() if callable(want) else want}")
        assert within is None or seconds < within, seconds
    return check


def succeeds(code, out, err, seconds):
    """Exit 0 with nothing on stderr."""
    assert code == 0 and err == "", err


def passes(code, out, err, seconds):
    """A crosscheck in which every method agreed at every k."""
    assert code == 0 and err == "" and out.endswith(": pass\n")


def digest(sha256):
    """The run's whole stdout has this sha256."""
    def check(code, out, err, seconds):
        assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == sha256
    return check


def refused(code, out, err, seconds):
    """Exit 3 within a second, nothing on stdout and one CapExceeded line on stderr,
    from the factoring budget."""
    assert code == 3 and out == "" and seconds < 1
    assert err.count("\n") == 1
    error = json.loads(err)
    assert error["error"] == "CapExceeded" and "Pollard-Brent" in error["message"]


#: A group of order 2 at a prime with p - 1 = 2 q1 q2, q1 and q2 prime and of 17
#: digits each: its one root, -1, needs no factoring, so every method builds it.
UNFACTORED = "sphere:m=2,p=9399065556056301725180829159926783"
#: p - 1 = 6 q1 q2 with q1 = 10000000000000061 and q2 = 30000000000000101: Pollard-Brent
#: rho would take ~10^8 steps to split q1 q2, so the search for a primitive root
#: runs past modp.FACTOR_STEPS and every method that builds the group refuses it.
OVER_BUDGET = "sphere:m=3,p=1800000000000017040000000000036967"
MERSENNE_127 = 2 ** 127 - 1  # p - 1 factors within a few thousand steps

REACH = [
    # every method, the oracle included, on groups the suite builds nowhere else
    (["crosscheck", "--group", "g24", "--kmax", "3"], passes),
    (["crosscheck", "--group", "sphere:m=4,p=5", "--kmax", "3"], passes),
    # G(6,1,3) lists no twisted reflection and G(4,4,3) no diag(b^s)
    (["crosscheck", "--group", "family2a:m=6,s=1,n=3,p=7", "--kmax", "2"], passes),
    (["crosscheck", "--group", "family2a:m=4,s=4,n=3,p=5", "--kmax", "2"], passes),
    (["formula", "--name", "x31", "--k", "3"], counts(8303)),
    # the monomial workload's group with a generator of order 3, at full size
    (["count", "--group", "family2a:m=3,s=1,n=5,p=7", "--k", "2", "--method", "classes"],
     counts(lambda: theorem_b(3, 1, 5, 7, 2))),
    # the widest window the catalog builds: a generator of order 100
    (["count", "--group", "family2a:m=100,s=1,n=2,p=101", "--k", "2", "--method", "classes"],
     counts(lambda: theorem_b(100, 1, 2, 101, 2))),
    # G(4,2,6) at p = 5: 1,474,560 elements closed from 7 reflections; 16 of its 302
    # classes need 5^4, so its whole table is read there, pinned by the csv's sha256
    (["count", "--group", "family2a:m=4,s=2,n=6,p=5", "--k", "1", "--method", "classes"],
     counts(lambda: theorem_b(4, 2, 6, 5, 1))),
    (["classes", "--group", "family2a:m=4,s=2,n=6,p=5", "--format", "csv"],
     digest("8ae8fbbd1b01d5f09c8ef920e1834024b8cdef64baecddcdcce8fde68c85b36d")),
    # oracle reach: 5^12 points, 2.4M scalar classes
    (["count", "--group", "g29", "--k", "3", "--method", "oracle", "--oracle-cap", "244140625"],
     counts(lambda: formulas.theorem_c("x29", 3))),
    (["count", "--group", "g31", "--k", "3", "--method", "oracle", "--oracle-cap", "244140625"],
     counts(lambda: formulas.theorem_c("x31", 3))),
    # the oracle at p = 2 past level 2, where the units are not cyclic
    *[(["count", "--group", "g24", "--k", str(k), "--method", "oracle"],
       counts(lambda k=k: formulas.theorem_c("x24", k))) for k in range(3, 8)],
    # Burnside reads every w - I at 5^2 even at the largest k the count-size bound admits,
    # so its work does not grow with k: about 1.5 s on a 2-vCPU VM, where a read at 5^k
    # had not finished after 30 s
    (["count", "--group", "g31", "--k", "43690", "--method", "burnside"],
     counts(lambda: formulas.theorem_c("x31", 43690), within=20)),
    (["count", "--group", "g31", "--k", "43690", "--method", "burnside", "--per-element"],
     counts(lambda: formulas.theorem_c("x31", 43690), within=20)),
    # a p^m above the int64 lane: the per-element Smith forms run in object
    (["count", "--group", "sphere:m=2,p=4294967311", "--k", "3", "--method", "burnside",
      "--per-element"], counts(lambda: theorem_b(2, 1, 1, 4294967311, 3))),
    # a primitive root found by factoring p - 1 = 2 (2^126 - 1), 12 primes
    (["count", "--group", f"sphere:m=3,p={MERSENNE_127}", "--k", "1", "--method", "burnside"],
     counts(lambda: theorem_b(3, 1, 1, MERSENNE_127, 1))),
    # the root of order 2 is -1 at every prime: no factoring, so every method runs
    (["count", "--group", UNFACTORED, "--k", "1", "--method", "burnside"],
     counts(4699532778028150862590414579963392)),
    (["count", "--group", UNFACTORED, "--k", "1", "--method", "classes"],
     counts(4699532778028150862590414579963392)),
    (["classes", "--group", UNFACTORED], succeeds),
    (["census", "--group", UNFACTORED], succeeds),
    (["crosscheck", "--group", UNFACTORED, "--kmax", "1"], passes),
    (["count", "--group", UNFACTORED, "--k", "1", "--method", "theoremB"],
     counts(4699532778028150862590414579963392)),
    # every method that builds the group refuses the prime; the closed form needs no root
    (["count", "--group", OVER_BUDGET, "--k", "1", "--method", "burnside"], refused),
    (["count", "--group", OVER_BUDGET, "--k", "1", "--method", "classes"], refused),
    (["census", "--group", OVER_BUDGET], refused),
    (["crosscheck", "--group", OVER_BUDGET, "--kmax", "1"], refused),
    (["count", "--group", OVER_BUDGET, "--k", "1", "--method", "theoremB"],
     counts(600000000000005680000000000012323)),
]


@pytest.mark.parametrize("argv,check", REACH, ids=[" ".join(argv) for argv, _ in REACH])
def test_reach(capsys, argv, check):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv, "--no-timing")
    check(code, out, err, time.perf_counter() - start)
