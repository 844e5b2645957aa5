"""CLI surface: subcommands, formats, exit codes, output determinism."""

import json

import pytest

from repcount import catalog, counting, formulas
from repcount.cli import main
from repcount.errors import NonIntegralCount
from repcount.linalg import parse_matrix_text, smith_valuations


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


def test_formula_only_group_rejects_group_methods(capsys):
    code, _, err = run(capsys, "count", "--group", "x34", "--k", "1",
                       "--method", "burnside")
    assert code == 2
    assert json.loads(err)["error"] == "SpecInvalid"


def test_theorem_b_rejected_on_exceptional_spec(capsys):
    code, _, err = run(capsys, "count", "--group", "g24", "--k", "1",
                       "--method", "theoremB")
    assert code == 2
    assert json.loads(err)["error"] == "SpecInvalid"


def test_theorem_a_on_modular_data_is_a_spec_error(capsys):
    code, _, err = run(capsys, "formula", "--exponents", "5,7", "--p", "3",
                       "--k", "1")
    assert code == 2
    assert json.loads(err)["error"] == "NonIntegralResult"


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
    assert "theoremB" in counts and "domain" in counts and "burnside" in counts
    assert len(set(counts.values())) == 1


@pytest.mark.parametrize("spec,methods", [
    ("g24", ["burnside", "classes", "formula", "theoremC", "oracle"]),
    # 5 divides |G(4,2,5)|, so theorem A does not apply
    ("family2a:m=4,s=2,n=5,p=5",
     ["burnside", "classes", "formula", "theoremB", "domain", "oracle"]),
    ("family2a:m=6,s=2,n=3,p=7",
     ["burnside", "classes", "formula", "theoremB", "domain", "theoremA", "oracle"]),
    ("sphere:m=4,p=5",
     ["burnside", "classes", "formula", "theoremB", "domain", "theoremA", "oracle"]),
])
def test_crosscheck_methods_per_kind(capsys, spec, methods):
    code, out, _ = run(capsys, "crosscheck", "--group", spec, "--kmax", "1",
                       "--format", "json", "--no-timing")
    assert code == 0
    payload = json.loads(out)
    assert payload["methods"] == methods
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


def test_snf_parse_error(tmp_path, capsys):
    for name, text in [("bad.txt", "2 4 2 3\n1 2 3\n4 5 6\n"), ("empty.txt", "5 2 0 0\n")]:
        f = tmp_path / name
        f.write_text(text)
        code, _, err = run(capsys, "snf", str(f))
        assert code == 2
        assert json.loads(err)["error"] == "SpecInvalid"


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


@pytest.mark.parametrize("exponents,p",
                         [("-1", "5"), ("1,4", "4"), ("1,4", "0"), ("", "5")])
def test_formula_exponents_bad_input_is_a_spec_error(capsys, exponents, p):
    code, _, err = run(capsys, "formula", f"--exponents={exponents}", "--p", p,
                       "--k", "1")
    assert code == 2
    assert json.loads(err)["error"] == "SpecInvalid"
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


def test_precision_ceiling_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["count", "--group", "g12", "--k", "1", "--precision-ceiling", "16"])
    assert exc.value.code == 2


def test_internal_error_exit_code(capsys, monkeypatch):
    # an internal invariant failure must not read as exit 1 ("divergence")
    def broken(group, k):
        raise NonIntegralCount(f"class sum not divisible by |W|={group.order}")

    monkeypatch.setattr(counting, "count_burnside_classes", broken)
    code, out, err = run(capsys, "count", "--group", "g12", "--k", "1",
                         "--method", "classes")
    assert code == 4 and out == ""
    assert json.loads(err) == {"error": "NonIntegralCount",
                               "message": "class sum not divisible by |W|=48"}


def test_crosscheck_skips_a_domain_walk_too_large_to_run(capsys):
    # k = 4 would walk C(161, 5) multisets; k = 3 walks C(36, 5) = 376992
    code, out, _ = run(capsys, "crosscheck", "--group", "family2a:m=4,s=2,n=5,p=5",
                       "--kmax", "4", "--oracle-cap", "4000", "--format", "json",
                       "--no-timing")
    payload = json.loads(out)
    assert code == 0 and payload["pass"]
    counts = [chk["counts"] for chk in payload["checks"]]
    assert "domain" in counts[2] and "domain" not in counts[3]


def test_domain_walk_too_large_exit_code(capsys):
    code, out, err = run(capsys, "count", "--group", "family2a:m=4,s=2,n=5,p=5",
                         "--k", "4", "--method", "domain")
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "SpaceTooLarge"


def test_memory_error_exit_code(capsys, monkeypatch):
    # a refused allocation is a resource limit, not a divergence (exit 1)
    def exhausted(group, k):
        raise MemoryError

    monkeypatch.setattr(counting, "count_burnside_classes", exhausted)
    code, out, err = run(capsys, "count", "--group", "g12", "--k", "1",
                         "--method", "classes")
    assert code == 3 and out == ""
    assert json.loads(err) == {"error": "MemoryError", "message": "Out of memory."}
