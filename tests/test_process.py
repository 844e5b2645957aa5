"""The process around the CLI: what the package import and each command
load, the collector's state across them, the process entry that the
console script and ``python -m repcount.cli`` run, and a stdout that
cannot be written.

The golden cases here go through a fresh interpreter, so they cover the
entry, which the in-process golden tests never call.
"""

import gc
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repcount
from repcount.cli import main

SRC = str(Path(repcount.__file__).resolve().parent.parent)
GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_cli.json").read_text(encoding="utf-8"))
ENTRY_ARGVS = [
    ["classes", "--group", "g12", "--no-timing"],
    ["census", "--group", "g24", "--format", "csv", "--no-timing"],
    ["crosscheck", "--group", "g12", "--kmax", "4", "--format", "json", "--no-timing"],
    ["count", "--group", "x34", "--k", "1", "--method", "burnside", "--no-timing"],
]


def python(*args, env=None):
    return subprocess.run([sys.executable, *args], env=env or dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("enabled", [True, False])
def test_import_leaves_the_collector_as_it_found_it(enabled):
    switch = "gc.enable()" if enabled else "gc.disable()"
    proc = python("-c", f"import gc; {switch}; import repcount; print(gc.isenabled())")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == str(enabled)


def test_package_import_loads_no_submodule():
    proc = python("-c", "import sys, repcount; "
                        "print(sorted(m for m in sys.modules "
                        "if m == 'numpy' or m.startswith(('numpy.', 'repcount.'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"


def test_cli_import_leaves_out_dataclasses_and_the_closed_forms():
    proc = python("-c", "import sys, repcount.cli; "
                        "print([m for m in ('dataclasses', 'numpy', 'repcount.formulas', "
                        "'repcount.grassmannian') if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"


def test_catalog_import_leaves_out_numpy():
    proc = python("-c", "import sys, repcount.catalog; print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "False"


def imported(stderr: bytes) -> set:
    """The top-level packages of the modules ``python -X importtime`` listed."""
    return {line.split("|")[-1].strip().split(".")[0]
            for line in stderr.decode().splitlines() if line.startswith("import time:")}


CLOSED_FORM_RUNS = [
    (["formula", "--name", "x34", "--k", "1"], 0),
    (["formula", "--exponents", "1,4", "--p", "11", "--k", "2"], 0),
    (["count", "--group", "family2a:m=3,s=1,n=2,p=7", "--k", "2", "--method", "theoremA"], 0),
    (["count", "--group", "family2a:m=3,s=1,n=2,p=7", "--k", "2", "--method", "theoremB"], 0),
    (["count", "--group", "g12", "--k", "3", "--method", "theoremC"], 0),
    (["count", "--group", "sphere:m=4,p=5", "--k", "3", "--method", "theoremB"], 0),
    (["crosscheck", "--group", "x34", "--kmax", "3"], 0),
    (["--help"], 0),
    (["count", "--group", "g12", "--k", "0"], 2),
]


@pytest.mark.parametrize("argv,code", CLOSED_FORM_RUNS, ids=[" ".join(a) for a, _ in CLOSED_FORM_RUNS])
def test_closed_form_commands_leave_out_numpy(argv, code):
    # nor decimal: only a count above records.STR_BITS imports it
    proc = python("-X", "importtime", "-m", "repcount.cli", *argv)
    assert proc.returncode == code, proc.stderr
    assert imported(proc.stderr).isdisjoint({"numpy", "decimal", "_decimal"})


def test_array_command_imports_numpy():
    proc = python("-X", "importtime", "-m", "repcount.cli",
                  "count", "--group", "g12", "--k", "1", "--method", "classes")
    assert proc.returncode == 0, proc.stderr
    assert "numpy" in imported(proc.stderr)


def test_lazy_exports_resolve_to_their_submodules():
    # in a child, so each name is looked up before its submodule is imported
    proc = python("-c", "import importlib, repcount; "
                        "print([n for n in repcount.__all__ if getattr(repcount, n) is not "
                        "getattr(importlib.import_module('repcount.' + repcount._MODULE_OF[n]), n)])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "[]"


def test_star_import_dir_and_unknown_names():
    namespace = {}
    exec("from repcount import *", namespace)
    assert set(repcount.__all__) <= set(namespace)
    assert namespace["GroupSpec"] is repcount.catalog.GroupSpec
    assert namespace["theorem_b"] is repcount.grassmannian.theorem_b
    assert set(repcount.__all__) <= set(dir(repcount))
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        repcount.no_such_name


# The child runs the CLI module as ``python -m`` or the console script does,
# on an array job, so numpy is imported after the module's first line.  It
# collects first, so that its own start-up cannot start a collection later.
# It records every collection start, and whether the collector is on when
# the module's ``main`` is called; its stand-in for os._exit reports, with
# the freeze count.  ``cli.py`` is compiled before its first line runs, with
# the collector still on, so the child reads the package's bytecode from a
# private cache that is warmed first, whatever the caller's bytecode settings.
COLLECTOR_CHILD = """
import gc, json, os, runpy, sys
starts, in_main = [], []
def watch(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "main" and frame.f_code.co_filename.endswith("cli.py"):
        in_main.append(gc.isenabled())
def leave(code):
    sys.setprofile(None)
    print(json.dumps({"code": code, "starts": starts, "in_main": in_main,
                      "frozen": gc.get_freeze_count(), "numpy": "numpy" in sys.modules}))
os._exit = leave
sys.argv = ["repcount", "count", "--group", "g12", "--k", "22", "--method", "classes", "--no-timing"]
gc.collect()
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info["generation"]))
sys.setprofile(watch)
"""
LAUNCHERS = {
    "python -m": 'runpy.run_module("repcount.cli", run_name="__main__", alter_sys=True)',
    "console script": "import repcount; repcount.script()",
}


@pytest.mark.parametrize("launch", sorted(LAUNCHERS))
def test_cli_imports_without_the_collector(launch, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    env.update(PYTHONPATH=SRC, PYTHONPYCACHEPREFIX=str(tmp_path))
    warm = python("-m", "compileall", "-q", str(Path(SRC) / "repcount"), env=env)
    assert warm.returncode == 0, warm.stderr
    proc = python("-c", COLLECTOR_CHILD + LAUNCHERS[launch], env=env)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.decode().splitlines()[-1])
    assert report == {"code": 0, "starts": [], "in_main": [False], "frozen": 0, "numpy": True}


BLAS_THREADS = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
# The child runs the CLI module as ``python -m`` does, on an array job, and
# its stand-in for os._exit reports the three BLAS thread variables and the
# process's thread count once the job is done.
THREADS_CHILD = f"BLAS_THREADS = {BLAS_THREADS!r}" + """
import json, os, runpy, sys
def leave(code):
    with open("/proc/self/status") as status:
        threads = next(int(line.split()[1]) for line in status if line.startswith("Threads:"))
    print(json.dumps({"code": code, "threads": threads, "numpy": "numpy" in sys.modules,
                      "env": [os.environ.get(name) for name in BLAS_THREADS]}))
os._exit = leave
sys.argv = ["repcount", "count", "--group", "g12", "--k", "1", "--method", "classes"]
runpy.run_module("repcount.cli", run_name="__main__", alter_sys=True)
"""


def without_blas_threads(**extra) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREADS}
    return dict(env, PYTHONPATH=SRC, **extra)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs Linux's /proc")
@pytest.mark.parametrize("given", [None, "2"], ids=["unset", "caller's 2"])
def test_cli_runs_one_blas_thread_unless_told_otherwise(given):
    extra = {} if given is None else {"OPENBLAS_NUM_THREADS": given}
    proc = python("-c", THREADS_CHILD, env=without_blas_threads(**extra))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.decode().splitlines()[-1])
    assert report["code"] == 0 and report["numpy"]
    assert report["env"] == [given or "1", "1", "1"]
    if given is None:
        assert report["threads"] == 1


def test_library_import_leaves_the_environment_alone():
    proc = python("-c", "import os; before = dict(os.environ); "
                        "import repcount, repcount.cli; repcount.build; "
                        "print(dict(os.environ) == before)", env=without_blas_threads())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == "True"


def test_main_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert main(["count", "--group", "g12", "--k", "2", "--method", "oracle", "--no-timing"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_entry_freezes_nothing():
    # the entry leaves by os._exit, so the child's stand-in reports instead
    proc = python("-c", "import gc, os, sys; from repcount.cli import entry; "
                        "os._exit = lambda code: print(code, gc.get_freeze_count()); "
                        "sys.argv = ['repcount', 'count', '--group', 'g12', '--k', '1', "
                        "'--method', 'classes']; entry()")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == "0 0"


@pytest.mark.parametrize("argv", [case["argv"] for case in GOLDEN], ids=" ".join)
def test_main_leaves_little_cyclic_garbage(capsys, argv):
    # the CLI process never collects, so what one main call leaves unreachable
    # stays for the life of the process; the parser's cycles are ~400 objects
    gc.collect()
    gc.disable()
    try:
        main(argv)
        left = gc.collect()
    finally:
        gc.enable()
    capsys.readouterr()
    assert left <= 1000


@pytest.mark.parametrize("argv,code,first_line", [
    (["--help"], 0, "usage: repcount [-h]"),
    (["count", "--group", "g12"], 2, ""),
    (["formula", "--name", "x12", "--k", "2", "--no-timing"], 0,
     "g12  p=3  k=2  method=closed-form  count=5"),
    (["count", "--group", "sphere:m=4,p=5", "--k", "2", "--method", "theoremB", "--no-timing"], 0,
     "sphere:m=4,p=5  p=5  k=2  method=theoremB  count=7"),
], ids=["help", "usage error", "formula", "theoremB"])
def test_console_script(argv, code, first_line):
    # what the installed script's wrapper runs: sys.exit(script())
    proc = python("-c", "import sys; from repcount import script; "
                        f"sys.argv = ['repcount', *{argv!r}]; sys.exit(script())")
    assert proc.returncode == code, proc.stderr
    assert proc.stdout.decode().startswith(first_line)
    if code == 2:
        assert proc.stdout == b""
        assert "the following arguments are required: --k" in proc.stderr.decode()


@pytest.mark.parametrize("argv,code,error", [
    (["count", "--group", "g12", "--k", "0"], 2, "SpecInvalid"),
    (["count", "--group", "g31", "--k", "1", "--closure-cap", "10"], 3, "CapExceeded"),
], ids=["k=0", "closure-cap"])
def test_entry_exit_code_and_error_line(argv, code, error):
    # the entry's fast exit still carries main's code and its one line on stderr
    proc = python("-m", "repcount.cli", *argv)
    lines = proc.stderr.decode().splitlines()
    assert proc.returncode == code, lines
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == error
    assert proc.stdout == b""


@pytest.mark.parametrize("argv", ENTRY_ARGVS, ids=" ".join)
def test_entry_golden_output(argv):
    case = next(c for c in GOLDEN if c["argv"] == argv)
    proc = python("-m", "repcount.cli", *argv)
    assert (proc.returncode, proc.stdout.decode()) == (case["exit"], case["stdout"])


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("argv", [
    ["crosscheck", "--group", "g12", "--kmax", "3", "--no-timing"],
    ["count", "--group", "g24", "--k", "2", "--method", "classes", "--no-timing"],
    ["--help"],
    ["count", "--help"],
], ids=" ".join)
def test_failed_stdout_write_exits_3(argv):
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "repcount.cli", *argv], stdout=full,
                              stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC),
                              timeout=120)
    lines = proc.stderr.decode().splitlines()
    assert proc.returncode == 3, lines
    assert len(lines) == 1, lines
    assert json.loads(lines[0])["error"] == "OSError"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_usage_error_keeps_exit_2_when_stdout_is_full():
    with open("/dev/full", "w") as full:
        proc = subprocess.run([sys.executable, "-m", "repcount.cli", "count"], stdout=full,
                              stderr=subprocess.PIPE, env=dict(os.environ, PYTHONPATH=SRC),
                              timeout=120)
    assert proc.returncode == 2
    assert "the following arguments are required: --k" in proc.stderr.decode()
