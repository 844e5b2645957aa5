"""The process around the CLI: the collector's state across the package
import, the process entry that the console script and
``python -m repcount.cli`` run, and a stdout that cannot be written.

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


def python(*args):
    return subprocess.run([sys.executable, *args], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, timeout=120)


@pytest.mark.parametrize("enabled", [True, False])
def test_import_leaves_the_collector_as_it_found_it(enabled):
    switch = "gc.enable()" if enabled else "gc.disable()"
    proc = python("-c", f"import gc; {switch}; import repcount; print(gc.isenabled())")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().strip() == str(enabled)


def test_main_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert main(["count", "--group", "g12", "--k", "2", "--method", "oracle", "--no-timing"]) == 0
    capsys.readouterr()
    assert gc.get_freeze_count() == before


def test_entry_freezes_the_import_time_objects():
    # the entry leaves by os._exit, so the child's stand-in reports instead
    proc = python("-c", "import gc, os, sys; from repcount.cli import entry; "
                        "os._exit = lambda code: print(code, gc.get_freeze_count() > 0); "
                        "sys.argv = ['repcount', 'formula', '--name', 'g12', '--k', '1']; "
                        "entry()")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode().splitlines()[-1] == "0 True"


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
