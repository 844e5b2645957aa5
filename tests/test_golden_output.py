"""Byte-identical CLI output: every case in data/golden_cli.json, in-process.

Each case is an argv run through ``repcount.cli.main`` with --no-timing,
and its expected stdout and exit code.  The cases cover the class table of
every exceptional group and a large-p monomial group, censuses, classwise
count breakdowns below and above the closure precision M0, a per-element
Burnside sum, a crosscheck and a spec error.  An intended output change
regenerates the file with ``PYTHONPATH=src python tests/test_golden_output.py``
and is listed in CHANGES.md.
"""

import json
from pathlib import Path

import pytest

from repcount.cli import main

DATA = Path(__file__).parent / "data" / "golden_cli.json"
CASES = json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c["argv"]) for c in CASES])
def test_golden_output(capsys, case):
    code = main(case["argv"])
    assert (code, capsys.readouterr().out) == (case["exit"], case["stdout"])


if __name__ == "__main__":
    import contextlib
    import io

    for case in CASES:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            case["exit"] = main(case["argv"])
        case["stdout"] = buf.getvalue()
    DATA.write_text(json.dumps(CASES, indent=1), encoding="utf-8")
