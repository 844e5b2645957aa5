"""Outside-in trace of repcount, installed from the benchmark's own files.

`Recorder.install` wraps every public function of each `repcount` module,
and the public methods of `FiniteMatrixGroup`, and rebinds each wrapper
wherever the original is bound (for example `repcount.groups` imports
`smith_valuations_raw` from `repcount.linalg` under the same name).  A
wrapper records one span: name, start, end, parent span and job id.
Spans stay in memory and are written once, when the run ends.  Self time
is a span's duration minus the durations of its child spans.

Run as a script, this module is the traced pass: it runs a job list
in-process through `repcount.cli.main(argv)`, alternating untraced and
traced passes for a given number of seconds, and writes a JSON summary.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import importlib
import inspect
import io
import json
import statistics
import sys
import time
import traceback
import weakref
from array import array
from pathlib import Path

MODULES = ("cli", "catalog", "groups", "linalg", "counting", "oracle",
           "grassmannian", "formulas", "modp")

JOB_SPAN = "bench.job"


class Recorder:
    """Spans and counters of the traced passes, kept in flat arrays."""

    def __init__(self):
        self.names = [JOB_SPAN]
        self._ids = {JOB_SPAN: 0}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.stack = []
        self.job_id = -1
        self.counters = {}
        self._classed = weakref.WeakSet()
        self._patches = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    @contextlib.contextmanager
    def job_span(self, job_id: int):
        self.job_id = job_id
        idx = self._open(0)
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn):
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        hook = _HOOKS.get(name)
        rec_open, rec_close = self._open, self._close

        def wrapper(*args, **kwargs):
            idx = rec_open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec_close(idx)
            if hook is not None:
                hook(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- counters ------------------------------------------------------------

    def add(self, name: str, value: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def maximum(self, name: str, value: int) -> None:
        self.counters[name] = max(self.counters.get(name, 0), value)

    # -- installing the wrappers ------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions and rebind them in every repcount module."""
        mods = {name: importlib.import_module(f"repcount.{name}") for name in MODULES}
        wrappers = {}
        for mname, mod in mods.items():
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod.__name__):
                    wrappers[obj] = self._wrap(f"{mname}.{attr}", obj)
        cls = mods["groups"].FiniteMatrixGroup
        for attr, obj in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(obj):
                self._patch(cls, attr, self._wrap(f"groups.FiniteMatrixGroup.{attr}", obj))
        for modname, mod in list(sys.modules.items()):
            if modname == "repcount" or modname.startswith("repcount."):
                for attr, obj in list(vars(mod).items()):
                    if inspect.isfunction(obj) and obj in wrappers:
                        self._patch(mod, attr, wrappers[obj])

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- summaries -----------------------------------------------------------

    def summarize(self, lo: int, hi: int) -> dict:
        """Self time and calls per span name over spans lo..hi-1."""
        import numpy as np

        start = np.frombuffer(self.start, dtype=np.float64)[lo:hi]
        dur = np.frombuffer(self.end, dtype=np.float64)[lo:hi] - start
        parent = np.frombuffer(self.parent, dtype=np.int32)[lo:hi].astype(np.int64) - lo
        name_of = np.frombuffer(self.name_of, dtype=np.int32)[lo:hi]
        child = np.zeros_like(dur)
        inner = parent >= 0
        np.add.at(child, parent[inner], dur[inner])
        self_s = np.bincount(name_of, weights=dur - child, minlength=len(self.names))
        calls = np.bincount(name_of, minlength=len(self.names))
        return {self.names[i]: (float(self_s[i]), int(calls[i]))
                for i in range(len(self.names)) if calls[i]}

    def write_spans(self, path: Path) -> None:
        """One JSON line of span names, then [name, start, end, parent, job] per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            fh.writelines(f"[{n},{s!r},{e!r},{p},{j}]\n" for n, s, e, p, j
                          in zip(self.name_of, self.start, self.end, self.parent, self.job))


# -- counter hooks: (recorder, args, kwargs, result) -------------------------


def _after_close(rec, args, kwargs, result):
    gens = args[0] if args else kwargs["generators"]
    rec.add("groups.elements_closed", result.order)
    rec.maximum("groups.close_max_M", gens[0].modulus.M)


def _after_classes(rec, args, kwargs, result):
    group = args[0]
    if group not in rec._classed:
        rec._classed.add(group)
        rec.add("groups.classes_found", len(result))


def _after_rows_at(rec, args, kwargs, result):
    group = args[0]
    target = args[2] if len(args) > 2 else kwargs["target_M"]
    if target > group.modulus.M:
        rec.add("groups.lift_calls")
        rec.maximum("groups.lift_max_M", target)


def _after_oracle(rec, args, kwargs, result):
    group = args[0]
    n = args[1] if len(args) > 1 else kwargs["n"]
    rec.add("oracle.points", group.modulus.p ** (n * group.dim))
    rec.add("oracle.orbits", result)


_HOOKS = {
    "groups.close": _after_close,
    "groups.FiniteMatrixGroup.conjugacy_classes": _after_classes,
    "groups.FiniteMatrixGroup.element_rows_at": _after_rows_at,
    "oracle.orbit_count_bruteforce": _after_oracle,
}


# -- per-layer metrics ----------------------------------------------------------


def layer_metrics(stats: dict, counters: dict) -> dict:
    """The per-layer metrics of one traced pass, as name -> (value, unit)."""

    def self_s(*names):
        return sum(stats.get(n, (0.0, 0))[0] for n in names)

    def calls(name):
        return stats.get(name, (0.0, 0))[1]

    return {
        "cli.self_s": (sum(v[0] for n, v in stats.items() if n.startswith("cli.")), "s"),
        "cli.jobs": (calls("cli.main"), "count"),
        "catalog.build_calls": (calls("catalog.build"), "count"),
        "catalog.generators_s": (self_s("catalog.generators"), "s"),
        "catalog.generators_calls": (calls("catalog.generators"), "count"),
        "groups.close_s": (self_s("groups.close"), "s"),
        "groups.close_calls": (calls("groups.close"), "count"),
        "groups.elements_closed": (counters.get("groups.elements_closed", 0), "count"),
        "groups.close_max_M": (counters.get("groups.close_max_M", 0), "exponent"),
        "groups.classes_s": (self_s("groups.FiniteMatrixGroup.conjugacy_classes"), "s"),
        "groups.classes_found": (counters.get("groups.classes_found", 0), "count"),
        "groups.lift_calls": (counters.get("groups.lift_calls", 0), "count"),
        "groups.lift_max_M": (counters.get("groups.lift_max_M", 0), "exponent"),
        "linalg.smith_s": (self_s("linalg.smith_valuations_raw", "linalg.smith_valuations"), "s"),
        "linalg.smith_calls": (calls("linalg.smith_valuations_raw"), "count"),
        "linalg.kernel_s": (self_s("linalg.kernel_size_raw", "linalg.kernel_size"), "s"),
        "linalg.matmul_s": (self_s("linalg.mat_mul_raw", "linalg.multiply"), "s"),
        "linalg.matmul_calls": (calls("linalg.mat_mul_raw"), "count"),
        "counting.burnside_s": (self_s("counting.count_burnside_full"), "s"),
        "counting.classes_s": (self_s("counting.count_burnside_classes"), "s"),
        "counting.formula_s": (self_s("counting.count_formula_general"), "s"),
        "counting.census_s": (self_s("counting.torsion_census"), "s"),
        "counting.torsion_s": (self_s("counting.resolve_torsion"), "s"),
        "counting.torsion_calls": (calls("counting.resolve_torsion"), "count"),
        "oracle.flood_s": (self_s("oracle.orbit_count_bruteforce"), "s"),
        "oracle.points": (counters.get("oracle.points", 0), "count"),
        "oracle.orbits": (counters.get("oracle.orbits", 0), "count"),
        "grassmannian.theorem_b_s": (self_s("grassmannian.theorem_b"), "s"),
        "grassmannian.domain_s": (self_s("grassmannian.enumerate_distinguished"), "s"),
        "formulas.closed_form_s": (self_s("formulas.theorem_c", "formulas.theorem_a"), "s"),
    }


def module_shares(stats: dict) -> dict:
    """Self time per module (the span-name prefix), summed over its spans."""
    out = {}
    for name, (self_s, calls) in stats.items():
        mod = name.split(".", 1)[0]
        s, c = out.get(mod, (0.0, 0))
        out[mod] = (s + self_s, c + calls)
    return out


# -- the in-process pass ------------------------------------------------------


def _run_pass(cli, jobs: list, rec, pass_index: int, outputs: list) -> float:
    start = time.perf_counter()
    for i, argv in enumerate(jobs):
        out, err = io.StringIO(), io.StringIO()
        span = rec.job_span(pass_index * len(jobs) + i) if rec else contextlib.nullcontext()
        with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(list(argv))
            except SystemExit as exc:  # argparse rejects bad argv this way
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash fails this job, as it would a process
                traceback.print_exc()
                rc = 1
        text = out.getvalue()
        outputs[i].append((rc, hashlib.sha256(text.encode()).hexdigest(), text))
    return time.perf_counter() - start


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--jobs", required=True, help="JSON file: list of argv lists")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--out", required=True, help="JSON summary to write")
    ap.add_argument("--spans", required=True, help="gzip JSON-lines span file to write")
    args = ap.parse_args(argv)

    from repcount import cli  # found through PYTHONPATH, which run.py sets

    jobs = json.loads(Path(args.jobs).read_text())
    outputs = [[] for _ in jobs]
    rec = Recorder()
    _run_pass(cli, jobs, None, -1, outputs)  # warm-up, discarded
    untraced, traced, per_pass = [], [], []
    start = time.perf_counter()
    elapsed = 0.0
    pass_index = 0
    # pairs of passes until the next pair would end after --seconds
    while pass_index == 0 or elapsed + elapsed / pass_index <= args.seconds:
        untraced.append(_run_pass(cli, jobs, None, -1, outputs))
        lo = len(rec.start)
        rec.counters = {}
        rec.install()
        try:
            traced.append(_run_pass(cli, jobs, rec, pass_index, outputs))
        finally:
            rec.uninstall()
        stats = rec.summarize(lo, len(rec.start))
        per_pass.append((stats, layer_metrics(stats, rec.counters)))
        pass_index += 1
        elapsed = time.perf_counter() - start

    metrics = {}
    for name, (_, unit) in per_pass[0][1].items():
        # counts repeat exactly from pass to pass; times take the median
        median = statistics.median if unit == "s" else statistics.median_low
        metrics[name] = {"value": median(m[name][0] for _, m in per_pass), "unit": unit}
    metrics["trace.overhead_s"] = {
        "value": statistics.median(traced) - statistics.median(untraced), "unit": "s"}
    stats = per_pass[0][0]
    rec.write_spans(Path(args.spans))
    summary = {
        "metrics": metrics,
        "modules": {m: {"self_s": s, "calls": c}
                    for m, (s, c) in sorted(module_shares(stats).items())},
        "functions": {n: {"self_s": s, "calls": c} for n, (s, c) in sorted(stats.items())},
        "pass_seconds": {"untraced": untraced, "traced": traced},
        "spans": len(rec.start),
        "jobs": [{"stdout": runs[0][2], "runs": [[rc, sha] for rc, sha, _ in runs]}
                 for runs in outputs],
    }
    Path(args.out).write_text(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
