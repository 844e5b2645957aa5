"""End-to-end benchmark of the repcount CLI, with an outside-in per-layer trace.

    python3 perfbench/run.py --workload highk --seed 1 --seconds 25 --trace 0

Run from the root of a repcount checkout; the package is loaded from its
`src/` directory.  `--workload all` runs every workload in turn.

`--trace 0` is the untraced pass.  It runs the workload's jobs, one
`python -m repcount.cli` process at a time (a closed loop with one client),
and reports
  wall_s       sum over the jobs of each job's median wall time, process
               start to exit, across the timed passes: the time one pass
               takes to a checked answer;
  peak_rss_mb  the median over passes of the largest ru_maxrss among the
               pass's job processes;
  setup_s      the median time of probes that start the interpreter,
               import repcount.cli and exit, three before every pass.
Both times are in reference seconds.  On a shared 2-vCPU Xeon virtual
machine the CPUs were measured switching between speeds up to 2x apart,
for a second to many minutes at a time, as other tenants came and went,
so a raw wall time depends on when it was taken.  The runner therefore
times a fixed interpreter-bound loop between every two child processes,
on the same CPU (runner and children are pinned to one), and scales each
child's wall time by REFERENCE_LOOP_S over the mean of the loop times
before and after it.  The raw medians are kept in the result file as
raw_wall_s and raw_setup_s.
One warm-up pass runs first and is discarded; timed passes follow until
`--seconds` is used (at least three, unless the deadline below comes
first).  Each job and probe gets a fresh empty directory as cwd, HOME and
XDG_CACHE_HOME, and an environment built from scratch, with
PYTHONHASHSEED derived from (seed, pass).

`--trace 1` is the traced pass: the same jobs run in-process through
`repcount.cli.main(argv)`, with span wrappers installed (see spans.py),
and the per-layer metrics are reported.  They run in one child process;
its per-layer times are scaled to reference seconds by the loops timed
before and after it, and the raw values are kept in the result file.

A run has a deadline of `--seconds` plus DEADLINE_SLACK_S.  Timed passes
stop early rather than run past it, and a child still running at it is
killed and recorded as a harness problem, not as a wrong answer: the run
is then not correct, but its failed count stays that of checked outputs.

Every job's output is checked against reference counts that do not come
from repcount (see reference.py), and a job whose `--no-timing` stdout
changes between repetitions fails.  The last line of stdout is one JSON
object: correct, attempted, failed and metrics.  A result file with the
argv of every job, every measurement and the machine's provenance goes to
`.perfbench_out/` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Optional

import reference
from workloads import WORKLOADS, jobs_for

HERE = Path(__file__).resolve().parent
MIN_PASSES = 3
PROBES_PER_PASS = 3
#: What a run keeps beyond `--seconds` for its warm-up and last passes: at
#: 25 s the deadline is 170 s, so a run ends within 180 s.
DEADLINE_SLACK_S = 145
SETUP_ARGV = ["-c", "import repcount.cli"]
#: About the time of calibration_loop() on a 2-vCPU Xeon VM at its faster speed.
REFERENCE_LOOP_S = 0.025


def calibration_loop() -> float:
    """Seconds this process takes for a fixed, interpreter-bound loop."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(60000):
        key = i * 2654435761 % 1000003
        table[key.to_bytes(4, "big")] = (i, key)
        acc += key * key % 7
    return time.perf_counter() - start


def hash_seed(seed: int, rep: int) -> int:
    """PYTHONHASHSEED of repetition `rep`; the same on every commit."""
    digest = hashlib.sha256(f"{seed}:{rep}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class Child:
    seconds: float
    ref_seconds: float
    usage: object  # the resource.struct_rusage os.wait4 gives
    returncode: int
    stdout: bytes
    stderr: bytes
    timed_out: bool


@dataclass
class Execution:
    seconds: float
    ref_seconds: float
    maxrss_kb: int
    returncode: int
    sha256: str
    problems: list
    timed_out: bool = False


@dataclass
class Sandbox:
    """Runs child processes of one checkout in a pinned, isolated environment."""

    src: Path
    scratch: Path
    deadline: float  # perf_counter time at which running children are killed
    problems: list = field(default_factory=list)
    last_loop_s: Optional[float] = None

    def env(self, job_dir: str, rep_seed: int) -> dict:
        # Built from scratch, so REPCOUNT_THREADS and the like never leak in.
        return {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "PYTHONPATH": str(self.src),
            "PYTHONHASHSEED": str(rep_seed),
            "HOME": job_dir,
            "XDG_CACHE_HOME": job_dir,
            "TMPDIR": job_dir,
            "OMP_NUM_THREADS": "1",
            "OPENBLAS_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1",
        }

    def run(self, args: list, rep_seed: int) -> Child:
        """Runs one child to its end, or kills it at the run's deadline.

        ref_seconds scales the wall time by the calibration loops timed just
        before and after the child.
        """
        before = self.last_loop_s or calibration_loop()
        timeout = max(1.0, self.deadline - time.perf_counter())
        job_dir = tempfile.mkdtemp(dir=self.scratch)
        out_path, err_path = Path(job_dir + ".out"), Path(job_dir + ".err")
        try:
            with open(out_path, "wb") as out, open(err_path, "wb") as err:
                start = time.perf_counter()
                proc = subprocess.Popen([sys.executable] + args, cwd=job_dir,
                                        env=self.env(job_dir, rep_seed),
                                        stdin=subprocess.DEVNULL, stdout=out, stderr=err)
                killed = []

                def kill():
                    killed.append(True)
                    os.kill(proc.pid, signal.SIGKILL)

                timer = threading.Timer(timeout, kill)
                timer.start()
                try:
                    _, status, usage = os.wait4(proc.pid, 0)
                finally:
                    timer.cancel()
                seconds = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.last_loop_s = calibration_loop()
            ref_seconds = seconds * REFERENCE_LOOP_S * 2 / (before + self.last_loop_s)
            return Child(seconds, ref_seconds, usage, proc.returncode,
                         out_path.read_bytes(), err_path.read_bytes(), bool(killed))
        finally:
            shutil.rmtree(job_dir, ignore_errors=True)
            out_path.unlink(missing_ok=True)
            err_path.unlink(missing_ok=True)


def run_job(box: Sandbox, job, rep_seed: int, check) -> Execution:
    child = box.run(["-m", "repcount.cli"] + job.argv, rep_seed)
    if child.timed_out:
        box.problems.append(f"killed at the run deadline after {child.seconds:.1f} s, "
                            f"output unchecked: {job.argv}")
        problems = []
    else:
        problems = check(job, child.returncode, child.stdout)
        if child.returncode != 0:
            problems.append(child.stderr.decode(errors="replace")[-300:])
    return Execution(child.seconds, child.ref_seconds, child.usage.ru_maxrss,
                     child.returncode, hashlib.sha256(child.stdout).hexdigest(),
                     problems, child.timed_out)


def _count_failures(runs_per_job: list) -> tuple:
    """(attempted, failed): an execution fails on a problem or a changed stdout.

    A killed execution is attempted but not failed; the harness problem
    recorded for it already makes the run not correct.
    """
    attempted = failed = 0
    for runs in runs_per_job:
        checked = [ex for ex in runs if not ex.timed_out]
        first = checked[0].sha256 if checked else None
        attempted += len(runs)
        for ex in checked:
            if ex.sha256 != first and not ex.problems:
                ex.problems.append("--no-timing stdout changed between repetitions")
            failed += bool(ex.problems)
    return attempted, failed


def measure_untraced(box: Sandbox, jobs: list, seed: int, seconds: float,
                     check=reference.check) -> dict:
    runs = [[] for _ in jobs]
    probes = []  # per pass, warm-up first
    pass_seconds = []

    def one_pass(rep: int) -> None:
        rep_seed = hash_seed(seed, rep)
        probes.append([])
        for _ in range(PROBES_PER_PASS):
            child = box.run(SETUP_ARGV, rep_seed)
            probes[-1].append((child.seconds, child.ref_seconds))
            if child.timed_out:
                box.problems.append("setup probe killed at the run deadline")
            elif child.returncode != 0:
                box.problems.append(f"setup probe exited {child.returncode}: "
                                    f"{child.stderr[-300:]!r}")
        for i, job in enumerate(jobs):
            runs[i].append(run_job(box, job, rep_seed, check))

    start = time.perf_counter()
    one_pass(0)  # warm-up: compiles bytecode, fills the page cache
    warmup = time.perf_counter() - start
    start = time.perf_counter()
    rep = 1
    while True:
        t = time.perf_counter()
        one_pass(rep)
        pass_seconds.append(time.perf_counter() - t)
        rep += 1
        now = time.perf_counter()
        next_end = now + statistics.mean(pass_seconds)
        # a slow program gets fewer passes rather than children killed
        if next_end > box.deadline or (rep > MIN_PASSES and next_end - start > seconds):
            break

    attempted, failed = _count_failures(runs)
    timed = [r[1:] for r in runs]
    timed_probes = [probe for p in probes[1:] for probe in p]
    metrics = {
        "wall_s": (sum(statistics.median(ex.ref_seconds for ex in r) for r in timed), "s"),
        "peak_rss_mb": (statistics.median(max(r[p].maxrss_kb for r in timed) / 1024
                                          for p in range(len(timed[0]))), "MB"),
        "setup_s": (statistics.median(ref_t for _, ref_t in timed_probes), "s"),
    }
    return {
        "metrics": metrics,
        "raw_wall_s": sum(statistics.median(ex.seconds for ex in r) for r in timed),
        "raw_setup_s": statistics.median(t for t, _ in timed_probes),
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "passes": len(timed[0]),
        "warmup_s": warmup,
        "pass_seconds": pass_seconds,
        "setup_probes_s": probes,
        "executions": [[ex.__dict__ for ex in r] for r in runs],
    }


def measure_traced(box: Sandbox, jobs: list, seed: int, seconds: float,
                   spans_path: Path, check=reference.check) -> dict:
    work = Path(tempfile.mkdtemp(dir=box.scratch))
    try:
        jobs_file, out_file = work / "jobs.json", work / "summary.json"
        jobs_file.write_text(json.dumps([job.argv for job in jobs]))
        child = box.run(
            [str(HERE / "spans.py"), "--jobs", str(jobs_file), "--seconds", str(seconds),
             "--out", str(out_file), "--spans", str(spans_path)],
            hash_seed(seed, 0))
        if child.timed_out:
            box.problems.append(f"traced pass killed at the run deadline after "
                                f"{child.seconds:.1f} s, outputs unchecked")
            return {"metrics": {}, "modules": {}, "attempted": len(jobs), "failed": 0,
                    "fail_rate": 0.0}
        if child.returncode != 0:
            raise RuntimeError(f"traced pass exited {child.returncode}: "
                               f"{child.stderr.decode(errors='replace')[-500:]}")
        summary = json.loads(out_file.read_text())
    finally:
        shutil.rmtree(work, ignore_errors=True)
    runs = []
    for job, result in zip(jobs, summary.pop("jobs")):
        problems = check(job, result["runs"][0][0], result["stdout"].encode())
        runs.append([Execution(0.0, 0.0, 0, rc, sha,
                               problems + ([f"exit code {rc}"] if rc else []))
                     for rc, sha in result["runs"]])
    attempted, failed = _count_failures(runs)
    raw = summary.pop("metrics")
    scale = child.ref_seconds / child.seconds
    metrics = {k: (v["value"] * scale if v["unit"] == "s" else v["value"], v["unit"])
               for k, v in raw.items()}
    return dict(summary, metrics=metrics, raw_metrics=raw, reference_scale=scale,
                attempted=attempted, failed=failed,
                fail_rate=failed / attempted,
                problems=[ex.problems for r in runs for ex in r if ex.problems][:20])


def provenance(root: Path) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "interpreter": sys.executable,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "platform": platform.platform(),
    }
    try:
        cpuinfo = Path("/proc/cpuinfo").read_text()
        info["cpu"] = next(line.split(":", 1)[1].strip()
                           for line in cpuinfo.splitlines() if line.startswith("model name"))
        meminfo = Path("/proc/meminfo").read_text().split()
        info["mem_total_kb"] = int(meminfo[meminfo.index("MemTotal:") + 1])
    except (OSError, StopIteration, ValueError):
        pass
    info["git_commit"], info["git_dirty"] = _git_state(root)
    return info


def _git_state(root: Path) -> tuple:
    """(commit, dirty) of the checkout, or (None, None) when it is no git work tree."""
    def git(*args):
        return subprocess.run(["git", "-C", str(root), *args], capture_output=True,
                              text=True, timeout=30)
    try:
        top = git("rev-parse", "--show-toplevel")
        if top.returncode != 0 or Path(top.stdout.strip()).resolve() != root:
            return None, None
        commit = git("rev-parse", "HEAD").stdout.strip()
        dirty = bool(git("status", "--porcelain", "--untracked-files=no").stdout.strip())
        return commit, dirty
    except (OSError, subprocess.SubprocessError):
        return None, None


def run_workload(root: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    out_dir = root / ".perfbench_out"
    scratch = out_dir / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    box = Sandbox(root / "src", scratch, time.perf_counter() + seconds + DEADLINE_SLACK_S)
    jobs = jobs_for(workload, seed)
    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    if trace:
        result = measure_traced(box, jobs, seed, seconds, out_dir / f"{tag}-spans.jsonl.gz")
    else:
        result = measure_untraced(box, jobs, seed, seconds)
    result.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                  jobs=[job.argv for job in jobs], harness_problems=box.problems,
                  provenance=provenance(root))
    result["correct"] = result["failed"] == 0 and not box.problems
    (out_dir / f"{tag}.json").write_text(json.dumps(result, indent=1, default=str))
    return result


def _report(result: dict) -> None:
    parts = [f"{name} {value:.6g} {unit}" for name, (value, unit) in result["metrics"].items()]
    parts.append(f"fail_rate {result['fail_rate']:.6g} ratio")
    if not result["trace"]:
        parts.append(f"(raw wall_s {result['raw_wall_s']:.6g} s, "
                     f"raw setup_s {result['raw_setup_s']:.6g} s)")
    print(f"{result['workload']}: " + "  ".join(parts)
          + f"  [{len(result['jobs'])} jobs, seed {result['seed']}]")
    if result["trace"]:
        total = sum(m["self_s"] for m in result["modules"].values()) or 1.0
        shares = sorted(result["modules"].items(), key=lambda kv: -kv[1]["self_s"])
        print("  self-time share: " + "  ".join(
            f"{mod} {100 * m['self_s'] / total:.1f}%" for mod, m in shares))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "repcount" / "cli.py").is_file():
        print(f"error: no repcount sources under {root / 'src'}; run from a repcount checkout",
              file=sys.stderr)
        return 2
    # Jobs are single-threaded; one CPU keeps each job on the CPU whose
    # speed the calibration loops around it measured.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(root, name, args.seed, args.seconds, bool(args.trace))
               for name in names]
    for result in results:
        _report(result)
    metrics = {}
    for r in results:
        for name, (value, unit) in r["metrics"].items():
            key = f"{r['workload']}.{name}" if args.workload == "all" else name
            metrics[key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
