"""Self-test of the benchmark harness on tiny inputs.

    python3 perfbench/selftest.py

A smoke workload must emit every metric that BENCHMARK.json names, with
its unit, untraced and traced, and pass its correctness checks; the same
job checked against a deliberately wrong reference must fail every time.
Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import sys
import time

import reference
import run
from workloads import jobs_for


def _expect_metrics(result: dict, declared: list) -> None:
    got = {name: unit for name, (_, unit) in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in declared}
    if got != want:
        raise SystemExit(f"metrics differ from BENCHMARK.json: got {got}, want {want}")
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"smoke run failed its checks: {result.get('problems')}")


def main() -> int:
    root = run.HERE.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    _expect_metrics(run.run_workload(root, "smoke", 1, 1.0, trace=False), spec["end_to_end"])
    _expect_metrics(run.run_workload(root, "smoke", 1, 1.0, trace=True), spec["per_layer"])

    def off_by_one(group, k):
        return reference.expected_count(group, k) + 1

    def wrong_check(job, rc, stdout):
        return reference.check(job, rc, stdout, reference=off_by_one)

    scratch = root / ".perfbench_out" / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    box = run.Sandbox(root / "src", scratch, time.perf_counter() + run.DEADLINE_SLACK_S)
    count_job = next(job for job in jobs_for("smoke", 1) if job.command == "count")
    result = run.measure_untraced(box, [count_job], 1, 0.0, check=wrong_check)
    if result["fail_rate"] != 1:
        raise SystemExit(f"wrong reference gave fail_rate {result['fail_rate']}, want 1")
    print("selftest ok: every declared metric emitted; wrong reference gives fail_rate 1")
    return 0


if __name__ == "__main__":
    sys.exit(main())
