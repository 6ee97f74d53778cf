#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload of BENCHMARK.json at the tiny input size, untraced and
traced, for a few seconds each, and checks that each run exits 0 and ends
with one JSON object holding exactly correct/attempted/failed/metrics, that
nothing failed (fail_ratio 0), and that the metric names and units are
exactly those BENCHMARK.json declares.  It also checks that the harness
refuses to run, without printing a result, in a directory that holds only
BENCHMARK.json and the benchmark's files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SECONDS = "2"


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        spec = json.load(fp)
    problems = []
    expected_keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != expected_keys:
        problems.append(f"BENCHMARK.json keys {sorted(spec)}")
    sys.path.insert(0, str(BENCH_DIR))
    import run  # noqa: E402

    names = [w["name"] for w in spec["workloads"]]
    if sorted(names) != sorted(run.WORKLOADS):
        problems.append(f"workloads {names} != harness {sorted(run.WORKLOADS)}")
    for workload in names:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
                 "--seconds", SECONDS, "--trace", str(trace), "--size", "tiny",
                 "--trace-out", str(ROOT / ".bench_out" / f"smoke_{workload}.json")],
                cwd=ROOT, capture_output=True, text=True, timeout=300,
            )
            tag = f"{workload} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = _last_json(proc.stdout)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{tag}: {result['failed']}/{result['attempted']} failed\n{proc.stderr}")
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            want = {m["name"]: m["unit"] for m in declared}
            if got != want:
                problems.append(f"{tag}: metrics {got} != declared {want}")
            print(f"{tag}: {result['attempted']} jobs, {result['failed']} failed", flush=True)

    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / BENCH_DIR.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [*spec["command"], "--workload", names[0], "--seed", "1", "--seconds", SECONDS,
             "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            problems.append(f"bare checkout: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
        else:
            print(f"bare checkout: refused with exit {proc.returncode}")

    for p in problems:
        print("SMOKE FAIL: " + p, file=sys.stderr)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
