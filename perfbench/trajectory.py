#!/usr/bin/env python3
"""Repeat benchmark runs, summarise them, and compare summaries.

    python3 perfbench/trajectory.py collect --runs 10 --label seed \\
        --out perfbench/trajectory/BENCH_seed.json
    python3 perfbench/trajectory.py compare OLD.json NEW.json

``collect`` runs every workload once per seed (seeds 1 .. runs) for
BENCHMARK.json's run_seconds with tracing off, and records for each
end-to-end metric its values, median, quartiles and spread (interquartile
distance over the median, from statistics.quantiles(values, n=4)) next to
the bound that BENCHMARK.json fixes.  It stops with an error if any run
fails a check, and exits 3 if a spread other than setup_s's is not below a
third of its bound.

``compare`` refuses summaries whose stamps differ in interpreter, core
count, platform or run settings unless --force is given, and prints the
differing fields either way; the commits are printed, since comparing two
commits is the point.  It reports each metric's change against its bound.
Where either side's spread reaches the bound, the medians decide nothing:
the metric is "unresolved" unless every run of one side beats every run of
the other.  Exit status: 1 if a metric is worse than its bound, else 4 if
one is unresolved, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MACHINE_FIELDS = ("python", "nproc", "platform", "machine")


def _load(path) -> dict:
    with open(path, encoding="utf-8") as fp:
        return json.load(fp)


def _spec() -> dict:
    return _load(ROOT / "BENCHMARK.json")


def summarize(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def collect(args) -> int:
    spec = _spec()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    entry = {"label": args.label, "run_seconds": seconds, "runs": args.runs,
             "first_seed": 1, "stamp": None, "workloads": {}}
    ok = True
    for w in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        for seed in range(1, args.runs + 1):
            with tempfile.NamedTemporaryFile(suffix=".json", dir=ROOT / ".bench_out") as tmp:
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "run.py"), "--workload", w, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0", "--out", tmp.name],
                    cwd=ROOT, capture_output=True, text=True, timeout=600,
                )
                last = json.loads(proc.stdout.strip().splitlines()[-1])
                record = _load(tmp.name)
            if proc.returncode != 0 or not last["correct"]:
                print(f"{w} seed {seed}: exit {proc.returncode}, correct={last['correct']}\n{proc.stderr}",
                      file=sys.stderr)
                return 1
            if entry["stamp"] is None:
                entry["stamp"] = record["stamp"]
            elif record["stamp"] != entry["stamp"]:
                print(f"stamp changed during collection: {record['stamp']}", file=sys.stderr)
                return 1
            for name, m in last["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + ", ".join(
                f"{n}={m['value']:.5g}" for n, m in last["metrics"].items()), flush=True)
        summary = {}
        for name, vals in values.items():
            s = summarize(vals)
            s["unit"] = last["metrics"][name]["unit"]
            s["bound"] = bounds[name]["bound"]
            summary[name] = s
            steady = name == "setup_s" or s["spread"] < s["bound"] / 3
            ok &= steady
            print(f"  {w:<13} {name:<12} median {s['median']:.6g} {s['unit']:<4} spread "
                  f"{s['spread']:.4f} (bound {s['bound']}){'' if steady else '  NOT STEADY'}")
        entry["workloads"][w] = summary
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fp:
            json.dump(entry, fp, indent=1)
            fp.write("\n")
    return 0 if ok else 3


def compare(args) -> int:
    old, new = _load(args.old), _load(args.new)
    differ = [f for f in MACHINE_FIELDS if old["stamp"].get(f) != new["stamp"].get(f)]
    if old["run_seconds"] != new["run_seconds"]:
        differ.append("run_seconds")
    for f in differ:
        print(f"stamps differ in {f}: {old['stamp'].get(f, old.get(f))!r} vs "
              f"{new['stamp'].get(f, new.get(f))!r}")
    if differ and not args.force:
        print("refusing to compare results taken under different stamps (use --force)")
        return 2
    print(f"commit {old['stamp']['commit']} ({old['stamp']['src_sha256']}) -> "
          f"{new['stamp']['commit']} ({new['stamp']['src_sha256']})")
    better = {m["name"]: m["better"] for m in _spec()["end_to_end"]}
    worse = unresolved = False
    for w, metrics in new["workloads"].items():
        for name, n in metrics.items():
            o = old["workloads"].get(w, {}).get(name)
            if o is None:
                continue
            change = n["median"] / o["median"] - 1
            loss = change if better[name] == "lower" else -change
            lo, hi = sorted((o["values"], n["values"]), key=max)
            apart = max(lo) < min(hi)
            if max(o["spread"], n["spread"]) >= n["bound"] and not apart:
                verdict = "unresolved"
                unresolved = True
            elif loss > n["bound"]:
                verdict = "worse than bound"
                worse = True
            else:
                verdict = "within bound"
            print(f"{w:<13} {name:<12} {o['median']:.6g} -> {n['median']:.6g} {n['unit']:<4} "
                  f"({change:+.2%}, spread {o['spread']:.3f}/{n['spread']:.3f}) {verdict}")
    return 1 if worse else 4 if unresolved else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--runs", type=int, default=10)
    c.add_argument("--label", default="")
    c.add_argument("--out")
    k = sub.add_parser("compare")
    k.add_argument("old")
    k.add_argument("new")
    k.add_argument("--force", action="store_true")
    args = ap.parse_args()
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    return collect(args) if args.cmd == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
