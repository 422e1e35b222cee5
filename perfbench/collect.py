"""Run the benchmark over several seeds and record each metric's spread.

    python3 perfbench/collect.py [--seeds 1-10] [--traced-seeds 1-3] [--workloads W ...] [--out FILE]

For every workload it runs perfbench/run.py once per seed (from the
checkout root), then records for each metric the ten values, their median,
first and third quartiles (statistics.quantiles, n=4), the sample count
and the spread (q3 - q1) / median, and checks the spread against the
metric's bound in BENCHMARK.json.  --traced-seeds adds traced runs per
workload and records the per-layer metrics the same way.  Results merge
into FILE (default perfbench/baseline.json) by workload, so workloads can
be collected in separate invocations; a second set with other seeds and
another FILE (perfbench/baseline-repeat.json) shows how far the medians
of the same code move between sets.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def describe(values: list[float]) -> dict:
    d = {"values": values, **summary(values)}
    d["spread"] = (d["q3"] - d["q1"]) / d["median"] if d["median"] else None
    return d


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--traced-seeds", default=None)
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()
    out_path = Path(args.out)
    doc = json.loads(out_path.read_text()) if out_path.exists() else {}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for workload in args.workloads:
        runs = [one_run(workload, s, bench["run_seconds"], 0) for s in seeds(args.seeds)]
        entry = {"seeds": args.seeds, "run_seconds": bench["run_seconds"],
                 "attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for name, bound in bounds.items():
            d = describe([r["metrics"][name]["value"] for r in runs])
            d["unit"], d["bound"] = runs[0]["metrics"][name]["unit"], bound
            d["within_third_of_bound"] = d["spread"] < bound / 3
            entry["end_to_end"][name] = d
            print(f"{workload:<16} {name:<12} median {d['median']:<10.5g} "
                  f"q1 {d['q1']:<10.5g} q3 {d['q3']:<10.5g} spread {d['spread']:.4f} "
                  f"(bound {bound})", flush=True)
        if args.traced_seeds:
            traced = [one_run(workload, s, bench["run_seconds"], 1) for s in seeds(args.traced_seeds)]
            entry["traced_seeds"] = args.traced_seeds
            entry["traced_failed"] = sum(r["failed"] for r in traced)
            entry["per_layer"] = {
                name: {**describe([r["metrics"][name]["value"] for r in traced]), "unit": m["unit"]}
                for name, m in traced[0]["metrics"].items()}
        doc[workload] = entry
        out_path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
