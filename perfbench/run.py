"""The widewalk benchmark: one command runs one workload for a fixed time,
checks every output, and prints each metric by name with its unit.

    python3 perfbench/run.py --workload W --seed N [--seconds S] [--trace 0|1]

Run it from the root of a source checkout; it imports the package from
./src and writes its scratch files, results and traces under .bench_work/.
The workloads, the metric names and units, and the default --seconds
(run_seconds) are in BENCHMARK.json; workloads.py holds the workloads'
inputs, jobs and checks, tracer.py what each per-layer metric measures.

A run repeats rounds of the workload until the next round would pass the
time limit (at least one round).  Each round runs in fresh processes, so
each pays import and the lazy DP operator tables again, as a user does:
flagship-cli runs six CLI processes (about 5 s), inprocess-exact one
worker process (about 60 s, so a run of it is one round whatever
--seconds is below that).  Rounds are a single-client closed loop: one
process at a time, each call waiting for the previous one.

End-to-end metrics (medians over the rounds of the run):
  wall_s       process start to the last verdict of the round (for
               flagship-cli the sum of its six processes' wall times)
  setup_s      process start to the end of set-up: import widewalk and
               build every graph and ReplacementSystem the workload uses
               (flagship-cli: a process that imports widewalk.cli and
               builds the flagship system); sampled by set-up-only
               processes spread over the run, so that they average the
               host's load drift as the rounds do: one after each CLI
               process of a flagship-cli round, four after each
               inprocess-exact round (which gives one itself); a traced
               run does not report setup_s and runs none
  cpu_s        user+sys CPU of the round's processes
  peak_rss_mb  largest peak RSS of the round's processes, in MiB
  error_rate   failed jobs / attempted jobs, printed with the others and
               carried by the "failed" and "attempted" fields; a job is
               one checked library call, CLI process or set-up process

With --trace 1 the first round runs untraced and the later ones traced;
the per-layer metrics come from the traced rounds, and trace.overhead_s
is traced wall_s minus untraced wall_s.  Spans and counts are written to
.bench_work/trace-<workload>-seed<N>.jsonl.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy

import workloads
from tracer import SHOULD_MOVE, layer_metrics, read_trace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
CHILD_TIMEOUT_S = 150
# set-up-only processes after each inprocess-exact round of an untraced
# run (about 5 s each); flagship-cli runs one (about 0.2 s) after each CLI
# process
WORKER_SETUP_PROBES = 4

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [(m["name"], m["unit"]) for m in BENCH["end_to_end"]]
PER_LAYER = [(m["name"], m["unit"]) for m in BENCH["per_layer"]]


class Child:
    """A finished child process: its stamps, exit code, output and rusage."""

    def __init__(self, argv, cwd, env):
        err_path = WORK / "stderr.txt"
        with open(err_path, "wb") as err:
            self.start = time.monotonic()
            proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=err)
            killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            killer.start()
            try:
                self.stdout = proc.stdout.read()
                proc.stdout.close()
                # wait4 gives this child's own rusage (peak RSS included)
                _, status, ru = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            self.end = time.monotonic()
            proc.returncode = self.exit = os.waitstatus_to_exitcode(status)
        self.stderr = err_path.read_bytes()
        self.cpu_s = ru.ru_utime + ru.ru_stime
        self.peak_rss_mb = ru.ru_maxrss / 1024

    def result(self) -> dict:
        """The worker's JSON report; raises if the worker failed."""
        if self.exit != 0:
            tail = self.stderr.decode(errors="replace").strip().splitlines()[-1:]
            raise RuntimeError(f"worker exited {self.exit}: {' '.join(tail)}")
        return json.loads(self.stdout.decode().strip().splitlines()[-1])


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    nproc = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS"):
        try:
            want = min(int(env.get(var, nproc)), nproc)
        except ValueError:
            want = nproc
        env[var] = str(max(want, 1))
    return env


def prepare_work_dir() -> None:
    """Create .bench_work/ and the flagship config and base code the CLI
    jobs read (relative paths, so the echoed configuration is the same in
    every checkout)."""
    flagship = WORK / "flagship"
    flagship.mkdir(parents=True, exist_ok=True)
    (flagship / "config.json").write_text(json.dumps(workloads.FLAGSHIP_CONFIG))
    (flagship / "base.json").write_text(json.dumps(workloads.FLAGSHIP_BASE))


class Run:
    def __init__(self, workload: str, seed: int, trace: bool):
        self.workload, self.seed, self.trace = workload, seed, trace
        self.inp = workloads.inputs(workload, seed)
        self.refs = workloads.load_references()
        self.env = child_env()
        self.py = sys.executable
        self.rounds: list[dict] = []
        self.setups: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.trace_path = WORK / f"trace-{workload}-seed{seed}.jsonl"
        if trace:
            self.trace_path.write_text("")

    def _job(self, label: str, failures: list[str]) -> None:
        self.attempted += 1
        if failures:
            self.failures.append(f"{label}: {'; '.join(failures)}")

    def setup_probe(self) -> None:
        child = Child([self.py, str(HERE / "worker.py"), "--workload", self.workload,
                       "--seed", str(self.seed), "--setup-only"], ROOT, self.env)
        try:
            self.setups.append(child.result()["setup_end"] - child.start)
            self._job("setup", [])
        except (RuntimeError, ValueError, KeyError) as e:
            self._job("setup", [str(e)])

    def round(self, traced: bool) -> None:
        idx = len(self.rounds)
        if self.workload == "flagship-cli":
            rec = self._cli_round(idx, traced)
        else:
            rec = self._worker_round(idx, traced)
        if rec is not None:
            rec["traced"] = traced
            self.rounds.append(rec)

    def _trace_file(self, idx: int, proc: int) -> Path:
        return WORK / f"spans-r{idx}-p{proc}.jsonl"

    def _collect(self, idx: int, procs: list[tuple[Path, Child, str]]) -> dict:
        """Read each traced process's spans, append them to the run's trace
        file and return the round's per-layer metrics."""
        entries = []
        with open(self.trace_path, "a") as out:
            for path, child, label in procs:
                spans, counts = read_trace(path)
                path.unlink()
                entries.append({"spans": spans, "counts": counts, "wall_s": child.end - child.start,
                                "stdout_bytes": len(child.stdout) if label != "worker" else 0})
                head = {"round": idx, "process": label}
                for rec in spans:
                    out.write(json.dumps({**head, **rec}) + "\n")
                for name, value in counts.items():
                    out.write(json.dumps({**head, "count": name, "value": value}) + "\n")
        return layer_metrics(entries)

    def _cli_round(self, idx: int, traced: bool) -> dict:
        support = self.inp["support"]
        jobs = workloads.flagship_commands(support)
        children, paths = [], []
        for p, (job, argv) in enumerate(jobs):
            path = self._trace_file(idx, p)
            if traced:
                cmd = [self.py, str(HERE / "cli_traced.py"), str(path), *argv]
            else:
                cmd = [self.py, "-m", "widewalk.cli", *argv]
            children.append(Child(cmd, WORK / "flagship", self.env))
            if not self.trace:  # a traced run does not report setup_s
                self.setup_probe()
            paths.append(path)
        # checks run after the last verdict, outside the timed window
        plain = dict(zip((j for j, _ in jobs), children))["code-report"].stdout
        for (job, _), child in zip(jobs, children):
            try:
                failures = workloads.check_cli(job, child.exit, child.stdout, support, self.refs, plain)
            except (KeyError, TypeError, ValueError) as e:
                failures = [f"check raised {type(e).__name__}: {e}"]
            if failures and child.stderr:
                failures.append(child.stderr.decode(errors="replace").strip().splitlines()[-1])
            self._job(f"round {idx} {job}", failures)
        rec = {
            # the set-up probes between the CLI processes are not the round's
            "wall_s": sum(c.end - c.start for c in children),
            "cpu_s": sum(c.cpu_s for c in children),
            "peak_rss_mb": max(c.peak_rss_mb for c in children),
        }
        if traced:
            rec["layers"] = self._collect(idx, [(path, child, job) for path, child, (job, _)
                                                in zip(paths, children, jobs) if path.exists()])
        return rec

    def _worker_round(self, idx: int, traced: bool) -> dict | None:
        cmd = [self.py, str(HERE / "worker.py"), "--workload", self.workload, "--seed", str(self.seed)]
        path = self._trace_file(idx, 0)
        if traced:
            cmd += ["--trace", str(path)]
        child = Child(cmd, ROOT, self.env)
        try:
            res = child.result()
        except (RuntimeError, ValueError) as e:
            self._job(f"round {idx} worker", [str(e)])
            return None
        for job in res["jobs"]:
            self._job(f"round {idx} {job['job']}", job["failures"])
        self.setups.append(res["setup_end"] - child.start)
        if not self.trace:
            for _ in range(WORKER_SETUP_PROBES):
                self.setup_probe()
        rec = {
            "wall_s": res["last_verdict"] - child.start,
            "cpu_s": res["cpu_s"],
            "peak_rss_mb": res["peak_rss_mb"],
            "jobs": {j["job"]: j["seconds"] for j in res["jobs"]},
        }
        if traced:
            rec["layers"] = self._collect(idx, [(path, child, "worker")])
        return rec

    def execute(self, seconds: float) -> None:
        deadline = time.monotonic() + seconds
        if self.trace:
            self.round(traced=False)
        while True:
            t0 = time.monotonic()
            self.round(traced=self.trace)
            took = time.monotonic() - t0
            if time.monotonic() + took > deadline:
                break


def brief(value):
    """Inputs for printing: long lists shown by length and digest."""
    if isinstance(value, dict):
        return {k: brief(v) for k, v in value.items()}
    if isinstance(value, list) and len(value) > 8:
        return f"{len(value)} items, sha256 {hashlib.sha256(json.dumps(value).encode()).hexdigest()[:16]}"
    return value


def summary(values: list[float]) -> dict:
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def provenance(workload: str) -> dict:
    def getconf(name):
        try:
            out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return int(out.stdout.strip())
        except (OSError, ValueError, subprocess.TimeoutExpired):
            return None

    sha = None
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        sha = out.stdout.strip() or None
    digest, lines = hashlib.sha256(), 0
    for path in sorted(SRC.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    env = child_env()
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "working_set_computed": workloads.working_set(workload),
        "OMP_NUM_THREADS": env["OMP_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "widewalk" / "__init__.py").is_file():
        print(f"error: no widewalk sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2
    prepare_work_dir()
    run = Run(args.workload, args.seed, bool(args.trace))
    run.execute(args.seconds)
    untraced = [r for r in run.rounds if not r["traced"]]
    traced = [r for r in run.rounds if r["traced"]]
    if not (traced if args.trace else run.setups) or not untraced:
        for line in run.failures:
            print(f"FAILED {line}", file=sys.stderr)
        print("error: no round completed", file=sys.stderr)
        return 1

    stats = {name: summary(run.setups if name == "setup_s" else [r[name] for r in untraced])
             for name, _ in END_TO_END if name != "setup_s" or run.setups}
    if args.trace:
        layers = {name: statistics.median(r["layers"][name] for r in traced)
                  for name, _ in PER_LAYER if name != "trace.overhead_s"}
        layers["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                      - stats["wall_s"]["median"])
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": stats[name]["median"], "unit": unit} for name, unit in END_TO_END}
    failed = len(run.failures)
    error_rate = failed / run.attempted

    prov = provenance(args.workload)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: inputs {json.dumps(brief(run.inp))}")
    print(f"{len(run.rounds)} rounds ({len(traced)} traced), {run.attempted} jobs attempted, "
          f"{failed} failed")
    for line in run.failures:
        print(f"FAILED {line}")
    for name, unit in END_TO_END:
        if name not in stats:
            continue
        st = stats[name]
        print(f"{name:<14} {st['median']:.6g} {unit}  (median of {st['n']}; "
              f"q1 {st['q1']:.6g}, q3 {st['q3']:.6g})")
    print(f"{'error_rate':<14} {error_rate:.6g} ratio  ({failed} / {run.attempted})")
    if args.trace:
        for name, unit in PER_LAYER:
            print(f"{name:<32} {layers[name]:<12.6g} {unit:<6} should move: {SHOULD_MOVE[name]}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "inputs": run.inp, "provenance": prov,
        "end_to_end": stats, "error_rate": error_rate, "attempted": run.attempted,
        "failed": failed, "failures": run.failures, "rounds": run.rounds,
    }
    with open(WORK / "results.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
