"""One round of the in-process workload, or only a workload's set-up, in a
fresh process.

    python3 perfbench/worker.py --workload W --seed N [--setup-only] [--trace FILE]

Prints one JSON object: the time.monotonic() stamps at which set-up ended
and the last verdict was returned, the CPU time and peak RSS at the last
verdict, and per job its duration and failures.
The parent takes the process start as the moment it spawned this process,
so both stamps are read on the system-wide monotonic clock.  Checks run
after the last verdict and are not timed.

The flagship-cli set-up process imports widewalk.cli and builds the
flagship system, which is what every CLI process of that workload pays.
"""
from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", default=None, help="write spans here as JSON lines")
    args = ap.parse_args()

    import widewalk

    if not Path(widewalk.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: widewalk imported from {widewalk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    inp = workloads.inputs(args.workload, args.seed)
    if args.workload == "flagship-cli":
        from widewalk.cli import ReplacementSystem, WalkParams, build_aghp, build_complete_selfloop

        ReplacementSystem(build_complete_selfloop(2), build_aghp(10, 5), WalkParams(2, 5, 5))
        ctx = {}
    else:
        ctx = workloads.setup(widewalk, inp)
    result = {"setup_end": time.monotonic()}
    if not args.setup_only:
        refs = workloads.load_references()
        outputs = [(job, out, None, 0.0) for job, out in workloads.setup_outputs(ctx)]
        for job, thunk in workloads.jobs(widewalk, ctx, inp):
            t0 = time.perf_counter()
            try:
                out, err = thunk(), None
            except Exception as e:  # a raising job is a failed job, the round goes on
                out, err = None, f"{type(e).__name__}: {e}"
            outputs.append((job, out, err, time.perf_counter() - t0))
        result["last_verdict"] = time.monotonic()
        ru = resource.getrusage(resource.RUSAGE_SELF)
        result["cpu_s"] = ru.ru_utime + ru.ru_stime
        result["peak_rss_mb"] = ru.ru_maxrss / 1024
        result["jobs"] = []
        for job, out, err, seconds in outputs:
            if err is None:
                try:
                    failures = workloads.check(job, out, inp, refs, ctx)
                except Exception as e:  # malformed output
                    failures = [f"check raised {type(e).__name__}: {e}"]
            else:
                failures = [err]
            result["jobs"].append({"job": job, "seconds": seconds, "failures": failures})
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
