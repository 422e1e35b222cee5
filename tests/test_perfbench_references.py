"""The benchmark's enumerate-exact jobs against its pinned references:
perfbench/workloads.py runs encode and the exact distribution checks and
judges each output with workloads.check against references.json, so a
change to those calls that the benchmark would count as a failed job fails
here first.  perfbench is loaded from its file and never changed."""

import importlib.util
from pathlib import Path

import widewalk

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
PART = "enumerate-exact"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_enumerate_exact_jobs_match_the_references():
    wl = load_workloads()
    refs = wl.load_references()
    for seed in (0, 1, 2):
        inp = wl.inputs("inprocess-exact", seed)
        ctx = wl.setup(widewalk, inp)
        jobs = [(job, thunk) for job, thunk in wl.jobs(widewalk, ctx, inp)
                if job.startswith(PART + "/")]
        assert [job for job, _ in jobs][:2] == [f"{PART}/encode", f"{PART}/middle-start-equal"]
        for job, thunk in jobs:
            assert wl.check(job, thunk(), inp, refs, ctx) == [], (seed, job)
