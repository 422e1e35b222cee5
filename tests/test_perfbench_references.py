"""The benchmark's jobs against its pinned references: perfbench/workloads.py
runs the public calls of each part and judges each output with
workloads.check against references.json, and judges each flagship CLI run
with workloads.check_cli, so a change to those calls or to the CLI's output
that the benchmark would count as a failed job fails here first.  perfbench
is loaded from its file and never changed."""

import importlib.util
import json
from pathlib import Path

import widewalk
from widewalk.cli import main

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def check_part(wl, refs, seed: int, part: str) -> list[str]:
    """Run the jobs of one part of inprocess-exact for one seed, in run
    order, after its checked set-up outputs, assert that workloads.check
    finds no failure, and return their names."""
    inp = wl.inputs("inprocess-exact", seed)
    ctx = wl.setup(widewalk, inp)
    names = []
    outputs = wl.setup_outputs(ctx) + [(job, thunk()) for job, thunk in wl.jobs(widewalk, ctx, inp)
                                       if job.startswith(part + "/")]
    for job, out in outputs:
        if job.startswith(part + "/"):
            assert wl.check(job, out, inp, refs, ctx) == [], (seed, job)
            names.append(job.split("/", 1)[1])
    return names


def test_enumerate_exact_jobs_match_the_references():
    wl = load_workloads()
    refs = wl.load_references()
    for seed in (0, 1, 2):
        assert check_part(wl, refs, seed, "enumerate-exact")[:2] == ["encode", "middle-start-equal"]


def test_witness_dp_jobs_match_the_references():
    # the middle-start identity takes the block shift from the system, and
    # only these jobs hold its residual and signed mean to the references
    wl = load_workloads()
    assert check_part(wl, wl.load_references(), 0, "witness-dp") == [
        "dp_gk", "base-case", "induction", "bias-lemma", "middle-start-identity"
    ]


def test_spectra_hitting_jobs_match_the_references():
    # spectrum and the hitting DP run on graphs.fwht, and the set-up
    # outputs are the two AGHP graphs whose generator digests are pinned
    wl = load_workloads()
    assert check_part(wl, wl.load_references(), 0, "spectra-hitting") == [
        "build-aghp20", "build-aghp10", "spectrum-aghp20", "hitting", "arithmetic"
    ]


def test_flagship_cli_jobs_match_the_references(tmp_path, monkeypatch, capsys):
    # the six CLI jobs of flagship-cli for every support, run in-process
    # from a directory that holds the benchmark's config and base code, so
    # the echoed paths are the ones the pinned digests were taken with
    wl = load_workloads()
    refs = wl.load_references()
    (tmp_path / "config.json").write_text(json.dumps(wl.FLAGSHIP_CONFIG))
    (tmp_path / "base.json").write_text(json.dumps(wl.FLAGSHIP_BASE))
    monkeypatch.chdir(tmp_path)
    for support in wl.FLAGSHIP_SUPPORTS:
        runs = {}
        for job, argv in wl.flagship_commands(support):
            capsys.readouterr()
            code = main(argv)
            runs[job] = code, capsys.readouterr().out.encode()
        plain = runs["code-report"][1]
        for job, (code, stdout) in runs.items():
            assert wl.check_cli(job, code, stdout, support, refs, plain) == [], (support, job)
