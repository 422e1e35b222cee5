"""Tests of the benchmark itself: its correctness gate is not vacuous, the
seed picks the free inputs, and self time is computed as documented.

    python3 -m pytest perfbench/test_gate.py

Each gate test feeds a check a correct output (no failure) and the same
output with one defect (a failure, which the run counts in error_rate).
One test runs the whole flagship-cli workload on a copy of src/ whose CLI
returns a wrong exit code and expects the run to report failed jobs.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import widewalk as ww  # noqa: E402

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFS = workloads.load_references()


def test_seeds_pick_different_free_inputs():
    assert workloads.inputs("flagship-cli", 1) != workloads.inputs("flagship-cli", 2)
    one, two = workloads.inputs("inprocess-exact", 1), workloads.inputs("inprocess-exact", 2)
    assert one == workloads.inputs("inprocess-exact", 1)
    for part in workloads.PARTS:
        assert one[part] != two[part]
    assert workloads.inputs("inprocess-exact", 0)["witness-dp"]["support"] == [0, 1, 2]
    assert workloads.inputs("flagship-cli", 0)["support"] == "0,1"


def test_every_seed_selectable_input_is_pinned():
    assert set(REFS["flagship-cli"]) == set(workloads.FLAGSHIP_SUPPORTS)
    assert set(REFS["witness-dp"]) == {workloads.witness_key(s) for s in workloads.WITNESS_SUBSETS}
    assert set(REFS["enumerate-exact"]["encode_sha256"]) == {str(x) for x in workloads.MESSAGES}


def test_flipped_encode_bit_is_a_failure():
    ctx = {"enumerate-exact": workloads.setup_part(ww, "enumerate-exact", {})}
    bits = ww.code.encode(ctx["enumerate-exact"]["amplified"], 2)
    inp = {"enumerate-exact": {"message": 2}}
    assert workloads.check("enumerate-exact/encode", bits, inp, REFS, ctx) == []
    bits[123457] ^= 1
    assert workloads.check("enumerate-exact/encode", bits, inp, REFS, ctx)


def test_nonzero_tv_is_compared_exactly():
    out = ww.walks.DistributionCheck(False, float(Fraction(1, 16)), float(Fraction(1, 16)))
    inp = {"enumerate-exact": {}}
    check = lambda o: workloads.check("enumerate-exact/pseudorandomness-k4", o, inp, REFS, {})
    assert check(out) == []
    assert check(replace(out, tv_distance=np.nextafter(out.tv_distance, 1.0)))
    assert workloads.check("enumerate-exact/pseudorandomness-k3", out, inp, REFS, {})


def _witness(job, out):
    inp = {"witness-dp": {"support": [0, 1, 2]}}
    return workloads.check(f"witness-dp/{job}", out, inp, REFS, {})


def test_perturbed_eps_is_a_failure():
    ref = REFS["witness-dp"]["0,1,2"]
    tables = [ww.amplify.DpTable(np.full((8, 4), e), k, "g") for k, e in enumerate(ref["eps"])]
    assert _witness("dp_gk", tables) == []
    bumped = tables[:]
    bumped[4] = ww.amplify.DpTable(tables[4].values * (1 + 1e-6), 4, "g")
    assert _witness("dp_gk", bumped)

    rows = [ww.amplify.LevelRow(k, ref["eps"][k], 0.0, 1.0, 1.0, True, False) for k in range(6)]
    report = ww.amplify.MomentReport("base-case", 0.375, 0.25, True, "", rows)
    assert _witness("base-case", report) == []
    for bad in (ref["eps"][3] * (1 + 1e-6), 0.0):
        rows_bad = rows[:3] + [replace(rows[3], epsilon=bad)] + rows[4:]
        assert _witness("base-case", replace(report, rows=rows_bad))
    assert _witness("base-case", replace(report, hypotheses_met=False))
    assert _witness("base-case", replace(report, lam=0.375 + 1e-12))

    ident = ww.amplify.IdentityCheck(True, 0.0, ref["signed_mean"], ref["signed_mean"])
    assert _witness("middle-start-identity", ident) == []
    assert _witness("middle-start-identity", replace(ident, residual=2e-9))
    assert _witness("middle-start-identity", replace(ident, direct=ref["signed_mean"] * 1.001))


def test_wrong_exit_code_and_changed_output_are_failures():
    run.prepare_work_dir()
    support = "0,3"
    outs = {}
    for job, argv in workloads.flagship_commands(support):
        if job in ("verify-base-case", "code-report", "code-report-workers2"):
            child = run.Child([sys.executable, "-m", "widewalk.cli", *argv],
                              run.WORK / "flagship", run.child_env())
            outs[job] = child
    base = outs["verify-base-case"]
    assert workloads.check_cli("verify-base-case", base.exit, base.stdout, support, REFS) == []
    assert workloads.check_cli("verify-base-case", 1, base.stdout, support, REFS)
    assert workloads.check_cli("verify-base-case", 0, base.stdout.replace(b"true", b"false", 1),
                               support, REFS)
    plain, two = outs["code-report"].stdout, outs["code-report-workers2"].stdout
    assert workloads.check_cli("code-report-workers2", 0, two, support, REFS, plain) == []
    assert workloads.check_cli("code-report-workers2", 0, two, support, REFS,
                               plain.replace(b'"k": 2', b'"k": 3'))


def test_wrong_hitting_value_is_a_failure():
    g = ww.graphs.build_aghp(10, 5)
    subset = workloads.inputs("inprocess-exact", 5)["spectra-hitting"]["subset"]
    report = ww.hitting.check_hitting(g, subset, 4)
    gens = list(g.generators)
    assert workloads.check_hitting_report(report, subset, gens, 4) == []
    row = report.rows[2]
    nudge = Fraction(1, workloads.HITTING_N * g.degree ** (row.t - 1))
    report.rows[2] = replace(row, exact=row.exact + nudge)
    assert workloads.check_hitting_report(report, subset, gens, 4)


def _copy_checkout(dest: Path, with_src: bool) -> Path:
    if dest.exists():
        shutil.rmtree(dest)
    dest.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def _run(checkout: Path, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=170)


def test_wrong_exit_code_fails_the_run():
    mutant = _copy_checkout(run.WORK / "test-mutant", with_src=True)
    cli = mutant / "src" / "widewalk" / "cli.py"
    text = cli.read_text()
    # the exit code of every verify moment report; stdout stays the same
    good = "        return EXIT_HYPOTHESES\n    return EXIT_PASS if report.all_passed else EXIT_VIOLATION\n"
    assert text.count(good) == 1
    cli.write_text(text.replace(good, "        return EXIT_HYPOTHESES\n    return EXIT_VIOLATION\n"))
    proc = _run(mutant, "flagship-cli")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    assert result["failed"] == 3 and result["attempted"] >= 6
    assert "verify-base-case: exit code 1 != 0" in proc.stdout


def test_refuses_to_run_without_sources():
    bare = _copy_checkout(run.WORK / "test-bare", with_src=False)
    proc = _run(bare, "inprocess-exact")
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_removes_the_union_of_children():
    spans = [
        {"id": 1, "parent": None, "start": 0.0, "end": 10.0},
        {"id": 2, "parent": 1, "start": 1.0, "end": 4.0},
        {"id": 3, "parent": 1, "start": 3.0, "end": 5.0},  # overlaps 2, as pool threads do
        {"id": 4, "parent": 2, "start": 1.5, "end": 2.0},
    ]
    assert tracer.self_times(spans) == pytest.approx([6.0, 2.5, 2.0, 0.5])
