"""End-to-end command-line checks: exit codes, output shapes, and
byte-level determinism.  All invocations go through main(argv)."""

import argparse
import hashlib
import json
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from widewalk import cli
from widewalk.cli import (
    EXIT_BUDGET,
    EXIT_HYPOTHESES,
    EXIT_INVALID,
    EXIT_PASS,
    EXIT_VIOLATION,
    main,
)
from widewalk.code import LinearCode
from widewalk.gf2core import hex_encode
from widewalk.graphs import CayleyGraph, build_aghp, build_complete_selfloop
from widewalk.hitting import HittingReport, HittingRow


def write_config(tmp_path, name="cfg.json", **cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def sys22_config(tmp_path):
    return write_config(tmp_path, m=2, s=2, ell=2, outer="complete", inner="aghp")


def flagship_config(tmp_path, **extra):
    return write_config(
        tmp_path, m=2, s=5, ell=5, outer="complete", inner="aghp", **extra
    )


def tiny_config(tmp_path, **extra):
    return write_config(
        tmp_path, name="tiny.json", m=1, s=2, ell=1, outer="complete", inner="aghp", **extra
    )


def skew16_graph():
    """The skew16 outer multigraph of tests/conftest.py, lambda_A = 1/8."""
    gens = np.repeat(np.arange(8), [3, 2, 2, 2, 2, 2, 2, 1])
    return CayleyGraph(dim=3, generators=gens, name="skew16", multigraph=True)


def assert_one_line_invalid(argv, capsys, prefix):
    capsys.readouterr()
    assert main(argv) == EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix)
    assert captured.err.count("\n") == 1


def test_graph_aghp_json_output(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["graph", "aghp", "--r", "4", "--ell", "2", "--out", str(out)]) == EXIT_PASS
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == 1
    assert doc["run"]["command"] == "graph aghp"
    assert doc["lambda"] == 0.75
    assert doc["lambda_exact"] == "3/4"
    # the flat payload doubles as a loadable graph file
    g = CayleyGraph.from_json(out.read_text())
    assert g.dim == 4 and g.degree == 16


def test_graph_json_streams_the_bytes_json_dumps_writes(tmp_path, capsys):
    # the generator list is written from the word array in chunks of 4096
    # words; the document must be the one json.dumps(indent=2) writes with
    # the list of scalar hex_encode strings: one, several, and an inexact
    # number of chunks, digit counts 1..7, and dims that are not a multiple of 4
    cases = [(["graph", "aghp", "--r", str(r), "--ell", str(ell)], build_aghp(r, ell))
             for r, ell in ((2, 1), (4, 2), (9, 4), (16, 8), (25, 6))]
    cases += [(["graph", "complete", "--m", str(m), *flag], build_complete_selfloop(m, not flag))
              for m, flag in ((1, []), (3, []), (13, ["--no-selfloop"]))]
    for argv, g in cases:
        capsys.readouterr()
        assert main(argv) == EXIT_PASS
        text = capsys.readouterr().out
        expected = json.loads(text)
        expected["generators"] = [hex_encode(int(w), g.dim) for w in g.generators]
        assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n", argv
        out = tmp_path / "g.json"
        assert main(argv + ["--out", str(out)]) == EXIT_PASS
        assert out.read_text() == text
        assert CayleyGraph.from_json(text) == g


def test_graph_aghp_invalid_params(capsys):
    assert main(["graph", "aghp", "--r", "4", "--ell", "3"]) == EXIT_INVALID
    assert "error:" in capsys.readouterr().err
    # dims above 62 are refused
    assert_one_line_invalid(["graph", "aghp", "--r", "70", "--ell", "1"], capsys, "error: r=70")
    # 4**16 generators are refused before anything is allocated
    assert_one_line_invalid(["graph", "aghp", "--r", "32", "--ell", "16"], capsys, "error: ell=16")
    assert_one_line_invalid(["graph", "aghp", "--r", "40", "--ell", "17"], capsys,
                            "error: no baked-in modulus for ell=17")


def test_graph_complete_csv(capsys):
    assert main(["graph", "complete", "--m", "2", "--format", "csv"]) == EXIT_PASS
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("# {")
    json.loads(lines[0][2:])  # config echo must parse
    assert lines[1] == "name,dim,degree,lambda"
    assert lines[2].endswith(",0.0")


def test_graph_spectrum(tmp_path, capsys):
    gpath = tmp_path / "k16.json"
    main(["graph", "complete", "--m", "4", "--no-selfloop", "--out", str(gpath)])
    assert main(["graph", "spectrum", str(gpath)]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["lambda_exact"] == "1/15"
    assert doc["report"]["method"] == "character-sum"
    assert main(["graph", "spectrum", str(tmp_path / "absent.json")]) == EXIT_INVALID


def test_verify_pseudorandomness_pass(tmp_path, capsys):
    cfg = sys22_config(tmp_path)
    assert main(["verify", "pseudorandomness", "--config", cfg]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    rows = doc["report"]["rows"]
    assert [r["k"] for r in rows] == [1, 2, 3]
    assert all(r["tv"] == 0.0 for r in rows)


def test_verify_pseudorandomness_detects_gap(tmp_path, capsys):
    # one vertex past the window the walk is measurably non-uniform:
    # the command reports it as a violation
    cfg = sys22_config(tmp_path)
    assert main(
        ["verify", "pseudorandomness", "--config", cfg, "--kmax", "4"]
    ) == EXIT_VIOLATION
    doc = json.loads(capsys.readouterr().out)
    assert abs(doc["report"]["rows"][-1]["tv"] - 0.0625) <= 1e-12


def test_inner_degree_other_than_four_to_the_ell_is_invalid_input(tmp_path, capsys):
    # a degree-16 inner graph at ell = 1 used to pass "equal" after walking
    # only its first 4 generators, and a degree-4 one at ell = 2 died with
    # an IndexError traceback
    for inner, ell in ((build_complete_selfloop(4), 1), (build_aghp(4, 1), 2)):
        graph = tmp_path / f"inner{ell}.json"
        graph.write_text(inner.to_json())
        cfg = write_config(tmp_path, m=2, s=2, ell=ell, inner=str(graph))
        prefix = f"error: inner degree {inner.degree} != 4**ell = {4 ** ell}"
        for command in ("pseudorandomness", "base-case"):
            assert_one_line_invalid(["verify", command, "--config", cfg], capsys, prefix)


def test_verify_pseudorandomness_budget(tmp_path, capsys):
    cfg = sys22_config(tmp_path)
    assert main(
        ["verify", "pseudorandomness", "--config", cfg, "--budget", "10"]
    ) == EXIT_BUDGET


def test_verify_uniformity(tmp_path, capsys):
    cfg = sys22_config(tmp_path)
    assert main(["verify", "uniformity", "--config", cfg]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert [r["k"] for r in doc["report"]["rows"]] == [1, 2]
    # k beyond s is a usage error, not a violation
    assert main(["verify", "uniformity", "--config", cfg, "--kmax", "3"]) == EXIT_INVALID


def test_verify_base_case(tmp_path, capsys):
    cfg = flagship_config(tmp_path)
    assert main(["verify", "base-case", "--config", cfg]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["all_passed"] is True
    assert doc["run"]["system"]["support"] == "balanced"
    assert len(doc["report"]["rows"]) == 6


def test_verify_base_case_hypotheses_unmet(tmp_path, capsys):
    # constant f has bias 1 > lambda_B: no assertion is made
    cfg = flagship_config(tmp_path)
    assert main(
        ["verify", "base-case", "--config", cfg, "--support", "empty"]
    ) == EXIT_HYPOTHESES
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["hypotheses_met"] is False
    assert doc["report"]["rows"] == []


def test_skew16_system_fails_only_the_lambda_a_hypothesis(tmp_path, capsys):
    # the outer graph's expansion enters a verdict: lambda_A = 1/8 is met
    # under lambda_B = 15/32 (ell = 5) and is the one unmet hypothesis
    # under lambda_B = 15/64 (ell = 6), where f is balanced
    (tmp_path / "skew16.json").write_text(skew16_graph().to_json())
    outer = str(tmp_path / "skew16.json")
    for ell, support, code, detail in (
        (5, "0,1,2", EXIT_PASS, "Bias(f)=1/4 <= lambda_B=15/32; lambda_A=1/8 <= lambda_B^2=225/1024"),
        (6, "0,1,2,3", EXIT_HYPOTHESES, "Bias(f)=0 <= lambda_B=15/64; lambda_A=1/8 > lambda_B^2=225/4096"),
    ):
        cfg = write_config(tmp_path, m=4, s=4, ell=ell, outer=outer)
        assert main(["verify", "induction", "--config", cfg, "--support", support]) == code
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["hypothesis_detail"] == detail
        assert report["hypotheses_met"] is (code == EXIT_PASS)


def test_out_of_range_support_is_invalid_input(tmp_path, capsys):
    # 0xff is past the 4-vertex outer graph; -1 must not wrap to vertex 3
    cfg = flagship_config(tmp_path)
    for spec in ("ff", "-1"):
        capsys.readouterr()
        assert main(
            ["verify", "base-case", "--config", cfg, "--support", spec]
        ) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: support vertex")
        assert captured.err.count("\n") == 1


def test_an_empty_hex_list_entry_is_invalid_input(tmp_path, capsys):
    # --support "" used to run the all-zero f (bias 1) under a header echoing
    # "support": "" and exit 4: empty entries were dropped, wherever they stood
    cfg = flagship_config(tmp_path)
    for spec in ("", ",", "1,,2", "1,2,"):
        assert_one_line_invalid(["verify", "base-case", "--config", cfg, "--support", spec], capsys,
                                "error: support vertex '' is not a string of ASCII hex digits")
    assert_one_line_invalid(["verify", "induction", "--config", flagship_config(tmp_path, support="")],
                            capsys, "error: support vertex ''")
    gpath = tmp_path / "g8.json"
    gpath.write_text(build_complete_selfloop(3).to_json())
    for spec in ("", ","):
        assert_one_line_invalid(["verify", "hitting", "--graph", str(gpath), "--set", spec], capsys,
                                "error: set vertex ''")
    # whitespace around an entry is still read past
    assert main(["verify", "hitting", "--graph", str(gpath), "--set", " 1 , 2 "]) == EXIT_PASS


def test_repeated_vertices_are_invalid_input(tmp_path, capsys):
    # support 0,0 would run the f of support 0 under a header echoing "0,0",
    # and --set 1,1,2 would report rho = 2/8
    assert_one_line_invalid(["verify", "base-case", "--config", flagship_config(tmp_path),
                             "--support", "0,0"], capsys, "error: support vertex 0 is repeated")
    cfg = flagship_config(tmp_path, support="1,2,1")
    assert_one_line_invalid(["verify", "induction", "--config", cfg], capsys,
                            "error: support vertex 1 is repeated")
    gpath = tmp_path / "g8.json"
    gpath.write_text(build_complete_selfloop(3).to_json())
    assert_one_line_invalid(["verify", "hitting", "--graph", str(gpath), "--set", "1,1,2"], capsys,
                            "error: subset vertex 1 is repeated")
    assert main(["verify", "hitting", "--graph", str(gpath), "--set", "1,2"]) == EXIT_PASS
    assert json.loads(capsys.readouterr().out)["report"]["rho"] == "1/4"


def test_verify_induction(tmp_path, capsys):
    cfg = flagship_config(tmp_path)
    assert main(["verify", "induction", "--config", cfg]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["schema_version"] == 1
    assert doc["report"]["all_passed"] is True
    assert [r["k"] for r in doc["report"]["rows"]] == [6, 7, 8, 9, 10]
    assert main(["verify", "induction", "--config", cfg, "--format", "csv"]) == EXIT_PASS
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "k,epsilon,sigma,bound_eps,bound_sigma,pass,vacuous"
    assert len(lines) == 7


def test_verify_bias_lemma(tmp_path, capsys):
    cfg = flagship_config(tmp_path, t=10)
    assert main(["verify", "bias-lemma", "--config", cfg]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    row = doc["report"]["rows"][0]
    assert row["k"] == 10
    assert abs(row["bound_eps"] - 0.19140625) <= 1e-15
    # t must come from somewhere
    cfg_no_t = flagship_config(tmp_path)
    assert main(["verify", "bias-lemma", "--config", cfg_no_t]) == EXIT_INVALID


def test_verify_arithmetic(capsys):
    assert main(["verify", "arithmetic", "--kmax", "100"]) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    assert doc["report"]["all_passed"] is True
    assert len(doc["report"]["rows"]) == 20


def test_verify_arithmetic_csv_is_plain_floats(capsys):
    assert main(["verify", "arithmetic", "--kmax", "50", "--format", "csv"]) == EXIT_PASS
    out = capsys.readouterr().out
    assert "np.float64" not in out
    assert out.splitlines()[1] == "lambda,s,valid_region,pass,max_log_violation"


def test_verify_hitting(tmp_path, capsys):
    gpath = tmp_path / "k16.json"
    main(["graph", "complete", "--m", "4", "--no-selfloop", "--out", str(gpath)])
    assert main(
        ["verify", "hitting", "--graph", str(gpath), "--set", "first-4",
         "--tmax", "5", "--format", "csv"]
    ) == EXIT_PASS
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "t,exact,bound,pass"
    assert len(lines) == 7
    assert lines[2].startswith("1,0.25,0.25,True")
    assert lines[6] == "5,0.0004,0.002025,True"
    # hex-list form selects the same subset
    assert main(
        ["verify", "hitting", "--graph", str(gpath), "--set", "0,1,2,3",
         "--tmax", "5"]
    ) == EXIT_PASS
    # rho = 1: every bound is exactly 1, so no row is asserted
    capsys.readouterr()
    assert main(
        ["verify", "hitting", "--graph", str(gpath), "--set", "first-16",
         "--tmax", "3", "--format", "csv"]
    ) == EXIT_HYPOTHESES
    lines = capsys.readouterr().out.splitlines()
    assert lines[2:] == [f"{t},1.0,1.0,True" for t in (1, 2, 3)]


def test_code_gen_base_pinned_seed(tmp_path):
    out = tmp_path / "base.json"
    assert main(
        ["code", "gen-base", "--k", "8", "--n0", "64", "--target-bias", "0.28",
         "--seed", "3", "--out", str(out)]
    ) == EXIT_PASS
    base = LinearCode.from_json(out.read_text())
    assert base.measured_bias == 0.25


def test_code_gen_base_search_failure(capsys):
    assert main(
        ["code", "gen-base", "--k", "2", "--n0", "2", "--target-bias", "0",
         "--max-tries", "5"]
    ) == EXIT_VIOLATION
    assert "best found" in capsys.readouterr().err


def test_code_gen_base_negative_target_fails_at_once(capsys):
    # no code has a negative bias: one line and exit 2, not 50 tries and exit 1
    assert_one_line_invalid(
        ["code", "gen-base", "--k", "2", "--n0", "4", "--target-bias", "-0.5",
         "--max-tries", "50"],
        capsys,
        "error: target bias must be nonnegative, got -0.5",
    )


def test_code_encode(tmp_path, capsys):
    cfg = tiny_config(tmp_path, t=2)
    base_path = tmp_path / "base1.json"
    base_path.write_text(LinearCode(1, 2, [0b01]).to_json())
    assert main(
        ["code", "encode", "--config", cfg, "--base", str(base_path),
         "--message", "1"]
    ) == EXIT_PASS
    doc = json.loads(capsys.readouterr().out)
    rep = doc["report"]
    assert rep["length"] == 2 * 4 * 4
    # the embedded assignment is balanced on the 2-vertex outer graph, so
    # exactly half the walk parities are 1
    assert rep["ones"] == 16
    assert len(bytes.fromhex(rep["bits_hex"])) == 4
    # zero message encodes to the zero word
    main(["code", "encode", "--config", cfg, "--base", str(base_path), "--message", "0"])
    doc0 = json.loads(capsys.readouterr().out)
    assert doc0["report"]["ones"] == 0
    # out-of-range message
    assert main(
        ["code", "encode", "--config", cfg, "--base", str(base_path), "--message", "2"]
    ) == EXIT_INVALID


def test_code_report(tmp_path, capsys):
    # s = 2 and lambda_B = 5/8 lie outside the headline bound's region
    # (s >= 5, lambda_B < 1/2): its 0.328 is vacuous, so nothing is asserted
    cfg = write_config(tmp_path, m=3, s=2, ell=3, outer="complete", inner="aghp", t=5)
    base_path = tmp_path / "base3.json"
    base_path.write_text(LinearCode(3, 8, [0b11, 0b1100, 0b110000]).to_json())
    assert main(["code", "report", "--config", cfg, "--base", str(base_path)]) == EXIT_HYPOTHESES
    doc = json.loads(capsys.readouterr().out)
    rep = doc["report"]
    assert rep["hypotheses_met"] is True
    assert rep["bias_bound_vacuous"] is True and rep["bias_bound"] < 1
    assert abs(rep["bias"] - 0.019550323486328125) <= 1e-12
    assert rep["k"] == 3


def test_code_report_hypotheses_unmet(tmp_path, capsys):
    cfg = write_config(tmp_path, m=3, s=2, ell=3, outer="complete", inner="aghp", t=5)
    base_path = tmp_path / "allones.json"
    base_path.write_text(LinearCode(1, 8, [0xFF]).to_json())  # bias 1
    assert main(
        ["code", "report", "--config", cfg, "--base", str(base_path)]
    ) == EXIT_HYPOTHESES


def test_untabulable_inner_graph_keeps_its_exit_codes(tmp_path, capsys):
    # a 2**40-vertex inner graph: base-case's hypotheses are unmet, and the
    # enumeration of each command below exceeds the budget, so it is
    # refused before it starts
    cfg = write_config(tmp_path, m=8, s=5, ell=2)
    base_path = tmp_path / "base1.json"
    base_path.write_text(LinearCode(1, 2, [0b01]).to_json())
    assert main(["verify", "base-case", "--config", cfg]) == EXIT_INVALID
    for argv in (
        ["verify", "pseudorandomness", "--config", cfg],
        ["verify", "uniformity", "--config", cfg],
        ["code", "encode", "--config", cfg, "--base", str(base_path), "--t", "1", "--message", "1"],
    ):
        assert main(argv) == EXIT_BUDGET, argv
    assert capsys.readouterr().err.count("\n") == 4


def test_runs_are_deterministic(tmp_path):
    cfg = sys22_config(tmp_path)
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    for out in (out1, out2):
        assert main(["verify", "pseudorandomness", "--config", cfg, "--out", str(out)]) == EXIT_PASS
    assert out1.read_bytes() == out2.read_bytes()


def test_worker_count_changes_nothing_but_the_echo(tmp_path):
    # s = 2: the headline bound is vacuous, so the report exits 4
    cfg = tiny_config(tmp_path, t=3)
    base_path = tmp_path / "base1.json"
    base_path.write_text(LinearCode(1, 2, [0b01]).to_json())
    docs = []
    for workers in ("1", "3"):
        out = tmp_path / f"r{workers}.json"
        assert main(
            ["code", "report", "--config", cfg, "--base", str(base_path),
             "--workers", workers, "--out", str(out)]
        ) == EXIT_HYPOTHESES
        docs.append(json.loads(out.read_text()))
    for doc in docs:
        del doc["run"]["workers"]
    assert docs[0] == docs[1]


def test_invalid_inputs(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not json{")
    assert main(["verify", "pseudorandomness", "--config", str(bad)]) == EXIT_INVALID
    missing = str(tmp_path / "absent.json")
    assert main(["verify", "pseudorandomness", "--config", missing]) == EXIT_INVALID
    # argparse-level rejection uses the same invalid-input code and one line
    assert_one_line_invalid(["bogus"], capsys, "error: widewalk: argument command: invalid choice")
    assert_one_line_invalid(
        ["verify"], capsys, "error: widewalk verify: the following arguments are required"
    )
    # well-formed JSON that is not an object, and a negative budget
    bad.write_text("[1, 2]")
    assert_one_line_invalid(["verify", "uniformity", "--config", str(bad)], capsys, "error: config")
    cfg = tiny_config(tmp_path, t=2)
    base_path = tmp_path / "base1.json"
    base_path.write_text("[1, 2]")
    encode_argv = ["code", "encode", "--config", cfg, "--base", str(base_path), "--message", "1"]
    assert_one_line_invalid(encode_argv, capsys, "error: a base code")
    base_path.write_text("not json{")
    assert_one_line_invalid(encode_argv, capsys, "error: Expecting value: line 1 column 1 (char 0)")
    base_path.write_text(LinearCode(1, 2, [0b01]).to_json())
    assert_one_line_invalid(encode_argv + ["--budget", "-1"], capsys, "error: --budget")
    # config fields of the wrong JSON type; floats and bools are not integers
    good = {"m": 1, "s": 2, "ell": 1, "t": 2}
    for field, value in (("m", None), ("m", 2.7), ("m", True), ("t", "2"),
                         ("outer", 7), ("inner", None), ("support", 5)):
        bad.write_text(json.dumps({**good, field: value}))
        argv = ["code", "encode", "--config", str(bad), "--base", str(base_path), "--message", "1"]
        assert_one_line_invalid(argv, capsys, f"error: field '{field}'")
    # a misspelt config field is refused, not read as absent
    bad.write_text(json.dumps({"m": 2, "s": 5, "ell": 5, "t": 20, "suport": "0,1"}))
    assert_one_line_invalid(["verify", "bias-lemma", "--config", str(bad)], capsys,
                            "error: unknown config field 'suport'")
    # graph files: a field of the wrong type, and a graph that is not an object
    gpath = tmp_path / "g.json"
    spectrum_argv = ["graph", "spectrum", str(gpath)]
    hitting_argv = ["verify", "hitting", "--graph", str(gpath), "--set", "first-1"]
    for field, payload, argvs in (
        ("dim", {"dim": None, "generators": ["0"]}, [spectrum_argv]),
        ("generators", {"dim": 1, "generators": 5}, [spectrum_argv, hitting_argv]),
        ("multigraph", {"dim": 1, "generators": ["1"], "multigraph": 1}, [spectrum_argv]),
    ):
        gpath.write_text(json.dumps(payload))
        for argv in argvs:
            assert_one_line_invalid(argv, capsys, f"error: field '{field}'")
    gpath.write_text("[]")
    assert_one_line_invalid(spectrum_argv, capsys, "error: a graph")
    # the spectrum has one method, the exact character sums; the dense
    # eigensolver is the tests' reference, not an option
    gpath.write_text(build_complete_selfloop(4, selfloop=False).to_json())
    assert_one_line_invalid(spectrum_argv + ["--method", "dense-eigen"], capsys,
                            "error: widewalk: unrecognized arguments: --method dense-eigen")
    # words wider than 62 bits are refused by dim, not by an overflow
    gpath.write_text(json.dumps({"dim": 70, "generators": ["0" * 17 + "2"]}))
    assert_one_line_invalid(spectrum_argv, capsys, "error: dim must be in 1..62")
    # 2**40 complete-graph generators are refused before anything is allocated
    bad.write_text(json.dumps({**good, "m": 40}))
    argv = ["code", "encode", "--config", str(bad), "--base", str(base_path), "--message", "1"]
    assert_one_line_invalid(argv, capsys, "error: m=40")
    assert_one_line_invalid(["graph", "complete", "--m", "40"], capsys, "error: m=40")
    # base code fields of the wrong type
    for field, value in (("k", None), ("rows", "1"), ("bias", "0.0")):
        base_path.write_text(json.dumps({"k": 1, "n0": 2, "rows": ["1"], field: value}))
        assert_one_line_invalid(encode_argv, capsys, f"error: field '{field}'")
    # the arithmetic grid: no s below 1, no nonpositive or non-finite lambda,
    # and kmax above every s
    arithmetic = ["verify", "arithmetic"]
    for flag, value, prefix in (
        ("--s-values", "0", "error: s=0 must be at least 1"),
        ("--s-values", "5,-3", "error: s=-3 must be at least 1"),
        ("--lambdas", "nan", "error: lambda must be positive and finite, got nan"),
        ("--lambdas", "inf", "error: lambda must be positive and finite, got inf"),
        ("--lambdas", "0", "error: lambda must be positive and finite, got 0.0"),
        ("--lambdas", "-1", "error: lambda must be positive and finite, got -1.0"),
        ("--kmax", "3", "error: s=5 must be at least 1 and below kmax=3"),
        ("--kmax", "32", "error: s=32 must be at least 1 and below kmax=32"),
        # every comma list refuses an empty entry, as the hex lists do
        ("--lambdas", "", "error: '' is not an ASCII decimal float"),
        ("--s-values", ",", "error: '' is not an ASCII decimal int"),
        # decimals are ASCII only: no Arabic-Indic digits, no "_" separators
        ("--s-values", "\u0668,1_6", "error: '\u0668' is not an ASCII decimal int"),
        ("--s-values", "8,1_6", "error: '1_6' is not an ASCII decimal int"),
        ("--lambdas", "\uff10.1", "error: '\uff10.1' is not an ASCII decimal float"),
    ):
        assert_one_line_invalid(arithmetic + [flag, value], capsys, prefix)
    gpath.write_text(build_complete_selfloop(4).to_json())
    assert_one_line_invalid(
        ["verify", "hitting", "--graph", str(gpath), "--set", "first-\u0663"],
        capsys,
        "error: '\u0663' is not an ASCII decimal int",
    )
    for count in (0, 17):
        assert_one_line_invalid(
            ["verify", "hitting", "--graph", str(gpath), "--set", f"first-{count}"],
            capsys,
            f"error: first-{count} out of range for 16 vertices",
        )
    # an empty range of levels is refused, not passed with no rows
    hitting = ["verify", "hitting", "--graph", str(gpath), "--set", "first-1", "--tmax"]
    for argv, prefix in (
        (hitting + ["0"], "error: tmax must be at least 1, got 0"),
        (hitting + ["-3"], "error: tmax must be at least 1, got -3"),
        (["verify", "pseudorandomness", "--config", cfg, "--kmax", "0"],
         "error: --kmax must be at least 1, got 0"),
        (["verify", "uniformity", "--config", cfg, "--kmax", "0"],
         "error: --kmax must be at least 1, got 0"),
        # an argument error, even where the hypotheses are unmet (bias 1)
        (["verify", "induction", "--config", flagship_config(tmp_path), "--kmax", "3",
          "--support", "empty"], "error: kmax must exceed s=5"),
    ):
        assert_one_line_invalid(argv, capsys, prefix)
    # bad option values are refused by argparse, in one line without its usage
    for argv, flag in (
        (["graph", "complete", "--m", "x"], "--m"),
        (["graph", "complete", "--m", "\u0663"], "--m"),
        (["graph", "aghp", "--r", "1_0", "--ell", "2"], "--r"),
        (["verify", "arithmetic", "--kmax", "2_00"], "--kmax"),
        (["code", "gen-base", "--k", "1", "--n0", "2", "--target-bias", "\uff10.5"], "--target-bias"),
    ):
        prefix = f"error: widewalk {argv[0]} {argv[1]}: argument {flag}: invalid"
        assert_one_line_invalid(argv, capsys, prefix)
    # a base-code search with no tries is an argument error; one whose k * n0
    # drawn bits exceed the budget is refused before anything is drawn
    gen_base = ["code", "gen-base", "--k", "2", "--target-bias", "0.5"]
    assert_one_line_invalid(gen_base + ["--n0", "8", "--max-tries", "0"], capsys,
                            "error: max_tries must be at least 1, got 0")
    assert main(gen_base + ["--n0", "3000000000"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: enumeration needs 9000000000 items")
    # one try at k = 16 scans 65535 codewords of n0 bits, past the default budget
    assert main(["code", "gen-base", "--k", "16", "--n0", "8192", "--target-bias", "1",
                 "--max-tries", "1"]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("error: enumeration needs 536862720 items")
    # --help still prints the usage to stdout and exits 0
    assert main(["graph", "complete", "--help"]) == EXIT_PASS
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: widewalk graph complete") and captured.err == ""


def test_hex_inputs_are_ascii_digits_only(tmp_path, capsys):
    cfg = flagship_config(tmp_path, t=1)
    base_path = tmp_path / "base.json"
    # "\u0663" is ARABIC-INDIC DIGIT THREE, which int(ch, 16) reads as 3
    base_path.write_text(json.dumps({"k": 1, "n0": 2, "rows": ["\u0663"]}))
    report_argv = ["code", "report", "--config", cfg, "--base", str(base_path)]
    assert_one_line_invalid(report_argv, capsys, "error: word")
    base_path.write_text(LinearCode(1, 2, [0b01]).to_json())
    encode_argv = ["code", "encode", "--config", cfg, "--base", str(base_path)]
    assert_one_line_invalid(encode_argv + ["--message", "0x1"], capsys, "error: message '0x1'")
    assert_one_line_invalid(
        ["verify", "base-case", "--config", cfg, "--support", "0x1"],
        capsys,
        "error: support vertex '0x1'",
    )
    gpath = tmp_path / "k16.json"
    main(["graph", "complete", "--m", "4", "--no-selfloop", "--out", str(gpath)])
    assert_one_line_invalid(
        ["verify", "hitting", "--graph", str(gpath), "--set", "1_0"],
        capsys,
        "error: set vertex '1_0'",
    )


# Every subcommand in both formats on small instances.  The digests were
# taken from the CLI that wrote each command's CSV by hand, before CSV rows
# came from the JSON rows.  Paths are relative, so the run header echoes
# the same bytes in every directory.
_PINNED_CASES = {
    "graph-aghp": (["graph", "aghp", "--r", "4", "--ell", "2"], EXIT_PASS),
    "graph-aghp-unscanned": (["graph", "aghp", "--r", "25", "--ell", "1"], EXIT_PASS),
    "graph-complete": (["graph", "complete", "--m", "2"], EXIT_PASS),
    "graph-complete-noloop": (["graph", "complete", "--m", "3", "--no-selfloop"], EXIT_PASS),
    "graph-spectrum": (["graph", "spectrum", "k16.json"], EXIT_PASS),
    "verify-pseudorandomness": (
        ["verify", "pseudorandomness", "--config", "sys22.json"], EXIT_PASS),
    "verify-pseudorandomness-gap": (
        ["verify", "pseudorandomness", "--config", "sys22.json", "--kmax", "4"],
        EXIT_VIOLATION),
    "verify-uniformity": (["verify", "uniformity", "--config", "sys22.json"], EXIT_PASS),
    "verify-base-case": (["verify", "base-case", "--config", "flag.json"], EXIT_PASS),
    "verify-base-case-unmet": (
        ["verify", "base-case", "--config", "flag.json", "--support", "empty"],
        EXIT_HYPOTHESES),
    "verify-induction": (
        ["verify", "induction", "--config", "flag.json", "--kmax", "7"], EXIT_PASS),
    # lambda_A = 1/8 > 0 on the skew16 outer multigraph (see _write_pinned_inputs);
    # every base-case sigma bound is at least 1 there, so nothing is asserted
    "verify-base-case-skew16": (
        ["verify", "base-case", "--config", "skew.json"], EXIT_HYPOTHESES),
    "verify-induction-skew16": (["verify", "induction", "--config", "skew.json"], EXIT_PASS),
    # balanced f: eps_k > 0 at every odd k, asserted from k = 6 on
    "verify-induction-skew16-balanced": (
        ["verify", "induction", "--config", "skew.json", "--kmax", "12", "--support", "0,1,2,4"],
        EXIT_PASS),
    # the witness, lambda_B = 3/8: every asserted eps_k > 0
    "verify-base-case-witness": (
        ["verify", "base-case", "--config", "witness.json", "--support", "0,1,2"], EXIT_PASS),
    "verify-induction-witness": (
        ["verify", "induction", "--config", "witness.json", "--kmax", "10", "--support", "0,1,2"],
        EXIT_PASS),
    "verify-bias-lemma-witness": (
        ["verify", "bias-lemma", "--config", "witness.json", "--t", "10", "--support", "0,1,2"],
        EXIT_PASS),
    # lambda_B = 15/64, so only lambda_A <= lambda_B^2 fails (the bias is 0)
    "verify-induction-skew16-unmet": (
        ["verify", "induction", "--config", "skew-l6.json", "--support", "0,1,2,3"],
        EXIT_HYPOTHESES),
    "verify-bias-lemma": (["verify", "bias-lemma", "--config", "flag.json"], EXIT_PASS),
    "verify-arithmetic": (["verify", "arithmetic"], EXIT_PASS),
    # no grid point in the validity region, so nothing is asserted; this
    # exit code is the one case that changed (it was 0), its stdout did not
    "verify-arithmetic-outside-region": (
        ["verify", "arithmetic", "--lambdas", "0.3"], EXIT_HYPOTHESES),
    "verify-hitting": (
        ["verify", "hitting", "--graph", "k16.json", "--set", "first-4", "--tmax", "5"],
        EXIT_PASS),
    "code-gen-base": (
        ["code", "gen-base", "--k", "4", "--n0", "16", "--target-bias", "0.5",
         "--seed", "3"], EXIT_PASS),
    "code-encode": (
        ["code", "encode", "--config", "tiny.json", "--base", "base1.json",
         "--message", "1"], EXIT_PASS),
    # s = 2: the headline bound is vacuous, so nothing is asserted
    "code-report": (
        ["code", "report", "--config", "m3.json", "--base", "base3.json"], EXIT_HYPOTHESES),
    "code-report-unmet": (
        ["code", "report", "--config", "m3.json", "--base", "allones.json"],
        EXIT_HYPOTHESES),
}

_PINNED_SHA256 = {
    ("code-encode", "json"):
        "5321f3b1c4e7e82a876c9536647c523abfdb6229f4df48aef037d0f210cd34d8",
    ("code-encode", "csv"):
        "2653dd3d68574314a3f623cd595044624fe5fcb33b4273916d96255c909bc1e8",
    ("code-gen-base", "json"):
        "ee8c914eca187a203804f4c1c99ecaa326581195b83c45e18123a19038e71eb9",
    ("code-gen-base", "csv"):
        "c74ae88cf8bf13ab4c1bf23f7f33177c8636f521166966c6e7b1db6a8cf68210",
    ("code-report", "json"):
        "737f5ac8013fd92d5fee71524ce085ac93bd4e7bc0b48c662c55b35a857d2e68",
    ("code-report", "csv"):
        "d8b8777a754224a290776780027440cae8107bbe501519c9a5529141bc21fcf9",
    ("code-report-unmet", "json"):
        "860ab6389f01080b3606e044a239ce0312b9bb8c817bb681bb1d159f0c4c071d",
    ("code-report-unmet", "csv"):
        "31e069e679b6b3444bd58e9368ea383b7c0eddaad8c618d64614700ff95ca947",
    ("graph-aghp", "json"):
        "4e198a0b86ea566fa1da0d016c88e6ece46e6478eb940618fbf5efbf386dd919",
    ("graph-aghp", "csv"):
        "b9c4e4e6a26b0b5338db71e7ddabc285366fd38f6a78b43a06c6b3e533da0a64",
    ("graph-aghp-unscanned", "json"):
        "617961b8ef21c062423a5d46b5677b9ef10f9c198ec27733319dcf1046489297",
    ("graph-aghp-unscanned", "csv"):
        "2dd204d8adabda1d1875152e3ecca079bfb9ff95f1ae86316bcebfbe5cec895a",
    ("graph-complete", "json"):
        "a04255f4f4eb3abebbaefcf09b1cb42522f9ff0b2f126efc3b88c4c73b0bdc0c",
    ("graph-complete", "csv"):
        "b6bfc8830a348105790a43002bdcf55c0810001ada669c6c341114eb0301be84",
    ("graph-complete-noloop", "json"):
        "5a134349f39f2a74cae6c24070a8e92950fbfad7ddaa62861f02412734d67a9e",
    ("graph-complete-noloop", "csv"):
        "f36a8ffe827574e70d6c6cc1488291f7140c10f8e9c5745dcd08cb6ce3ef9d94",
    ("graph-spectrum", "json"):
        "b4ebf05e3658b6a0ce6fe833b20698333547e833c7b498d7cd93077f225c9aed",
    ("graph-spectrum", "csv"):
        "075e9a3f006744e1d15797a72528fc7c5aa6d1bdac44a788af326ccc7d9a068c",
    ("verify-arithmetic-outside-region", "json"):
        "d6b2a1153b1c30696bd964fd29c4737b0f28f31e6ba96253da8cc31adff8bb31",
    ("verify-arithmetic-outside-region", "csv"):
        "7d1fae4132eda820a2adb644d8344213223d6ce9b7fbf23bf8d764cbc80aec94",
    ("verify-arithmetic", "json"):
        "0adb73beb79958f46c33ec6bb7424643a619d683b377be62055e74eed733f91a",
    ("verify-arithmetic", "csv"):
        "a6a61f081e76e599b834fd07463219f266942ac113b8c577979bc16e3b041428",
    ("verify-base-case", "json"):
        "ed95a40571064f584190964cce5a2ab50a6d8c10a1c2b545be5f977dd7578a94",
    ("verify-base-case", "csv"):
        "2ac9af2882701d7cc134901f15e119e27aa3f70f5baa059f8fb3557da164d7f4",
    ("verify-base-case-unmet", "json"):
        "594a154cce5504196d88bb50d3c432777d591404f949b6319da36644f9585875",
    ("verify-base-case-unmet", "csv"):
        "eb0b2af7c5524d77f0a6e0816cddf545fec99507b34b72758656f78397653aaa",
    ("verify-bias-lemma", "json"):
        "fc13ab984ccee92aa4a042e8a688b6006e4a7f6d70f9b351ea6876a1c1f16171",
    ("verify-bias-lemma", "csv"):
        "583256cb7fcca9abd1400c543f244a59efab921b445b1f8f1a83c1c6d10aadee",
    ("verify-hitting", "json"):
        "11569b134aafde524cfb2b2a8ca7352c75a8dbd988b5a9d4386ed8b944ae7379",
    ("verify-hitting", "csv"):
        "6e7d07f1c579cd64ded5af87538cba9b1cb8d66058a415deaa1c24fc3945f01e",
    ("verify-induction", "json"):
        "07cc79c4bd6ea2bbf04d66bb4a9e6c35caa595f5737cd93a0398f6802a06a60d",
    ("verify-induction", "csv"):
        "d9a6631a32f1afa7022aee650d28a03d71ef67973a5fbe2972c54f745310492b",
    ("verify-base-case-skew16", "json"):
        "1ad050d597844a1d88960c28ef645b75a19f21ed6f6a652e1ae8ada8ef3fd605",
    ("verify-base-case-skew16", "csv"):
        "afd65cc932df3a904dfc4fede17de784631a2dca3d0f0e29b2711f2c3c237a5d",
    ("verify-induction-skew16", "json"):
        "33db9c43ab8627e31ac3f62dfe75d156d7c8bf4ddda7a67592a47b99446c9e73",
    ("verify-induction-skew16", "csv"):
        "dc02e48f991d8b7a08749e97ea6fa7e773053370c3c012bac61d6801d5c3af18",
    ("verify-induction-skew16-balanced", "json"):
        "df7ee25c5f3939240fa00a3e3c50945cc84ea89f477d3bb7980b7bad57faf9b7",
    ("verify-induction-skew16-balanced", "csv"):
        "da37a5d18e09799230f2162aab6280ddaba408f1c12152bdb176cb1f7afebab2",
    ("verify-base-case-witness", "json"):
        "80f535e02e03145caafb0f4c355aabf3ccbcbd2021e64d8d9f22d440ae4eef06",
    ("verify-base-case-witness", "csv"):
        "6e45dd1060abfb102bb09c20ce3a303c98329aee8991eaf364ebaea978e2b1ce",
    ("verify-induction-witness", "json"):
        "3df9b6c7989d326981ad9eb31ac410d010f01cc174ecf23df8596c1c4841858d",
    ("verify-induction-witness", "csv"):
        "cf4a8a3c4ebeb9df7c3bb817a7bd3987ab75b6dcb703b9fc16ed56a4fd38a57b",
    ("verify-bias-lemma-witness", "json"):
        "330443adc2f86a3b16b6c42e172134de31988804cbfc6b460d05778b6a8fbd67",
    ("verify-bias-lemma-witness", "csv"):
        "ecfef5e1f9c0a4295eb9e6528acbf15a81b8f955a833c5a2281ccaf0a18d840e",
    ("verify-induction-skew16-unmet", "json"):
        "9873bec19242e362ffea267b0a254c03a8919fdcf9d8fc3c83d5f9a3878607ad",
    ("verify-induction-skew16-unmet", "csv"):
        "1b3bd1ccc0d9838ca738c4f48662b95a256d910d3f577d319745db8f3b94b01f",
    ("verify-pseudorandomness", "json"):
        "587d9c252ebb535243f76f5a83057b9c9b85399bd78194d0b8a2508945d8b878",
    ("verify-pseudorandomness", "csv"):
        "bbb394fa2a66b1a518b4d9f52f238c6274e574704e7720cdcc5ebe338bd69078",
    ("verify-pseudorandomness-gap", "json"):
        "05937f9945addf22c53ac1116639061bef1cb900518368d937678b4a397c7ad9",
    ("verify-pseudorandomness-gap", "csv"):
        "2a622b416b905cd6c7a3c98197611a44ca1846baeea146dd293fd2a6f1112d2d",
    ("verify-uniformity", "json"):
        "bac88e7a0ed3bb1753781f6c0c03b7cc41ee6424b576f49a891833024e5100b5",
    ("verify-uniformity", "csv"):
        "c0b821504fb31df64b9e037257114a7eb5e042fcfb9865774ba35bf1c6922480",
}


def _write_pinned_inputs(directory) -> None:
    for name, cfg in (
        ("sys22.json", {"m": 2, "s": 2, "ell": 2}),
        ("flag.json", {"m": 2, "s": 5, "ell": 5, "t": 10}),
        ("witness.json", {"m": 3, "s": 5, "ell": 5}),
        ("tiny.json", {"m": 1, "s": 2, "ell": 1, "t": 2}),
        ("m3.json", {"m": 3, "s": 2, "ell": 3, "t": 5}),
        ("skew.json", {"m": 4, "s": 4, "ell": 5, "outer": "skew16.json", "support": "0,1,2"}),
        ("skew-l6.json", {"m": 4, "s": 4, "ell": 6, "outer": "skew16.json"}),
    ):
        (directory / name).write_text(json.dumps(cfg))
    (directory / "skew16.json").write_text(skew16_graph().to_json())
    for name, code in (
        ("base1.json", LinearCode(1, 2, [0b01])),
        ("base3.json", LinearCode(3, 8, [0b11, 0b1100, 0b110000])),
        ("allones.json", LinearCode(1, 8, [0xFF])),
    ):
        (directory / name).write_text(code.to_json())
    (directory / "k16.json").write_text(build_complete_selfloop(4, selfloop=False).to_json())


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("case", sorted(_PINNED_CASES))
def test_stdout_bytes_are_pinned(tmp_path, monkeypatch, capsys, case, fmt):
    monkeypatch.chdir(tmp_path)
    _write_pinned_inputs(tmp_path)
    argv, expected_code = _PINNED_CASES[case]
    assert main(argv + ["--format", fmt]) == expected_code
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == _PINNED_SHA256[case, fmt]


@pytest.mark.parametrize("case", ["verify-induction-skew16-balanced", "verify-base-case-witness",
                                  "verify-induction-witness", "verify-bias-lemma-witness"])
def test_pins_assert_rows_that_can_fail(tmp_path, monkeypatch, capsys, case):
    # a pin whose every asserted eps is 0 checks only 0 <= bound; these
    # assert at least one row where eps > 0 stands against a bound below 1
    monkeypatch.chdir(tmp_path)
    _write_pinned_inputs(tmp_path)
    assert main(_PINNED_CASES[case][0]) == EXIT_PASS
    rows = json.loads(capsys.readouterr().out)["report"]["rows"]
    assert any(not row["vacuous"] and row["epsilon"] > 0 and row["bound_eps"] < 1 for row in rows)


def test_nothing_asserted_exits_4(tmp_path, capsys):
    # hypotheses met, but no bound below 1 (or the headline bound outside
    # s >= 5, lambda_B < 1/2): the commands exited 1 and 0 before they
    # shared one vacuity rule and one exit rule
    for cfg, command, support in (
        ({"m": 3, "s": 2, "ell": 2, "t": 3}, "bias-lemma", "0"),
        ({"m": 3, "s": 3, "ell": 1}, "base-case", "empty"),
        ({"m": 3, "s": 3, "ell": 1}, "induction", "empty"),
    ):
        path = write_config(tmp_path, **cfg)
        assert main(["verify", command, "--config", path, "--support", support]) == EXIT_HYPOTHESES
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["hypotheses_met"] is True and report["rows"]
        assert all(row["vacuous"] for row in report["rows"]), command


# Fuzzed input files: fields are missing, well typed, or any JSON value.
# Integers stay in 0..3 and every run gets --budget 4096, so each run is tiny.
_JSON_VALUES = [
    None, True, False, 0, 1, 2, 3, 0.5, 2.0, -1.5,
    "", "0", "1", "3", "zz", "0,1", "complete", "aghp", "balanced", "empty",
    [], ["0"], ["1", "3"], [1, 2], {},
]
_FIELD_KINDS = {
    "m": int, "s": int, "ell": int, "t": int, "outer": str, "inner": str, "support": str,
    "dim": int, "generators": list, "name": str, "multigraph": bool,
    "k": int, "n0": int, "rows": list, "bias": float,
}


def _well_typed(kind, value) -> bool:
    if kind is list:
        return isinstance(value, list) and all(isinstance(v, str) for v in value)
    if kind is float:
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _fuzzed_object(typical: dict):
    """A JSON object over the keys of typical: either one key set to a
    value of the wrong JSON type (the only fault), or every key
    independently dropped, kept or set to any JSON value, or every key
    kept and every integer one set to any of 1..3 (so that more runs get
    far enough to assert something)."""
    def one_wrong(key):
        wrong = [v for v in _JSON_VALUES if not _well_typed(_FIELD_KINDS[key], v)]
        return st.sampled_from(wrong).map(lambda v: {**typical, key: v})

    anything = st.sampled_from(_JSON_VALUES)
    return st.one_of(
        st.sampled_from(list(typical)).flatmap(one_wrong),
        st.fixed_dictionaries(
            {}, optional={k: st.one_of(st.just(v), anything) for k, v in typical.items()}
        ),
        st.fixed_dictionaries({k: st.integers(1, 3) if _FIELD_KINDS[k] is int else st.just(v)
                               for k, v in typical.items()}),
    )


_CFG = {"m": 1, "s": 2, "ell": 1, "t": 2, "outer": "complete", "inner": "aghp", "support": "0"}
_GRAPH = {"dim": 2, "generators": ["1", "2", "3"], "name": "g", "multigraph": False}
_BASE = {"k": 1, "n0": 2, "rows": ["1"], "bias": 0.0}


def _unmet(command, cfg=_CFG, support="empty"):
    """An example that reaches exit 4 for sure: by default bias 1 >
    lambda_B = 1/2; the configs below meet the hypotheses but assert no row."""
    return example(cfg=cfg, graph=_GRAPH, base=_BASE, command=command, support=support)


@settings(max_examples=150, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@_unmet("base-case")
@_unmet("induction")
@_unmet("bias-lemma")
@_unmet("bias-lemma", {"m": 3, "s": 2, "ell": 2, "t": 3, "support": "0"}, None)
@_unmet("base-case", {"m": 3, "s": 3, "ell": 1})
@_unmet("induction", {"m": 3, "s": 3, "ell": 1})
@given(
    cfg=_fuzzed_object(_CFG),
    graph=_fuzzed_object(_GRAPH),
    base=_fuzzed_object(_BASE),
    command=st.sampled_from(["pseudorandomness", "uniformity", "base-case", "induction",
                             "bias-lemma", "spectrum", "hitting", "encode", "report"]),
    # --support of the moment checks; "empty" (bias 1) leaves their hypotheses unmet
    support=st.sampled_from([None, "empty", "balanced", "0,1", "3"]),
)
def test_fuzzed_inputs_keep_the_exit_code_contract(tmp_path, capsys, cfg, graph, base, command,
                                                   support):
    paths = {}
    for name, doc in (("cfg", cfg), ("graph", graph), ("base", base)):
        paths[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
    argv = {
        "spectrum": ["graph", "spectrum", paths["graph"]],
        "hitting": ["verify", "hitting", "--graph", paths["graph"], "--set", "first-1",
                    "--tmax", "3"],
        "encode": ["code", "encode", "--config", paths["cfg"], "--base", paths["base"],
                   "--message", "1"],
        "report": ["code", "report", "--config", paths["cfg"], "--base", paths["base"]],
    }.get(command, ["verify", command, "--config", paths["cfg"]])
    if support is not None and command in ("base-case", "induction", "bias-lemma"):
        argv += ["--support", support]
    read = [graph] if command in ("spectrum", "hitting") else [cfg]
    if command in ("encode", "report"):
        read.append(base)
    ill_typed = any(not _well_typed(_FIELD_KINDS[k], v) for doc in read for k, v in doc.items())
    capsys.readouterr()
    code = main(argv + ["--budget", "4096"])
    assert code in (EXIT_PASS, EXIT_VIOLATION, EXIT_INVALID, EXIT_BUDGET, EXIT_HYPOTHESES)
    captured = capsys.readouterr()
    if ill_typed:
        assert code == EXIT_INVALID
    if code in (EXIT_INVALID, EXIT_BUDGET):
        # an input or budget error writes one stderr line and no output
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        return
    report = json.loads(captured.out)["report"]  # stdout is one JSON document
    # (asserted, passed) per row: hitting rows are asserted when
    # HittingReport.asserted finds some bound informative, a distribution
    # row (no vacuous flag, no bound) always
    if command == "report":
        rows = [(not report["bias_bound_vacuous"], report["bias"] <= report["bias_bound"])]
    elif command == "hitting":
        hit = HittingReport(report["rho"], report["lambda"], [
            HittingRow(row["t"], row["exact"], row["bound"], row["pass"]) for row in report["rows"]])
        rows = [(hit.asserted, row.passed) for row in hit.rows]
    else:
        rows = [(not row.get("vacuous", False), row["pass"]) for row in report.get("rows", [])]
    asserted = [passed for is_asserted, passed in rows if is_asserted]
    judged = command not in ("spectrum", "encode")  # these two judge nothing and exit 0
    no_verdict = not report.get("hypotheses_met", True) or (judged and not asserted)
    assert (code == EXIT_HYPOTHESES) == no_verdict
    assert (code == EXIT_VIOLATION) == (not no_verdict and not all(asserted))


@pytest.mark.parametrize("text", ["3", '"cfg"', "null"])  # a list: test_invalid_inputs
@pytest.mark.parametrize("role", ["config", "graph", "base code"])
def test_a_json_input_that_is_not_an_object_is_invalid(role, text, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    base = tmp_path / "base1.json"
    base.write_text(LinearCode(1, 2, [0b01]).to_json())
    encode = ["code", "encode", "--message", "1"]
    argv, message = {
        "config": (encode + ["--config", str(bad), "--base", str(base)],
                   f"config {bad} must be a JSON object"),
        "graph": (["graph", "spectrum", str(bad)], "a graph must be a JSON object"),
        "base code": (encode + ["--config", tiny_config(tmp_path, t=2), "--base", str(bad)],
                      "a base code must be a JSON object"),
    }[role]
    assert_one_line_invalid(argv, capsys, f"error: {message}\n")


VERIFY = ["verify", "bias-lemma", "--config", "cfg.json"]
REPORT = ["code", "report", "--config", "cfg.json", "--base", "base.json"]
GOOD = {"m": 2, "s": 5, "ell": 5, "t": 4}


@pytest.mark.parametrize("cfg, argvs, prefix", [
    # each config key with the wrong JSON kind, an unknown key, a missing key
    ({**GOOD, "m": "2"}, [VERIFY, REPORT], "error: field 'm' must be an integer"),
    ({**GOOD, "s": 2.5}, [VERIFY, REPORT], "error: field 's' must be an integer"),
    ({**GOOD, "ell": True}, [VERIFY, REPORT], "error: field 'ell' must be an integer"),
    ({**GOOD, "outer": 3}, [VERIFY, REPORT], "error: field 'outer' must be a string"),
    ({**GOOD, "inner": []}, [VERIFY, REPORT], "error: field 'inner' must be a string"),
    ({**GOOD, "t": "x"}, [VERIFY, REPORT], "error: field 't' must be an integer"),
    ({**GOOD, "support": 5}, [VERIFY, REPORT], "error: field 'support' must be a string"),
    ({**GOOD, "steps": 3}, [VERIFY, REPORT], "error: unknown config field 'steps'"),
    ({"s": 5, "ell": 5, "t": 4}, [VERIFY, REPORT], "error: missing field 'm'"),
    # an empty entry in a comma list
    (GOOD, [["verify", "arithmetic", "--lambdas", "0.1,,0.2"]], "error: '' is not an ASCII decimal float"),
    (GOOD, [["verify", "arithmetic", "--s-values", "5,,8"]], "error: '' is not an ASCII decimal int"),
    # a missing base file
    (GOOD, [REPORT[:-1] + ["missing.json"]], "error: [Errno 2] No such file or directory: 'missing.json'"),
    # a base-code search with no finite target, or a k out of range
    (GOOD, [["code", "gen-base", "--k", "2", "--n0", "4", "--target-bias", v] for v in ("nan", "1e400")],
     "error: target bias must be a finite number, got "),
    (GOOD, [["code", "gen-base", "--k", "-1", "--n0", "4", "--target-bias", "0.5"]],
     "error: k must be in 1..16"),
])
def test_malformed_input_exits_2_before_any_graph_is_built(cfg, argvs, prefix, tmp_path, monkeypatch, capsys):
    assert _graphs_built_refusing(cfg, argvs, prefix, tmp_path, monkeypatch, capsys) == []


def _graphs_built_refusing(cfg, argvs, prefix, tmp_path, monkeypatch, capsys) -> list[str]:
    """The graph builds and loads made by the runs of argvs on cfg, each of
    which must exit 2 with one line starting with prefix."""
    monkeypatch.chdir(tmp_path)
    write_config(tmp_path, **cfg)
    (tmp_path / "base.json").write_text(LinearCode(1, 2, [0b01]).to_json())
    (tmp_path / "k4.json").write_text(build_complete_selfloop(2).to_json())
    (tmp_path / "inner.json").write_text(build_aghp(10, 5).to_json())
    built = []
    for name in ("build_aghp", "build_complete_selfloop", "_load_graph"):
        real = getattr(cli, name)
        monkeypatch.setattr(cli, name, lambda *a, real=real, name=name: built.append(name) or real(*a))
    for argv in argvs:
        assert_one_line_invalid(argv, capsys, prefix)
    return built


MOMENT = [["verify", sub, "--config", "cfg.json"] for sub in ("base-case", "induction", "bias-lemma")]
ENCODE = ["code", "encode", "--config", "cfg.json", "--base", "base.json", "--message", "1"]
STORED = {**GOOD, "outer": "k4.json", "inner": "inner.json"}
TWO = {"m": 1, "s": 5, "ell": 2}  # two outer vertices


@pytest.mark.parametrize("cfg, argvs, prefix", [
    # a support vertex out of range, with the outer graph builtin or stored
    (GOOD, [argv + ["--support", "0,1,ff"] for argv in MOMENT], "error: support vertex 255 out of range 0..3"),
    (STORED, [argv + ["--support", "0,1,ff"] for argv in MOMENT], "error: support vertex 255 out of range 0..3"),
    # no walk length, or none of at least one step
    ({"m": 2, "s": 5, "ell": 5}, [VERIFY], "error: walk length required"),
    (GOOD, [argv + ["--t", "0"] for argv in (VERIFY, REPORT, ENCODE)], "error: t must be at least 1\n"),
    (STORED, [argv + ["--t", "0"] for argv in (VERIFY, REPORT, ENCODE)], "error: t must be at least 1\n"),
    # no level to check
    (GOOD, [MOMENT[1] + ["--kmax", "3"]], "error: kmax must exceed s=5\n"),
    (GOOD, [["verify", sub, "--config", "cfg.json", "--kmax", "0"] for sub in ("pseudorandomness", "uniformity")],
     "error: --kmax must be at least 1, got 0\n"),
])
def test_a_flag_error_exits_2_before_the_inner_graph_is_built(cfg, argvs, prefix, tmp_path, monkeypatch, capsys):
    # the outer graph may be built or loaded, as its vertex count bounds the
    # support; the inner graph, the costly one, never is
    built = _graphs_built_refusing(cfg, argvs, prefix, tmp_path, monkeypatch, capsys)
    assert "build_aghp" not in built
    assert built.count("_load_graph") <= (len(argvs) if cfg is STORED else 0)


@pytest.mark.parametrize("cfg, argv, prefix", [
    # of two flag errors, the one checked first in the run is the one refused
    (TWO, VERIFY + ["--support", "5", "--t", "0"], "error: support vertex 5 out of range 0..1\n"),
    (TWO, VERIFY + ["--support", "1"], "error: walk length required"),
    (TWO, MOMENT[1] + ["--support", "5", "--kmax", "3"], "error: support vertex 5 out of range 0..1\n"),
    # and the walk parameters before any flag
    ({**TWO, "ell": 3}, VERIFY + ["--support", "5", "--t", "0"], "error: ell=3 must be at most r/2 with r=5\n"),
])
def test_flag_errors_keep_their_order(cfg, argv, prefix, tmp_path, monkeypatch, capsys):
    built = _graphs_built_refusing(cfg, [argv], prefix, tmp_path, monkeypatch, capsys)
    assert "build_aghp" not in built


def _subcommands():
    """(family, name) of every subcommand the parser knows."""
    def choices(parser):
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    for family, family_parser in choices(cli._build_parser()).items():
        for name in choices(family_parser):
            yield family, name


@pytest.mark.parametrize("family, name", list(_subcommands()))
def test_a_negative_seed_is_refused_by_every_subcommand(family, name, capsys):
    # numpy's generator takes no negative seed, so no subcommand echoes one
    assert_one_line_invalid([family, name, "--seed", "-1"], capsys,
                            f"error: widewalk {family} {name}: argument --seed: must be at least 0, got -1\n")
    assert_one_line_invalid([family, name, "--seed", "x"], capsys,
                            f"error: widewalk {family} {name}: argument --seed: invalid int value: 'x'\n")


def test_exact_integers_of_any_length_are_written(tmp_path, capsys):
    # block_length 4 * 1024**1500 has 4,516 digits, past the 4,300 to which
    # the interpreter limits int-to-str by default; main lifts the limit and
    # puts the caller's back, on the error path too
    base = tmp_path / "base.json"
    base.write_text(LinearCode(2, 4, [0x3, 0x5]).to_json())
    argv = ["--config", flagship_config(tmp_path), "--base", str(base), "--t", "1500"]
    limit = sys.get_int_max_str_digits()
    capsys.readouterr()
    outs = []
    for fmt in ("json", "csv"):
        assert main(["code", "report", *argv, "--format", fmt]) == EXIT_PASS
        assert sys.get_int_max_str_digits() == limit
        outs.append(capsys.readouterr().out)
    assert main(["code", "encode", *argv, "--message", "1"]) == EXIT_BUDGET
    assert sys.get_int_max_str_digits() == limit
    err = capsys.readouterr().err
    assert err.startswith("error: enumeration needs ") and err.count("\n") == 1
    sys.set_int_max_str_digits(0)
    try:
        doc = json.loads(outs[0])
        rows = dict(line.split(",", 1) for line in outs[1].splitlines()[2:])
        assert doc["report"]["block_length"] == 4 * 1024**1500
        assert rows["block_length"] == str(4 * 1024**1500)
        assert rows["rate"] == doc["report"]["rate"] == f"1/{2 * 1024**1500}"
        assert err == f"error: enumeration needs {4 * 1024**1500} items, budget is {1 << 28}\n"
    finally:
        sys.set_int_max_str_digits(limit)
