"""Acceptance suite: the twelve headline guarantees, one test each, with
07 and 08 also checked beyond the flagship.

Every test prints exactly one line, "ACCEPTANCE NN <label>: PASS" or
"... FAIL", before asserting, so a scan of the output (pytest -rA or
-s) gives the full scorecard even on partial failure.  Tolerances are
pinned here and nowhere looser: exact rational comparisons where both
sides are rational, 1e-12 for float bound checks, and for identity
residuals the check's own rounding band, n * u * sum |terms| over the
two sums it compares.
"""

import hashlib
import itertools
import json
from fractions import Fraction
from pathlib import Path

import numpy as np

from widewalk import (
    ReplacementSystem,
    SignedFn,
    WalkParams,
    build_aghp,
    build_complete_selfloop,
    check_first_coord_uniform,
    check_local_invertibility,
    check_pseudorandomness,
    spectrum,
)
from widewalk.amplify import (
    check_base_case,
    check_first_step_trick,
    check_induction_step,
    check_middle_start_identity,
    check_pure_walk_bounds,
    dp_gk,
    moments,
    verify_induction_arithmetic,
)
from widewalk.cli import EXIT_PASS, main
from widewalk.code import AmplifiedCode, LinearCode, code_report
from widewalk.graphs import CayleyGraph
from widewalk.hitting import HittingInstance, check_hitting, hitting_bound, hitting_prob_exact

import walk_oracle as oracle

TOL_BOUND = 1e-12
INSTANCE_C_STDOUT_SHA256 = "3fba1e254b83e524e37164a207b1a3fadd219ab4fc0e9a84bb3e7c75b6799ef0"


def record(num, label, ok):
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({label}) failed"


def test_acceptance_01_inner_expander_spectra():
    ok = True
    for r, ell in ((4, 2), (6, 3), (8, 4), (10, 5)):
        lam = spectrum(build_aghp(r, ell)).lambda_exact
        ok = ok and lam is not None and lam <= Fraction(r - 1, 1 << ell)
    record(1, "inner-expander-spectra", ok)


def test_acceptance_02_pseudorandomness_window():
    params = WalkParams(m=2, s=2, ell=2)
    sys = ReplacementSystem(build_complete_selfloop(2), build_aghp(4, 2), params)
    ok = all(
        check_pseudorandomness(sys, k).tv_distance <= TOL_BOUND for k in (1, 2, 3)
    )
    record(2, "pseudorandomness-window", ok)


def test_acceptance_03_first_block_uniformity():
    params = WalkParams(m=2, s=3, ell=3)
    sys = ReplacementSystem(build_complete_selfloop(2), build_aghp(6, 3), params)
    ok = all(check_first_coord_uniform(sys, k).equal for k in (1, 2, 3))
    record(3, "first-block-uniformity", ok)


def test_acceptance_04_local_invertibility(flagship, g8_system, mono_system):
    # holds by construction: every generator of a Cayley graph over F_2 is
    # its own inverse, so this item records the precondition of backward
    # walk generation rather than a quantity that could fail
    systems = [
        flagship,
        g8_system,
        mono_system,
        ReplacementSystem(
            build_complete_selfloop(2), build_aghp(4, 2), WalkParams(2, 2, 2)
        ),
        ReplacementSystem(
            build_complete_selfloop(2), build_aghp(6, 3), WalkParams(2, 3, 3)
        ),
        ReplacementSystem(
            build_complete_selfloop(1), build_aghp(2, 1), WalkParams(1, 2, 1)
        ),
    ]
    ok = all(check_local_invertibility(s) for s in systems)
    record(4, "local-invertibility", ok)


def test_acceptance_05_dp_equals_brute_force(g8_system, g8_f, skew16):
    # the pinned small system, with three outer-graph choices: the default
    # complete outer, the g8 outer whose means are nonzero everywhere, and
    # skew16 with lambda_A = 1/8 (every walk at t = 1 and 2: 524,288 at t = 2)
    tiny = ReplacementSystem(
        build_complete_selfloop(1), build_aghp(2, 1), WalkParams(1, 2, 1)
    )
    skewed = ReplacementSystem(skew16, build_aghp(8, 4), WalkParams(4, 2, 4))
    cases = [
        (tiny, SignedFn.balanced(2), 4),
        (g8_system, g8_f, 4),
        (skewed, SignedFn.from_support(8, [0, 1, 2]), 2),
    ]
    ok = True
    for sys, f, tmax in cases:
        tables = dp_gk(sys, f, tmax)
        for t in range(1, tmax + 1):
            values = tables[t].values  # one read: each expands a compact level
            sums = {}
            counts = {}
            for _, a_vertices, b_vertices in oracle.walks(sys, t):
                prod = 1.0
                for a in a_vertices:
                    prod *= f.signs[a]
                key = (a_vertices[0], b_vertices[0])
                sums[key] = sums.get(key, 0.0) + prod
                counts[key] = counts.get(key, 0) + 1
            for (a, b), total in sums.items():
                ok = ok and abs(values[a, b] - total / counts[(a, b)]) <= TOL_BOUND
    record(5, "dp-equals-brute-force", ok)


def test_acceptance_06_pure_walk_moment_bounds(k16):
    ok = spectrum(k16).lambda_exact == Fraction(1, 15)
    report = check_pure_walk_bounds(k16, SignedFn.balanced(16), 10)
    ok = ok and report.hypotheses_met and report.all_passed
    record(6, "pure-walk-moment-bounds", ok)


def test_acceptance_07_bias_amplification_bound(flagship, flagship_f, flagship_tables):
    lam_b = 7 / 32
    ok = True
    for t in (10, 15, 20):
        eps = moments(flagship_tables[t]).eps
        ok = ok and eps <= (2 * lam_b) ** (t / 5) + TOL_BOUND
    record(7, "bias-amplification-bound", ok)


def test_acceptance_08_base_case_and_induction(flagship, flagship_f, flagship_tables):
    base = check_base_case(flagship, flagship_f, flagship_tables)
    ind = check_induction_step(flagship, flagship_f, 15, flagship_tables)
    ok = (
        base.hypotheses_met
        and base.all_passed
        and ind.hypotheses_met
        and ind.all_passed
    )
    record(8, "base-case-and-induction", ok)


def test_acceptance_07_headline_bound_with_positive_lambda_a(
    skew16, lazy_aghp20, tmp_path, monkeypatch, capsys
):
    # instance C: skew16 x lazy AGHP(20,6), (m, s, ell) = (4, 5, 6), f on
    # {0,1,2}; the hypotheses exactly, then one bias-lemma run of the CLI
    # from graph files written here (2^23 cells, the one DP of this test),
    # its stdout pinned; the paths are relative, so the run header echoes
    # the same bytes in every directory
    lam_a, lam_b = spectrum(skew16).lambda_exact, spectrum(lazy_aghp20).lambda_exact
    bias = SignedFn.from_support(8, {0, 1, 2}).bias_exact
    ok = (bias, lam_b, lam_a) == (Fraction(1, 4), Fraction(13, 32), Fraction(1, 8))
    ok = ok and bias <= lam_b and lam_b**2 == Fraction(169, 1024) and lam_a <= lam_b**2
    monkeypatch.chdir(tmp_path)
    Path("outer.json").write_text(skew16.to_json())
    Path("inner.json").write_text(lazy_aghp20.to_json())
    Path("instance-c.json").write_text(
        json.dumps({"m": 4, "s": 5, "ell": 6, "outer": "outer.json", "inner": "inner.json"}))
    capsys.readouterr()
    argv = ["verify", "bias-lemma", "--config", "instance-c.json", "--t", "10", "--support", "0,1,2"]
    ok = ok and main(argv) == EXIT_PASS
    out = capsys.readouterr().out
    ok = ok and hashlib.sha256(out.encode()).hexdigest() == INSTANCE_C_STDOUT_SHA256
    report = json.loads(out)["report"]
    ok = ok and report["hypotheses_met"] and len(report["rows"]) == 1
    row = report["rows"][0]
    # (2 * 13/32)^(10 * (1 - 4/5)) = (13/16)^2
    ok = ok and row["k"] == 10 and row["pass"] and not row["vacuous"]
    ok = ok and abs(row["bound_eps"] - 169 / 256) <= 1e-12 and 1.2e-4 < row["epsilon"] < 1.22e-4
    record(7, "headline-bound-with-positive-lambda-a", ok)


def test_acceptance_08_base_case_and_induction_beyond_the_flagship(witness, skewed):
    # the witness (lambda_A = 0) and skew16 x AGHP(16,5) (lambda_A = 1/8):
    # every asserted row passes and measures a nonzero eps, except that the
    # balanced support {0,1,2,4} on skew16 has eps_k = 0 exactly at even k,
    # where its row still bounds sigma_k > 0
    ok = True
    for sys, support in ((witness, {0, 1, 2}), (skewed, {0, 1, 2}), (skewed, {0, 1, 2, 4})):
        f, kmax = SignedFn.from_support(8, support), 2 * sys.params.s
        tables = dp_gk(sys, f, kmax)
        reports = (check_base_case(sys, f, tables), check_induction_step(sys, f, kmax, tables))
        asserted = [r for report in reports for r in report.rows if not r.vacuous]
        ok = ok and all(report.hypotheses_met for report in reports) and bool(asserted)
        ok = ok and all(r.passed and r.sigma > 0 for r in asserted)
        zero_at_even_k = f.bias_exact == 0 and sys is skewed
        ok = ok and all((r.epsilon == 0) == (zero_at_even_k and r.k % 2 == 0) for r in asserted)
    record(8, "base-case-and-induction-beyond-the-flagship", ok)


def test_acceptance_09_splitting_identities(
    flagship, flagship_f, flagship_tables, g8_system, g8_f
):
    ok = True
    for k in (6, 7, 8, 9, 10):
        ok = ok and check_first_step_trick(flagship, flagship_f, k, flagship_tables).passed
    for k in (6, 7, 8):
        chk = check_middle_start_identity(flagship, flagship_f, k, flagship_tables)
        ok = ok and chk.passed
    # second instance, with nonzero conditional means throughout
    ok = ok and check_first_step_trick(g8_system, g8_f, 3).passed
    chk8 = check_middle_start_identity(g8_system, g8_f, 3)
    ok = ok and chk8.passed
    record(9, "splitting-identities", ok)


def test_acceptance_10_induction_arithmetic():
    report = verify_induction_arithmetic(
        [0.01, 0.05, 0.1, 0.2, 0.25], [5, 8, 16, 32], 200
    )
    ok = (
        report.spot_checks_passed
        and report.all_passed
        and len(report.rows) == 20
        and all(r.valid for r in report.rows)
    )
    record(10, "induction-arithmetic", ok)


def test_acceptance_11_hitting_probabilities(k16):
    lam = Fraction(1, 15)
    ok = spectrum(k16).lambda_exact == lam
    # exhaustive over every subset of size 1..4, all walk lengths to 12
    # (one prefix DP per subset gives every length)
    for size in (1, 2, 3, 4):
        for subset in itertools.combinations(range(16), size):
            report = check_hitting(k16, subset, 12)
            if report.lam != lam or [r.t for r in report.rows] != list(range(1, 13)):
                ok = False
            if not report.all_passed:
                ok = False
    # 100 random larger subsets
    rng = np.random.default_rng(0)
    for _ in range(100):
        size = int(rng.integers(5, 16))
        subset = rng.choice(16, size=size, replace=False)
        if not check_hitting(k16, (int(v) for v in subset), 12).all_passed:
            ok = False
    # zero-expansion graph: the bound is met with equality
    g0 = build_complete_selfloop(2)
    for t in (1, 3, 6):
        exact = hitting_prob_exact(HittingInstance(g0, frozenset({0, 1}), t))
        if exact != hitting_bound(Fraction(1, 2), Fraction(0), t):
            ok = False
    # lambda > 0 meets the bound with equality too: S = ker(alpha) for a
    # character with chi(alpha) = +lambda * d keeps a step in S with
    # probability (1 + lambda)/2, so the survival is rho * (rho + lambda *
    # (1 - rho))^(t-1) at rho = 1/2 for every t
    for r, ell in ((8, 4), (10, 5), (12, 6)):
        g = build_aghp(r, ell)
        lam = spectrum(g).lambda_exact
        alpha = int(np.flatnonzero(g.character_table == int(lam * g.degree))[0])
        kernel = [v for v in range(g.num_vertices) if (v & alpha).bit_count() % 2 == 0]
        report = check_hitting(g, kernel, 8)
        if report.rho != Fraction(1, 2) or len(report.rows) != 8:
            ok = False
        if not all(row.exact == row.bound for row in report.rows):
            ok = False
    # rho = 1/4 as well: S = ker(alpha) & ker(beta) for the first pair of top
    # characters whose xor is top too (142 and 284 on AGHP(10,5)).  At rho =
    # 1/2 a bound with rho and 1 - rho swapped reads the same; here it
    # differs from the exact survival at every t
    g = build_aghp(10, 5)
    lam = spectrum(g).lambda_exact
    top = {int(a) for a in np.flatnonzero(g.character_table == int(lam * g.degree))}
    alpha, beta = min((a, b) for a in top for b in top if a < b and a ^ b in top)
    kernel = [v for v in range(g.num_vertices)
              if (v & alpha).bit_count() % 2 == 0 and (v & beta).bit_count() % 2 == 0]
    report = check_hitting(g, kernel, 12)
    if (alpha, beta) != (142, 284) or report.rho != Fraction(1, 4) or len(report.rows) != 12:
        ok = False
    if not all(row.exact == row.bound for row in report.rows):
        ok = False
    swapped = [hitting_bound(1 - report.rho, lam, t) for t in range(1, 13)]
    if any(row.exact == bound for row, bound in zip(report.rows, swapped)):
        ok = False
    record(11, "hitting-probabilities", ok)


def test_acceptance_12_end_to_end_code(flagship):
    # Part 1: a k=8, n0=64 base code of bias 1/8 <= lambda_B exists and is
    # verified, but 64 coordinates cannot embed into the 4-vertex flagship
    # outer graph; the constructor must refuse rather than mis-embed.
    def m_apply(y):
        y0, y1, y2 = y & 1, (y >> 1) & 1, (y >> 2) & 1
        return y2 | ((y0 ^ y2) << 1) | (y1 << 2)

    rows = [sum(((j >> i) & 1) << j for j in range(64)) for i in range(6)]
    rows.append(sum((((j & 7) & (j >> 3)).bit_count() & 1) << j for j in range(64)))
    rows.append(sum((((j & 7) & m_apply(j >> 3)).bit_count() & 1) << j for j in range(64)))
    base8 = LinearCode(8, 64, rows)
    ok = base8.measured_bias_exact == Fraction(1, 8) <= Fraction(7, 32)
    refused = False
    try:
        AmplifiedCode(base8, flagship, 10)
    except ValueError:
        refused = True
    ok = ok and refused
    # Part 2: the largest base code that does embed (k=2, n0=4, bias 0),
    # amplified along t=10 walks: final bias within the headline bound and
    # the exact rate equals k / seed-count
    base2 = LinearCode(2, 4, [0b0011, 0b0101])
    report = code_report(AmplifiedCode(base2, flagship, 10))
    bias = report["bias"]
    ok = ok and base2.measured_bias_exact == 0
    ok = ok and bias <= (2 * 7 / 32) ** 2 + TOL_BOUND
    ok = ok and Fraction(report["rate"]) == Fraction(2, 2**102)
    record(12, "end-to-end-code", ok)
