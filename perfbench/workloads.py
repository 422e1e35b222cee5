"""The widewalk benchmark workloads: the inputs drawn from the seed, the
jobs one round runs, and the checks that decide whether each job's output
is correct.

flagship-cli runs six CLI processes a round.  inprocess-exact runs, in one
process, three parts that stress different layers: witness-dp (the walk DP
at a working set past the caches), enumerate-exact (per-walk Python loops,
no DP) and spectra-hitting (graph build, exact spectrum, hitting DP).  The
parts share one process so that a run of the time the budget allows
averages over enough of the host's load drift; each part's jobs keep
their own names and timings.

Every job runs as a single-client closed loop: one library call or one
CLI process at a time, the next one only after the previous returned.

The seed picks only the inputs that are free (the f support, the message,
the vertex subset); every instance size below is fixed, so two seeds do
the same amount of work.  Checks compare against pinned references in
references.json or against an independent recomputation; a mismatch is
reported as a failed job and never re-pinned.
"""
from __future__ import annotations

import hashlib
import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
REFERENCES = HERE / "references.json"

WORKLOADS = ("flagship-cli", "inprocess-exact")
PARTS = ("witness-dp", "enumerate-exact", "spectra-hitting")

# flagship: m=2, s=5, ell=5, complete-selfloop(2) outer, AGHP(10,5) inner
FLAGSHIP_CONFIG = {"m": 2, "s": 5, "ell": 5, "outer": "complete", "inner": "aghp", "t": 20}
# base code k=2, n0=4, rows 0x3 and 0x5 (every nonzero codeword has weight 2)
FLAGSHIP_BASE = {"k": 2, "n0": 4, "rows": ["3", "5"]}
# the six balanced 2-vertex supports on the 4 outer vertices
FLAGSHIP_SUPPORTS = tuple(
    ",".join(f"{v:x}" for v in pair) for pair in itertools.combinations(range(4), 2)
)
# witness: every 3-subset of the 8 outer vertices has bias 1/4 <= lambda_B
WITNESS_SUBSETS = tuple(itertools.combinations(range(8), 3))
WITNESS_K = 6  # s + 1
MESSAGES = (1, 2, 3)
HITTING_N = 1024  # AGHP(10,5)
HITTING_SUBSET_SIZE = 512
HITTING_TMAX = 12
ARITHMETIC_LAMBDAS = (0.01, 0.05, 0.1, 0.2, 0.25)  # the CLI default grid
ARITHMETIC_S = (5, 8, 16, 32)
ARITHMETIC_KMAX = 200
# pairwise coprime moduli whose product (about 2**124) exceeds every
# hitting path count (at most 2**10 * 1024**11 = 2**120)
HITTING_MODULI = (2147483647, 2147483629, 2147483587, 2147483579)
REL_TOL = 1e-9
IDENTITY_TOL = 1e-9


def inputs(workload: str, seed: int) -> dict:
    """The free inputs of one run; seed 0 gives the documented defaults."""
    if workload == "flagship-cli":
        return {"support": FLAGSHIP_SUPPORTS[seed % len(FLAGSHIP_SUPPORTS)]}
    if workload == "inprocess-exact":
        rng = random.Random(seed)
        return {
            "witness-dp": {"support": list(WITNESS_SUBSETS[seed % len(WITNESS_SUBSETS)])},
            "enumerate-exact": {"message": MESSAGES[seed % len(MESSAGES)]},
            "spectra-hitting": {"subset": sorted(rng.sample(range(HITTING_N), HITTING_SUBSET_SIZE))},
        }
    raise ValueError(f"unknown workload {workload!r}")


def load_references() -> dict:
    return json.loads(REFERENCES.read_text())


def working_set(workload: str) -> dict:
    """Bytes the workload's hot arrays occupy, computed from array sizes."""
    if workload == "flagship-cli":
        n_a, n_b, d_b = 4, 1 << 10, 1 << 10
        return {"n_A": n_a, "n_B": n_b, "d_B": d_b, "dp_table_bytes": n_a * n_b * 8,
                "perm_plus_bperm_bytes": 2 * d_b * n_b * 8}
    n_a, n_b, d_b = 8, 1 << 15, 1 << 10
    return {
        "witness_n_A": n_a,
        "witness_n_B": n_b,
        "witness_d_B": d_b,
        "witness_dp_table_bytes": n_a * n_b * 8,
        "witness_perm_plus_bperm_bytes": 2 * d_b * n_b * 8,
        "encode_output_bytes": 4 * 1024 * 1024,
        "aghp_20_10_character_table_bytes": (1 << 20) * 8,
    }


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _close(x: float, ref: float) -> bool:
    return abs(x - ref) <= REL_TOL * abs(ref)


# ---------------------------------------------------------------------------
# flagship-cli: six CLI processes per round


def flagship_commands(support: str) -> list[tuple[str, list[str]]]:
    """(job, argv after the program name); run from a directory that
    holds config.json and base.json so the echoed paths are relative."""
    cfg = ["--config", "config.json"]
    report = ["code", "report", *cfg, "--base", "base.json"]
    return [
        ("verify-base-case", ["verify", "base-case", *cfg, "--support", support]),
        ("verify-induction", ["verify", "induction", *cfg, "--kmax", "20", "--support", support]),
        ("verify-bias-lemma", ["verify", "bias-lemma", *cfg, "--t", "20", "--support", support]),
        ("code-report", report),
        ("code-report-workers2", [*report, "--workers", "2"]),
        ("graph-aghp", ["graph", "aghp", "--r", "16", "--ell", "8"]),
    ]


def check_cli(job: str, exit_code: int, stdout: bytes, support: str, refs: dict,
              plain_report: bytes | None = None) -> list[str]:
    """Exit code and stdout digest against the pinned run of this support;
    verify reports must also carry lambda_B = 7/32 and pass every row, and
    the --workers 2 report must equal the plain one but for the echo."""
    ref = refs["flagship-cli"][support][job]
    failures = []
    if exit_code != ref["exit"]:
        failures.append(f"exit code {exit_code} != {ref['exit']}")
    if sha256(stdout) != ref["sha256"]:
        failures.append("stdout digest differs from reference")
    try:
        doc = json.loads(stdout)
    except ValueError:
        return failures + ["stdout is not JSON"]
    if job.startswith("verify-"):
        if doc["report"]["lambda"] != float(Fraction(7, 32)):
            failures.append(f"lambda_B {doc['report']['lambda']!r} != 7/32")
        if not doc["report"]["all_passed"]:
            failures.append("a report row failed")
    if job == "code-report-workers2":
        if plain_report is None:
            failures.append("no plain report to compare with")
        else:
            plain = json.loads(plain_report)
            if plain["run"].pop("workers") is not None or doc["run"].pop("workers") != 2:
                failures.append("workers echo is not None / 2")
            if plain != doc:
                failures.append("--workers 2 report differs from the plain report")
    return failures


# ---------------------------------------------------------------------------
# inprocess-exact: setup builds every graph and system, jobs run the public
# calls, checks judge the outputs after the last verdict


def setup(ww, inp: dict) -> dict:
    """Build every graph and ReplacementSystem the workload uses, per part."""
    return {part: setup_part(ww, part, inp[part]) for part in PARTS}


def setup_part(ww, part: str, inp: dict) -> dict:
    g = ww.graphs
    system = ww.walks.ReplacementSystem
    params = ww.walks.WalkParams
    if part == "witness-dp":
        return {
            "system": system(g.build_complete_selfloop(3), g.build_aghp(15, 5), params(3, 5, 5)),
            "f": ww.amplify.SignedFn.from_support(8, inp["support"]),
        }
    if part == "enumerate-exact":
        flagship = system(g.build_complete_selfloop(2), g.build_aghp(10, 5), params(2, 5, 5))
        base = ww.code.LinearCode(2, 4, [0x3, 0x5])
        return {
            "amplified": ww.code.AmplifiedCode(base, flagship, 2),
            "s222": system(g.build_complete_selfloop(2), g.build_aghp(4, 2), params(2, 2, 2)),
            "s233": system(g.build_complete_selfloop(2), g.build_aghp(6, 3), params(2, 3, 3)),
        }
    return {"aghp20": g.build_aghp(20, 10), "aghp10": g.build_aghp(10, 5)}


def jobs(ww, ctx: dict, inp: dict) -> list[tuple[str, object]]:
    """("part/job", thunk) pairs in run order."""
    return [(f"{part}/{job}", thunk) for part in PARTS
            for job, thunk in _part_jobs(ww, part, ctx[part], inp[part])]


def _part_jobs(ww, part: str, ctx: dict, inp: dict) -> list[tuple[str, object]]:
    """Later witness jobs reuse the forward tables the first one leaves in ctx."""
    if part == "witness-dp":
        a = ww.amplify
        sysw, f, k = ctx["system"], ctx["f"], WITNESS_K

        def forward():
            ctx["tables"] = a.dp_gk(sysw, f, k)
            return ctx["tables"]

        return [
            ("dp_gk", forward),
            ("base-case", lambda: a.check_base_case(sysw, f, ctx["tables"])),
            ("induction", lambda: a.check_induction_step(sysw, f, k, ctx["tables"])),
            ("bias-lemma", lambda: a.check_bias_reduction_lemma(sysw, f, k, ctx["tables"])),
            ("middle-start-identity", lambda: a.check_middle_start_identity(sysw, f, k, ctx["tables"])),
        ]
    if part == "enumerate-exact":
        w = ww.walks
        out = [
            ("encode", lambda: ww.code.encode(ctx["amplified"], inp["message"])),
            ("middle-start-equal", lambda: w.middle_start_distribution_equal(ctx["s222"], 4, 2)),
        ]
        out += [(f"uniformity-k{k}", lambda k=k: w.check_first_coord_uniform(ctx["s233"], k))
                for k in (1, 2, 3)]
        out += [(f"pseudorandomness-k{k}", lambda k=k: w.check_pseudorandomness(ctx["s222"], k))
                for k in (1, 2, 3, 4)]
        return out
    return [
        ("spectrum-aghp20", lambda: ww.graphs.spectrum(ctx["aghp20"])),
        ("hitting", lambda: ww.hitting.check_hitting(ctx["aghp10"], inp["subset"], HITTING_TMAX)),
        ("arithmetic", lambda: ww.amplify.verify_induction_arithmetic(
            ARITHMETIC_LAMBDAS, ARITHMETIC_S, ARITHMETIC_KMAX)),
    ]


def setup_outputs(ctx: dict) -> list[tuple[str, object]]:
    """Setup products that are outputs in their own right and are checked."""
    spectra = ctx["spectra-hitting"]
    return [("spectra-hitting/build-aghp20", spectra["aghp20"]),
            ("spectra-hitting/build-aghp10", spectra["aghp10"])]


def generators_digest(graph) -> str:
    return sha256(np.asarray(graph.generators, dtype=np.uint64).tobytes())


def encode_digest(bits) -> str:
    return sha256(np.packbits(bits, bitorder="little").tobytes())


def witness_key(support) -> str:
    return ",".join(str(v) for v in support)


def check(job: str, out, inp: dict, refs: dict, ctx: dict) -> list[str]:
    """Failures of one "part/job" output (empty when correct)."""
    part, name = job.split("/", 1)
    if part == "witness-dp":
        return _check_witness(name, out, refs[part][witness_key(inp[part]["support"])])
    if part == "enumerate-exact":
        return _check_enumerate(name, out, inp[part], refs[part])
    return _check_spectra(name, out, inp[part], refs[part], ctx[part])


def _check_witness(job: str, out, ref: dict) -> list[str]:
    eps_ref = ref["eps"]
    failures = []
    if job == "dp_gk":
        if len(out) != WITNESS_K + 1:
            return [f"{len(out)} tables, expected {WITNESS_K + 1}"]
        for k, table in enumerate(out):
            eps = abs(float(table.values.mean()))
            if not eps > 0:
                failures.append(f"eps_{k} = {eps!r} is not > 0")
            if not _close(eps, eps_ref[k]):
                failures.append(f"eps_{k} = {eps!r} != reference {eps_ref[k]!r}")
        return failures
    if job == "middle-start-identity":
        if not out.passed or not out.residual <= IDENTITY_TOL:
            failures.append(f"identity residual {out.residual!r} > {IDENTITY_TOL}")
        if not _close(out.direct, ref["signed_mean"]):
            failures.append(f"signed mean {out.direct!r} != reference {ref['signed_mean']!r}")
        return failures
    if not out.hypotheses_met:
        failures.append("hypotheses unmet")
    if out.lam != float(Fraction(3, 8)):
        failures.append(f"lambda_B {out.lam!r} != 3/8")
    if not out.rows:
        failures.append("report has no rows")
    for row in out.rows:
        if not row.passed:
            failures.append(f"row k={row.k} failed")
        if not row.epsilon > 0:
            failures.append(f"eps_{row.k} = {row.epsilon!r} is not > 0")
        if not _close(row.epsilon, eps_ref[row.k]):
            failures.append(f"eps_{row.k} = {row.epsilon!r} != reference {eps_ref[row.k]!r}")
    return failures


def _check_enumerate(job: str, out, inp: dict, ref: dict) -> list[str]:
    if job == "encode":
        bits = np.asarray(out)
        if bits.shape != (4 * 1024 * 1024,) or int(bits.max()) > 1:
            return [f"encode output (shape {bits.shape}) is not 4194304 0/1 bits"]
        want = ref["encode_sha256"][str(inp["message"])]
        return [] if encode_digest(bits) == want else ["encode bit digest differs from reference"]
    if job == "pseudorandomness-k4":
        # outside the window: the exact TV is nonzero and pinned
        tv = Fraction(ref["pseudorandomness_k4_tv"])
        if out.equal or out.tv_distance != float(tv):
            return [f"k=4 TV {out.tv_distance!r} != {tv}"]
        return []
    if not out.equal or out.tv_distance != 0.0 or out.max_deviation != 0.0:
        return [f"distribution not exactly equal: TV {out.tv_distance!r}"]
    return []


def _check_spectra(job: str, out, inp: dict, ref: dict, ctx: dict) -> list[str]:
    if job in ("build-aghp20", "build-aghp10"):
        r, ell = (20, 10) if job == "build-aghp20" else (10, 5)
        if out.dim != r or out.degree != 1 << (2 * ell):
            return [f"AGHP({r},{ell}) has dim {out.dim}, degree {out.degree}"]
        return [] if generators_digest(out) == ref[f"{job}_sha256"] else ["generator digest differs"]
    if job == "spectrum-aghp20":
        if out.lambda_exact != Fraction(19, 1024):
            return [f"lambda {out.lambda_exact} != 19/1024"]
        return []
    if job == "hitting":
        # the graph's own generators, whose digest build-aghp10 checks
        return check_hitting_report(out, inp["subset"], list(ctx["aghp10"].generators), HITTING_TMAX)
    # arithmetic
    rows = [[r.lam, r.s, r.valid, r.passed] for r in out.rows]
    failures = []
    if not out.all_passed or not out.spot_checks_passed:
        failures.append("induction arithmetic did not pass")
    if rows != [row[:4] for row in ref["arithmetic_rows"]]:
        failures.append("arithmetic rows differ from reference")
    elif not all(abs(r.max_log_violation - want[4]) <= REL_TOL * max(1.0, abs(want[4]))
                 for r, want in zip(out.rows, ref["arithmetic_rows"])):
        failures.append("arithmetic log violations differ from reference")
    return failures


def hitting_counts_mod(generators: list[int], subset: list[int], tmax: int) -> np.ndarray:
    """Surviving path counts sum_a count_t(a) modulo each HITTING_MODULI
    entry, t = 1..tmax, by a vectorised recursion independent of the
    library's big-integer one.  Shape (tmax, len(HITTING_MODULI))."""
    n = HITTING_N
    neigh = np.arange(n, dtype=np.int64)[:, None] ^ np.asarray(generators, dtype=np.int64)[None, :]
    in_s = np.zeros(n, dtype=np.int64)
    in_s[subset] = 1
    mods = np.asarray(HITTING_MODULI, dtype=np.int64)[:, None]
    counts = np.repeat(in_s[None, :], len(HITTING_MODULI), axis=0)
    sums = [counts.sum(axis=1) % mods[:, 0]]
    for _ in range(tmax - 1):
        counts = (counts[:, neigh].sum(axis=2) % mods) * in_s
        sums.append(counts.sum(axis=1) % mods[:, 0])
    return np.array(sums)


def check_hitting_report(report, subset: list[int], generators: list[int], tmax: int) -> list[str]:
    """Exact survival values against the modular recomputation (exact by
    CRT) and the exact closed-form bound."""
    lam = Fraction(7, 32)
    rho = Fraction(len(subset), HITTING_N)
    failures = []
    if report.lam != lam or report.rho != rho:
        return [f"lambda {report.lam} / rho {report.rho} != 7/32 / {rho}"]
    if [r.t for r in report.rows] != list(range(1, tmax + 1)):
        return [f"hitting rows are not t = 1..{tmax}"]
    residues = hitting_counts_mod(generators, subset, tmax)
    degree = len(generators)
    for row, want in zip(report.rows, residues):
        total = HITTING_N * degree ** (row.t - 1)
        numer = row.exact * total
        if numer.denominator != 1:
            failures.append(f"t={row.t}: exact value has denominator not dividing {total}")
            continue
        got = [int(numer.numerator) % m for m in HITTING_MODULI]
        if got != [int(v) for v in want]:
            failures.append(f"t={row.t}: exact survival {row.exact} differs from path counts")
        bound = rho * (rho + lam * (1 - rho)) ** (row.t - 1)
        if row.bound != bound:
            failures.append(f"t={row.t}: bound {row.bound} != {bound}")
        if not row.passed or row.exact > bound:
            failures.append(f"t={row.t}: exact {float(row.exact)!r} > bound {float(bound)!r}")
    return failures
