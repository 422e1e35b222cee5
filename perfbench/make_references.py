"""Pin the reference outputs the benchmark checks against.

    python3 perfbench/make_references.py [SECTION ...]

Recomputes the named sections of references.json (all by default: one for
flagship-cli and one for each part of inprocess-exact) with the package in
./src and merges them into the file.  The references
were pinned once, at the commit that added the benchmark, with the tier-1
suite passing.  A later change whose outputs differ must report the
mismatch; rerunning this script to make it go away hides the change, so a
change that does rerun it says which references moved and why.

Independent of the pins, the checks also recompute what is cheap to
recompute (lambda values, hitting path counts, the workers-2 report).
"""
from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def flagship() -> dict:
    run.prepare_work_dir()
    env = run.child_env()
    out = {}
    for support in workloads.FLAGSHIP_SUPPORTS:
        out[support] = {}
        for job, argv in workloads.flagship_commands(support):
            child = run.Child([sys.executable, "-m", "widewalk.cli", *argv], run.WORK / "flagship", env)
            out[support][job] = {"exit": child.exit, "sha256": workloads.sha256(child.stdout)}
    return out


def witness() -> dict:
    import widewalk as ww

    out = {}
    ctx = workloads.setup_part(ww, "witness-dp", {"support": [0, 1, 2]})
    for support in workloads.WITNESS_SUBSETS:
        f = ww.amplify.SignedFn.from_support(8, support)
        tables = ww.amplify.dp_gk(ctx["system"], f, workloads.WITNESS_K)
        out[workloads.witness_key(support)] = {
            "eps": [abs(float(t.values.mean())) for t in tables],
            "signed_mean": float(tables[-1].values.mean()),
        }
        print(f"witness {support}: eps_6 = {out[workloads.witness_key(support)]['eps'][-1]!r}",
              flush=True)
    return out


def enumerate_exact() -> dict:
    import widewalk as ww

    ctx = workloads.setup_part(ww, "enumerate-exact", {})
    digests = {str(x): workloads.encode_digest(ww.code.encode(ctx["amplified"], x))
               for x in workloads.MESSAGES}
    tv = ww.walks.check_pseudorandomness(ctx["s222"], 4).tv_distance
    return {"encode_sha256": digests, "pseudorandomness_k4_tv": str(Fraction(tv))}


def spectra() -> dict:
    import widewalk as ww

    ctx = workloads.setup_part(ww, "spectra-hitting", {})
    arith = ww.amplify.verify_induction_arithmetic(
        workloads.ARITHMETIC_LAMBDAS, workloads.ARITHMETIC_S, workloads.ARITHMETIC_KMAX)
    return {
        "build-aghp20_sha256": workloads.generators_digest(ctx["aghp20"]),
        "build-aghp10_sha256": workloads.generators_digest(ctx["aghp10"]),
        "arithmetic_rows": [[r.lam, r.s, r.valid, r.passed, r.max_log_violation] for r in arith.rows],
    }


SECTIONS = {
    "flagship-cli": flagship,
    "witness-dp": witness,
    "enumerate-exact": enumerate_exact,
    "spectra-hitting": spectra,
}


def main() -> int:
    names = sys.argv[1:] or list(SECTIONS)
    refs = workloads.load_references() if workloads.REFERENCES.exists() else {}
    for name in names:
        refs[name] = SECTIONS[name]()
        workloads.REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
        print(f"pinned {name}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
