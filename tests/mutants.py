"""One-line mutants of src/, each loosening one verdict, bound or
hypothesis, with the tier-1 test meant to kill it.

test_mutants.py checks, in tier-1, that each old text occurs exactly once
in src/, so the list cannot go stale silently.  Running the mutants is
opt-in, as each takes a pytest run:

    python tests/mutants.py [NAME ...]

copies src/, tests/, perfbench/ and pyproject.toml to a temporary
directory once per mutant, applies it there, runs its killer with pytest
and prints "killed" or "SURVIVED"; the exit status is 1 if any mutant
survives.  Each killer is first run on an unmutated copy, and must pass
there.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
AMPLIFY, CLI = "src/widewalk/amplify.py", "src/widewalk/cli.py"
CLI_TEST, AMPLIFY_TEST = "tests/test_cli.py", "tests/test_amplify.py"


class Mutant(NamedTuple):
    path: str
    old: str
    new: str
    killer: str  # a pytest node id, relative to the repository root


MUTANTS = {
    # the induction step's eps bound, 3 * sigma_{k-s} made 4 * sigma_{k-s}
    "M1": Mutant(AMPLIFY, "(eps[k - s] + 3 * sig[k - s])", "(eps[k - s] + 4 * sig[k - s])",
                 f"{CLI_TEST}::test_stdout_bytes_are_pinned"),
    # the first-step trick's lam^2 * sigma_{k-1}^2 made lam * sigma_{k-1}^2
    "M2": Mutant(AMPLIFY, "+ lam**2 * mom_prev.sigma**2", "+ lam * mom_prev.sigma**2",
                 f"{AMPLIFY_TEST}::test_first_step_verdict_flips_where_the_inequality_does"),
    # the hypothesis lambda_A <= lambda_B^2 made lambda_A <= lambda_B
    "M3": Mutant(AMPLIFY, "ok_lam = lam_a <= lam_b * lam_b", "ok_lam = lam_a <= lam_b",
                 f"{CLI_TEST}::test_skew16_system_fails_only_the_lambda_a_hypothesis"),
    # the slack of every float verdict
    "M4": Mutant("src/widewalk/graphs.py", "TOL_BOUND = 1e-12", "TOL_BOUND = 1e-6",
                 "tests/test_graphs.py::test_holds_is_value_at_most_bound_plus_the_slack"),
    # the base case's eps bound doubled
    "M5": Mutant(AMPLIFY, "bound_eps = 0.5 * (2 * lam) ** (k + 1)", "bound_eps = 1.0 * (2 * lam) ** (k + 1)",
                 f"{AMPLIFY_TEST}::test_base_case_flagship"),
    # check_hitting's verdict against twice its bound
    "M6": Mutant("src/widewalk/hitting.py", "exact <= bound))", "exact <= 2 * bound))",
                 "tests/test_hitting.py::test_the_verdict_fails_below_the_measured_lambda"),
    # the identity's rounding band widened by an absolute 1e-9
    "M7": Mutant(AMPLIFY, "residual <= size * math.ulp(0.5),", "residual <= size * math.ulp(0.5) + 1e-9,",
                 f"{AMPLIFY_TEST}::test_identity_band_refuses_blocks_read_in_the_wrong_order"),
    # the induction step's lam^2 * sigma_{k-1}^2 made lam * sigma_{k-1}^2
    "M8": Mutant(AMPLIFY, "+ lam**2 * sig[k - 1] ** 2", "+ lam * sig[k - 1] ** 2",
                 f"{CLI_TEST}::test_stdout_bytes_are_pinned"),
    # the headline verdict against twice its bound
    "M9": Mutant(AMPLIFY, "holds(mom.eps, bound), flag)", "holds(mom.eps, 2 * bound), flag)",
                 f"{AMPLIFY_TEST}::test_bias_lemma_verdict_flips_at_its_bound"),
    # code report's verdict forced to pass
    "M10": Mutant(CLI, 'passed = holds(report["bias"], report["bias_bound"])', "passed = True",
                  f"{CLI_TEST}::test_code_report_verdict_flips_at_its_bound"),
    # the induction arithmetic's validity region widened from s >= 5 to s >= 4
    "M11": Mutant(AMPLIFY, "valid = 0.0 < lam <= 0.25 and s >= 5", "valid = 0.0 < lam <= 0.25 and s >= 4",
                  f"{AMPLIFY_TEST}::test_induction_arithmetic_validity_region_ends_at_s_5_and_a_quarter"),
    # the first-step verdict against 1.01 * rhs
    "M12": Mutant(AMPLIFY, "InequalityCheck(holds(lhs, rhs),", "InequalityCheck(holds(lhs, 1.01 * rhs),",
                  f"{AMPLIFY_TEST}::test_first_step_verdict_flips_where_the_inequality_does"),
    # code report's verdict against twice its bound
    "M13": Mutant(CLI, 'holds(report["bias"], report["bias_bound"])',
                  'holds(report["bias"], 2 * report["bias_bound"])',
                  f"{CLI_TEST}::test_code_report_verdict_flips_at_its_bound"),
    # check_hitting's lambda halved
    "M14": Mutant("src/widewalk/hitting.py", "lam = spectrum(graph).lambda_exact",
                  "lam = spectrum(graph).lambda_exact / 2",
                  "tests/test_acceptance.py::test_acceptance_11_hitting_probabilities"),
}


def fails(killer: str, mutant: Optional[Mutant] = None) -> bool:
    """Whether the test killer fails on a copy of the repository, with
    mutant applied there if one is given."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        for name in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / name, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", copy)
        if mutant:
            target = copy / mutant.path
            text = target.read_text()
            if text.count(mutant.old) != 1:
                raise SystemExit(f"{mutant.path} does not hold {mutant.old!r} exactly once")
            target.write_text(text.replace(mutant.old, mutant.new))
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", killer],
            cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")}, capture_output=True,
        )
        if run.returncode not in (0, 1):  # 1: a test failed; anything else is no verdict
            raise SystemExit(f"pytest exited {run.returncode} on {killer}")
        return run.returncode == 1


def main(names: list[str]) -> int:
    mutants = {name: MUTANTS[name] for name in names or MUTANTS}
    # a killer that fails on the unmutated copy would kill every mutant
    for killer in sorted({m.killer for m in mutants.values()}):
        if fails(killer):
            raise SystemExit(f"{killer} fails with no mutant applied")
    survivors = 0
    for name, mutant in mutants.items():
        killed = fails(mutant.killer, mutant)
        survivors += not killed
        print(f"{name}: {'killed' if killed else 'SURVIVED'} by {mutant.killer}", flush=True)
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
