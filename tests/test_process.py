"""What importing widewalk does to its own process: the OpenBLAS idle-spin
default that the package sets before numpy loads, and the public names it
exports, pinned as one list; how a CLI process ends when the memory it asks for is refused;
the README's list of config keys, tied to the CLI's schema; and the CLI's
program entry, which freezes the import's objects and writes what main
writes."""

import ast
import gc
import json
import os
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import widewalk
from widewalk import cli

SRC = Path(__file__).resolve().parents[1] / "src"
README = SRC.parent / "README.md"
READ_TIMEOUT = "import widewalk, os; print(os.environ['OPENBLAS_THREAD_TIMEOUT'])"


def _env(**extra):
    """The test process's environment without its OPENBLAS_THREAD_TIMEOUT
    (importing widewalk here has set it), with src on the path."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return {**env, **extra}


def _python(code, env):
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_import_sets_the_openblas_idle_spin_to_its_floor():
    assert _python(READ_TIMEOUT, _env()) == "4"


def test_a_callers_own_openblas_timeout_wins():
    assert _python(READ_TIMEOUT, _env(OPENBLAS_THREAD_TIMEOUT="20")) == "20"


def test_the_default_is_set_before_any_submodule_is_imported():
    body = ast.parse((SRC / "widewalk" / "__init__.py").read_text()).body
    imports = [i for i, node in enumerate(body) if isinstance(node, (ast.Import, ast.ImportFrom))]
    sets = [i for i, node in enumerate(body) if "OPENBLAS_THREAD_TIMEOUT" in ast.unparse(node)]
    assert len(sets) == 1
    (at,) = sets
    assert ast.unparse(body[at]) == "os.environ.setdefault('OPENBLAS_THREAD_TIMEOUT', '4')"
    # only the os import comes before it
    assert [ast.unparse(body[i]) for i in imports if i < at] == ["import os"]


def test_a_cli_process_spends_no_more_cpu_than_wall_time():
    # one-sided: a process that runs on one thread cannot exceed it, while an
    # OpenBLAS worker spinning for work adds its spin on a second CPU
    nproc = len(os.sched_getaffinity(0))
    env = _env(OPENBLAS_NUM_THREADS=str(nproc))
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-m", "widewalk.cli", "graph", "complete", "--m", "2"],
                            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, ru = os.wait4(proc.pid, 0)
    wall = time.monotonic() - start
    assert os.waitstatus_to_exitcode(status) == 0
    assert ru.ru_utime + ru.ru_stime <= wall + 0.05


def test_every_exported_name_resolves_once_and_survives_star_import():
    names = widewalk.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(widewalk, name) for name in names)
    scope = {}
    exec("from widewalk import *", scope)
    assert {name: scope[name] for name in names} == {name: getattr(widewalk, name) for name in names}


def test_the_public_surface_is_pinned():
    # every name added to or removed from the package shows in this list
    assert sorted(widewalk.__all__) == [
        "AmplifiedCode", "BaseCodeSearchFailed", "BudgetExceeded", "CayleyGraph",
        "DistributionCheck", "DpTable", "HittingInstance", "LinearCode", "Moments",
        "ReplacementSystem", "SWalk", "SignedFn", "SpectralReport", "WalkParams",
        "build_aghp", "build_complete_selfloop", "check_base_case",
        "check_bias_reduction_lemma", "check_first_coord_uniform", "check_first_step_trick",
        "check_hitting", "check_induction_step", "check_local_invertibility",
        "check_middle_start_identity", "check_pseudorandomness", "check_pure_walk_bounds",
        "code_bias", "code_report", "dp_backwards", "dp_gk",
        "encode", "gen_base_code", "hitting_bound", "hitting_prob_exact",
        "middle_start_distribution_equal", "moments", "spectrum",
        "verify_induction_arithmetic",
    ]


def _address_space_of(limit):
    def apply():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    return apply


def test_a_refused_allocation_exits_3_with_one_line(tmp_path):
    # m = 10, s = 2, ell = 1 meets its hypotheses; the DP's working set is
    # 2 * 2^30 floats (16 GiB), more than the 4 GiB address space allowed
    # here, whatever the host's overcommit setting
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"m": 10, "s": 2, "ell": 1}))
    proc = subprocess.run(
        [sys.executable, "-m", "widewalk.cli", "verify", "base-case", "--config", str(config)],
        env=_env(OPENBLAS_NUM_THREADS="1"), preexec_fn=_address_space_of(4 << 30),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 3, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory: ")
    assert proc.stderr.count("\n") == 1


def test_the_readme_lists_the_config_keys_of_the_schema():
    # a key added to the schema or to the README alone fails here
    match = re.search(r"config key outside\s+these \w+ \(([^)]*)\)", README.read_text())
    assert match, "the README's config key sentence is missing"
    assert sorted(re.findall(r"`(\w+)`", match.group(1))) == sorted(cli._CONFIG_SCHEMA)


FREEZE_COUNT_AT_EXIT = """\
import atexit, gc, runpy, sys
atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))
sys.argv = ["widewalk", "graph", "complete", "--m", "2"]
runpy.run_module("widewalk.cli", run_name="__main__")
"""


def test_the_program_entry_freezes_the_import():
    # the collections at exit skip frozen objects
    proc = subprocess.run([sys.executable, "-c", FREEZE_COUNT_AT_EXIT], env=_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stderr) > 0


def test_main_in_process_freezes_nothing(capsys):
    before = gc.get_freeze_count()
    assert cli.main(["graph", "complete", "--m", "2"]) == cli.EXIT_PASS
    assert gc.get_freeze_count() == before


def test_the_script_and_the_module_share_one_entry():
    # read as text: tomllib is not in Python 3.10, which pyproject allows
    (script,) = re.findall(r'^widewalk = "widewalk\.cli:(\w+)"$',
                           (SRC.parent / "pyproject.toml").read_text(), re.M)
    (block,) = [node for node in ast.parse(Path(cli.__file__).read_text()).body
                if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"]
    assert ast.unparse(block.body[0]) == f"sys.exit({script}())"
    assert script != "main"


def test_the_program_entry_writes_what_main_writes(tmp_path, capsys):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"m": 3, "s": 3, "ell": 1}))
    codes = []
    for argv in (  # one for each exit code, 0 to 4, and one that writes --out
        ["graph", "aghp", "--r", "16", "--ell", "8"],  # 786,746 bytes through the pipe
        ["graph", "complete", "--m", "3", "--format", "csv", "--out", str(tmp_path / "k8.csv")],
        ["code", "gen-base", "--k", "2", "--n0", "2", "--target-bias", "0", "--max-tries", "5"],
        ["verify", "bias-lemma", "--config", str(config), "--seed", "-1"],
        ["code", "gen-base", "--k", "2", "--n0", "3000000000", "--target-bias", "0.5"],
        ["verify", "base-case", "--config", str(config), "--support", "empty"],
    ):
        out = Path(argv[-1]) if "--out" in argv else None
        proc = subprocess.run([sys.executable, "-m", "widewalk.cli", *argv], env=_env(),
                              capture_output=True, timeout=120)
        written = out.read_bytes() if out else None
        code = cli.main(argv)
        captured = capsys.readouterr()
        assert proc.returncode == code, argv
        assert proc.stdout == captured.out.encode(), argv
        # a report (exit 0 or 4) writes no stderr, an error (1, 2 or 3) one line
        assert proc.stderr.decode() == captured.err, argv
        assert captured.err.count("\n") == (code in (1, 2, 3)), argv
        if out:
            assert written == out.read_bytes() and written.startswith(b"# {")
        codes.append(code)
    assert codes == [0, 0, 1, 2, 3, 4]
