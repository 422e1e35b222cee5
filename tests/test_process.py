"""What importing widewalk does to its own process: the OpenBLAS idle-spin
default that the package sets before numpy loads."""

import ast
import os
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
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
