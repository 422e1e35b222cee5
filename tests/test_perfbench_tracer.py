"""The benchmark's traced mode against the package: perfbench/tracer.py
rebinds public names of widewalk, so a rename or removal there breaks
`run.py --trace 1`.  This runs Tracer().install() in a fresh process, as
the benchmark's worker does, and reads perfbench without changing it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

SCRIPT = """
import sys

import widewalk
from tracer import WRAPPED, Tracer

tracer = Tracer()
tracer.install()
for origin, names in WRAPPED.items():
    for name in names:
        assert hasattr(getattr(sys.modules[origin], name), "__wrapped__"), (origin, name)
sys_ = widewalk.ReplacementSystem(
    widewalk.build_complete_selfloop(1), widewalk.build_aghp(2, 1), widewalk.WalkParams(1, 2, 1)
)
sys_.walk_from_seed(0, 1, (2, 3))
assert tracer.walk_from_seed_calls == [1], tracer.walk_from_seed_calls
print("installed")
"""


def test_tracer_installs_against_the_package():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "installed\n"
