"""Every demo script runs to completion against the source tree and prints
the output pinned in ``demo_output/<demo>.txt``, byte for byte.

An intended change of a demo's output is made by writing the demo's
stdout over its file and reviewing the diff.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
PINNED = Path(__file__).resolve().parent / "demo_output"


def test_demos_are_found():
    # an empty glob would leave nothing parametrised and pass vacuously
    assert DEMOS
    assert sorted(p.stem for p in PINNED.glob("*.txt")) == [d.stem for d in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_exits_0(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout == (PINNED / f"{demo.stem}.txt").read_text()
