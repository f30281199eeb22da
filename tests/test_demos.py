"""Every narrative script under demos/ runs to completion.

The demos call the public library the way a reader would, so a removed
or renamed name surfaces here as a non-zero exit, and so does a
RuntimeWarning, an error as under pytest's filter and in the inventory.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[path.stem for path in DEMOS])
def test_demo_runs(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONWARNINGS"] = "error::RuntimeWarning"  # the policy of pytest's filter and the inventory
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300, env=env
    )
    assert proc.returncode == 0, proc.stderr
