"""Each script in demos/ runs to completion."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_runs(script, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                         os.environ.get("PYTHONPATH")]))
    # pytest's warning filter does not reach the subprocess
    res = subprocess.run([sys.executable, "-W", "error", str(script)],
                         cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
