"""Every script in demos/ runs to the end, as the README says it does."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedsim

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script, tmp_path):
    src = str(Path(fedsim.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, capture_output=True, text=True,
        timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert not any(tmp_path.iterdir())  # a demo prints; it writes no file
