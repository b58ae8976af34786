"""Each demo runs in a fresh interpreter with RuntimeWarning raised as an
error, exits 0 and prints the line that shows it ran to its end."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import causalfs

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(causalfs.__file__).resolve().parents[1]


# demo -> the start of a line it prints near its end
LINES = {
    "backtest_walkthrough": "rolling RMSE (h=12) for granger: first ",
    "fredmd_pipeline": "aligned panel: 119 rows, 4 features, ",
    "structure_learning": "ICA-based causal order: ",
    "synthetic_selector_tour": "pcmci ",
}


@pytest.mark.parametrize("demo", LINES)
def test_demo_runs_and_prints_its_line(tmp_path, demo):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    script = DEMOS / f"{demo}.py"
    done = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                          cwd=tmp_path, capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr[-2000:]
    rows = done.stdout.splitlines()
    assert any(row.startswith(LINES[demo]) for row in rows), done.stdout[-2000:]
