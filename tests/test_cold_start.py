"""scipy loads on first use: fresh interpreters that run a command and report
which scipy modules they loaded."""
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import causalfs
from causalfs.selectors import Step, make_selector
from causalfs.synthlab import SvarSpec, generate_svar

SRC = Path(causalfs.__file__).resolve().parents[1]
LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"
SPEC = {"d": 5, "p": 1, "n": 90, "noise": "laplace", "seed": 11}


def fresh(script: str, *args) -> dict:
    """Run ``script`` in a new interpreter; the JSON on its last stdout line."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_pipeline_without_scipy(tmp_path):
    got = fresh(f"""
        import json, sys
        from pathlib import Path
        import causalfs
        from causalfs.cli import main
        from causalfs.synthlab import SvarSpec, export_fredmd, generate_svar

        work = Path(sys.argv[1])
        panel, _ = generate_svar(SvarSpec(**{SPEC!r}))
        for name, text in zip(("fredmd", "groups", "prices"), export_fredmd(panel)):
            (work / f"{{name}}.csv").write_text(text)
        (work / "crisis.txt").write_text("2003-01..2003-06\\n")
        (work / "run.toml").write_text(
            'fredmd_csv = "fredmd.csv"\\nprices_csv = "prices.csv"\\n'
            'groups_csv = "groups.csv"\\ncalendar = "crisis.txt"\\n'
            'window = 40\\nshift_months = 0\\n'
            'target_name = "Y"\\nselectors = ["sfs"]\\n')
        config = str(work / "run.toml")
        codes = [main([command, "--config", config])
                 for command in ("ingest", "backtest", "report")]
        print(json.dumps({{"codes": codes, "scipy": {LOADED}}}))
    """, tmp_path)
    assert got == {"codes": [0, 0, 0], "scipy": []}
    assert (tmp_path / "out" / "table1.csv").read_text().splitlines()[1].startswith("sfs,")


@pytest.mark.parametrize("sid, module", [
    ("granger", "scipy.special"),
    ("seqicp", "scipy.special"),
    ("pcmci", "scipy.special"),
    ("varlingam", "scipy.optimize"),
    ("dynotears", "scipy.linalg"),
])
def test_selector_loads_scipy_on_first_use(sid, module):
    got = fresh(f"""
        import json, sys
        from causalfs.selectors import Step, make_selector
        from causalfs.synthlab import SvarSpec, generate_svar

        panel, _ = generate_svar(SvarSpec(**{SPEC!r}))
        before = {LOADED}
        fs = make_selector(sys.argv[1])(Step(panel, 1, 0))
        print(json.dumps({{"before": before, "after": {LOADED},
                          "selected": sorted(fs.selected), "p_values": fs.p_values}}))
    """, sid)
    assert got["before"] == []
    assert module in got["after"]
    panel, _ = generate_svar(SvarSpec(**SPEC))
    fs = make_selector(sid)(Step(panel, 1, 0))
    assert got["selected"] == sorted(fs.selected)
    assert got["p_values"] == fs.p_values
