import csv
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import causalfs
from causalfs import AlignedPanel
from causalfs.backtest import ledger_from_csv
from causalfs.cli import main
from causalfs.config import (
    RUN_CONFIG_KEYS,
    VALIDATE_KEYS,
    RunConfig,
    load_run_config,
    load_validate_config,
    parse_kv,
)
from causalfs.errors import ConfigError, GenerationFailed
from causalfs.ingest import Regime, read_panel
from causalfs.numerics import _ScaledSystems
from causalfs.panel import build_design
from causalfs.selectors import SELECTORS
from causalfs.synthlab import EnvShift, SvarSpec, export_fredmd, generate_svar

README = Path(__file__).resolve().parents[1] / "README.md"


@pytest.fixture
def workspace(tmp_path):
    """Toy data files plus a config, built from a synthetic panel."""
    panel, _ = generate_svar(
        SvarSpec(d=4, p=1, n=80, edge_density=0.3, seed=3, instantaneous=False)
    )
    fredmd_csv, groups_csv, prices_csv = export_fredmd(panel)
    (tmp_path / "fredmd.csv").write_text(fredmd_csv)
    (tmp_path / "groups.csv").write_text(groups_csv)
    (tmp_path / "prices.csv").write_text(prices_csv)
    (tmp_path / "crisis.txt").write_text("2003-01..2003-06\n")
    config = """
# toy run
fredmd_csv = "fredmd.csv"
prices_csv = "prices.csv"
groups_csv = "groups.csv"
calendar = "crisis.txt"
output_dir = "out"
window = 40
p = 1
metric_window = 6
shift_months = 0
seed = 7
target_name = "Y"
selectors = ["granger", "sfs"]
combine = ["granger", "sfs"]
combine_weight = 0.5

[selector.granger]
alpha = 0.1

[selector.sfs]
tol = 1e-6
max_features = 2
"""
    (tmp_path / "run.toml").write_text(config)
    return tmp_path


# Hand-written ledgers with dyadic values and a two-regime calendar: report's
# outputs depend on no fitted model, so these bytes hold on any BLAS. sfs has
# no crisis loss, so its crisis Sortino (and the combined book's) is blank.
GOLDEN_LEDGERS = {
    "granger": """date,y_true,y_pred,regime,selected
2020-01,1.5,0.5,normal,X1
2020-02,-0.75,0.25,normal,X1;X2
2020-03,-2.0,-1.0,crisis,X2
2020-04,3.25,-0.5,crisis,
2020-05,0.5,0.125,normal,X1
2020-06,-1.0,-0.25,normal,X1
""",
    "sfs": """date,y_true,y_pred,regime,selected
2020-01,1.5,1.0,normal,X3
2020-02,-0.75,-0.5,normal,X3
2020-03,-2.0,-0.75,crisis,X1;X3
2020-04,3.25,2.5,crisis,X1
2020-05,0.5,-0.25,normal,
2020-06,-1.0,0.0,normal,X3
""",
}

GOLDEN_SELECTOR_FILES = {
    "rolling_rmse_granger.csv": "date,value\n2020-03,1.0\n2020-04,2.3139072294858036\n"
    "2020-05,2.2511571098733496\n2020-06,2.218529918662356\n",
    "rolling_mae_granger.csv": "date,value\n2020-03,1.0\n2020-04,1.9166666666666667\n"
    "2020-05,1.7083333333333333\n2020-06,1.625\n",
    "stability_granger.csv": "date,X1,X2\n2020-01,1,0\n2020-02,1,1\n2020-03,0,1\n"
    "2020-04,0,0\n2020-05,1,0\n2020-06,1,0\n",
    "rolling_rmse_sfs.csv": "date,value\n2020-03,0.7905694150420949\n2020-04,0.8539125638299665\n"
    "2020-05,0.9464847243000456\n2020-06,0.8416254115301732\n",
    "rolling_mae_sfs.csv": "date,value\n2020-03,0.6666666666666666\n2020-04,0.75\n"
    "2020-05,0.9166666666666666\n2020-06,0.8333333333333334\n",
    "stability_sfs.csv": "date,X3,X1\n2020-01,1,0\n2020-02,1,0\n2020-03,1,1\n"
    "2020-04,0,1\n2020-05,0,0\n2020-06,1,0\n",
}

GOLDEN_REPORT_FILES = {
    **GOLDEN_SELECTOR_FILES,
    "table1.csv": "model,mae_normal,mae_crisis,rmse_normal,rmse_crisis,mae_increase_pct\n"
    "granger,0.78125,2.375,0.8220591524,2.7443123,204.0\n"
    "sfs,0.625,1.0,0.6846531969,1.0307764064,60.0\n",
    "table2.csv": "model,er_normal,er_crisis,sharpe_normal,sharpe_crisis,sortino_normal,"
    "sortino_crisis\n"
    "granger,6.75,-7.5,2.0180747504,-0.5832118435,5.1961524227,-0.9421114395\n"
    "sfs,5.25,31.5,1.7320508076,10.2878569197,6.0621778265,\n"
    '"combined(granger,sfs)",5.625,21.75,2.1983938594,23.6784008469,12.9903810568,\n',
    "combined_portfolio.csv": "date,value\n2020-01,1.5\n2020-02,0.375\n2020-03,2.0\n"
    "2020-04,1.625\n2020-05,-0.25\n2020-06,0.25\n",
    "metrics.json": """{
  "combined(granger,sfs)": {
    "book": {
      "crisis": {
        "count": 2,
        "er": 21.75,
        "sharpe": 23.678400846904054,
        "sortino": null
      },
      "normal": {
        "count": 4,
        "er": 5.625,
        "sharpe": 2.1983938593571417,
        "sortino": 12.990381056766578
      }
    }
  },
  "granger": {
    "book": {
      "crisis": {
        "count": 2,
        "er": -7.5,
        "sharpe": -0.5832118435198043,
        "sortino": -0.9421114395319916
      },
      "normal": {
        "count": 4,
        "er": 6.75,
        "sharpe": 2.0180747504302268,
        "sortino": 5.196152422706632
      }
    },
    "errors": {
      "crisis": {
        "count": 2,
        "mae": 2.375,
        "rmse": 2.7443123000125187
      },
      "normal": {
        "count": 4,
        "mae": 0.78125,
        "rmse": 0.8220591523728691
      }
    },
    "mae_increase_pct": 204.0
  },
  "sfs": {
    "book": {
      "crisis": {
        "count": 2,
        "er": 31.5,
        "sharpe": 10.287856919689347,
        "sortino": null
      },
      "normal": {
        "count": 4,
        "er": 5.25,
        "sharpe": 1.7320508075688772,
        "sortino": 6.06217782649107
      }
    },
    "errors": {
      "crisis": {
        "count": 2,
        "mae": 1.0,
        "rmse": 1.0307764064044151
      },
      "normal": {
        "count": 4,
        "mae": 0.625,
        "rmse": 0.6846531968814576
      }
    },
    "mae_increase_pct": 60.00000000000001
  }
}
""",
}


@pytest.fixture
def golden_workspace(tmp_path):
    """The golden ledgers plus a report config that combines them."""
    (tmp_path / "out").mkdir()
    for sid, text in GOLDEN_LEDGERS.items():
        (tmp_path / "out" / f"ledger_{sid}.csv").write_text(text)
    (tmp_path / "crisis.txt").write_text("2020-03..2020-04\n")
    (tmp_path / "run.toml").write_text(
        'calendar = "crisis.txt"\noutput_dir = "out"\nmetric_window = 3\n'
        'selectors = ["granger", "sfs"]\ncombine = ["granger", "sfs"]\ncombine_weight = 0.25\n'
    )
    return tmp_path


def run_cli(*args):
    return main([str(a) for a in args])


def exported_run(tmp_path, panel, selectors, extra=""):
    """``panel``'s exported input files and a run config over them, with
    window 40, a 2003-01..2003-06 crisis and ``extra`` appended."""
    for name, text in zip(("fredmd", "groups", "prices"), export_fredmd(panel)):
        (tmp_path / f"{name}.csv").write_text(text)
    (tmp_path / "crisis.txt").write_text("2003-01..2003-06\n")
    config = tmp_path / "run.toml"
    config.write_text('fredmd_csv = "fredmd.csv"\nprices_csv = "prices.csv"\n'
                      'groups_csv = "groups.csv"\ncalendar = "crisis.txt"\n'
                      f"window = 40\nselectors = {json.dumps(selectors)}\n{extra}")
    return config


def lab_with(column, name):
    """The d=4 lab of seed 3 with ``column(panel)`` appended as feature ``name``."""
    panel = generate_svar(SvarSpec(d=4, n=80, seed=3))[0]
    return AlignedPanel(panel.dates, np.column_stack([panel.data, column(panel)]),
                        (*panel.names, name))


def test_parser_built_once_and_bad_flag_exits_2_with_usage_each_time(monkeypatch, capsys):
    build = causalfs.cli.build_parser
    built = []
    monkeypatch.setattr(causalfs.cli, "build_parser", lambda: built.append(1) or build())
    causalfs.cli._parser.cache_clear()
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            run_cli("validate", "--config", "lab.toml", "--bogus")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: causalfs ")
        assert "unrecognized arguments: --bogus" in err
    assert built == [1]


class TestConfigFormat:
    def test_kv_parsing(self):
        parsed = parse_kv(
            'a = 1\nb = "text" # comment\nc = [1, 2, 3]\nflag = true\n'
            'hash = "a # b" # comment\nnames = ["a,b", "c"] # a, b\n'
            "[sec.sub]\nx = 2.5\n"
        )
        assert parsed["a"] == 1
        assert parsed["b"] == "text"
        assert parsed["c"] == [1, 2, 3]
        assert parsed["hash"] == "a # b"  # a '#' or ',' inside quotes separates nothing
        assert parsed["names"] == ["a,b", "c"]
        assert parsed["flag"] is True
        assert parsed["sec"]["sub"]["x"] == 2.5

    @pytest.mark.parametrize("command", ["ingest", "backtest", "report"])
    def test_window_set_twice_exit_2_naming_it(self, workspace, capsys, command):
        config = workspace / "run.toml"
        config.write_text("window = 50\n" + config.read_text())
        capsys.readouterr()
        assert run_cli(command, "--config", config) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "'window' set twice" in err
        assert "Traceback" not in err
        assert not (workspace / "out").exists()

    def test_json_alternative(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"window": 30, "selectors": ["granger"]}))
        cfg = load_run_config(path)
        assert cfg.window == 30

    def test_unknown_selector_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text('selectors = ["nope"]\n')
        with pytest.raises(ConfigError):
            load_run_config(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text("not_a_key = 1\n")
        with pytest.raises(ConfigError):
            load_run_config(path)

    @pytest.mark.parametrize("text", [
        pytest.param("[selector.pcmci]\nalpah = 0.1\n", id="unknown-key"),
        pytest.param('[selector.granger]\nalpha = "high"\n', id="ill-typed"),
        pytest.param("[selector.sfs]\nmax_features = [1, 2]\n", id="ill-typed-list"),
        pytest.param('[selector.seqicp]\nenvironments = "calender"\n', id="bad-environments"),
        pytest.param('[selector.sfs]\ndirection = "sideways"\n', id="bad-direction"),
        pytest.param("[selector.sfs]\nfolds = 1\n", id="sfs-one-fold"),
        pytest.param("[selector.bogus]\nalpha = 0.1\n", id="unknown-selector"),
        pytest.param("selector_timeout = 5.0\n", id="removed-timeout"),
    ])
    def test_bad_selector_config_rejected_at_load(self, tmp_path, text):
        path = tmp_path / "bad.toml"
        path.write_text('selectors = ["granger"]\n' + text)
        with pytest.raises(ConfigError):
            load_run_config(path)

    @pytest.mark.parametrize("text, message", [
        ("window = 60\nwindow = 90\n", "line 2: key 'window' set twice"),
        ("[selector.sfs]\ntol = 1\n\n[selector.sfs]\ntol = 2\n", "line 5: key 'tol' set twice"),
    ], ids=["top-level", "same-table-twice"])
    def test_toml_key_set_twice_rejected_naming_it(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_kv(text)

    @pytest.mark.parametrize("text, key", [
        ('{"window": 60, "window": 90}', "window"),
        ('{"selector": {"sfs": {"tol": 1, "tol": 2}}}', "tol"),
    ], ids=["top-level", "nested"])
    def test_json_key_set_twice_rejected_naming_it(self, tmp_path, text, key):
        # json.loads alone keeps the last value without a word
        path = tmp_path / "cfg.json"
        path.write_text(text)
        with pytest.raises(ConfigError, match=f"key '{key}' set twice"):
            load_run_config(path)

    @pytest.mark.parametrize("loader, name, text", [
        (load_run_config, "run.toml", "combine_weight = nan\n"),
        (load_run_config, "run.toml", "[selector.varlingam]\nedge_threshold = nan\n"),
        (load_run_config, "run.toml", "[selector.sfs]\ntol = -inf\n"),
        (load_run_config, "run.toml", "[selector.dynotears]\nh_tol = inf\n"),
        (load_run_config, "run.json", '{"combine_weight": Infinity}'),
        (load_validate_config, "lab.toml", "d = 4\nedge_density = nan\n"),
        (load_validate_config, "lab.json", '{"d": 4, "ar_coeff": NaN}'),
        (load_validate_config, "lab.json",
         '{"d": 4, "environment_shifts": [{"variable": "X1", "start_row": 1, "scale": Infinity}]}'),
    ], ids=["combine-weight-nan", "edge-threshold-nan", "tol-minus-inf", "h-tol-inf",
            "json-combine-weight-inf", "edge-density-nan", "json-ar-coeff-nan",
            "json-shift-scale-inf"])
    def test_non_finite_number_rejected(self, tmp_path, loader, name, text):
        path = tmp_path / name
        path.write_text(text)
        with pytest.raises(ConfigError, match="is not a finite number"):
            loader(path)

    def test_selector_params_kept_as_written(self, tmp_path):
        path = tmp_path / "ok.toml"
        path.write_text(
            'selectors = ["seqicp", "sfs"]\n[selector.seqicp]\n'
            'environments = "calendar"\nmax_subset_size = 1\n'
            '[selector.sfs]\ndirection = "backward"\ntol = 1\n'
        )
        cfg = load_run_config(path)
        assert cfg.selector_params == {
            "seqicp": {"environments": "calendar", "max_subset_size": 1},
            "sfs": {"direction": "backward", "tol": 1},
        }


def readme_table(heading):
    """The rows of the first Markdown table after ``heading``, as dicts."""
    lines = README.read_text().splitlines()
    rows = []
    for line in lines[lines.index(heading) + 1:]:
        if line.startswith("|"):
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        elif rows:
            break
    header, _, *body = rows
    return [dict(zip(header, row)) for row in body]


class TestReadme:
    def test_key_tables_name_exactly_the_code_tables(self):
        def keys(heading):
            return {row["key"].strip("`") for row in readme_table(heading)}

        assert keys("### Run config keys") == set(RUN_CONFIG_KEYS)
        assert keys("### Validate spec keys") == set(VALIDATE_KEYS)
        pairs, selector = set(), None
        for row in readme_table("### Selector parameters"):
            selector = row["selector"].strip("`") or selector
            pairs.add((selector, row["key"].strip("`")))
        assert pairs == {(sid, key) for sid, (_, table) in SELECTORS.items() for key in table}

    def test_examples_load(self, tmp_path):
        run, lab = re.findall(r"```toml\n(.*?)```", README.read_text(), re.S)
        (tmp_path / "run.toml").write_text(run)
        (tmp_path / "lab.toml").write_text(lab)
        assert load_run_config(tmp_path / "run.toml") == RunConfig(
            fredmd_csv="data/fredmd.csv", prices_csv="data/prices.csv",
            groups_csv="data/groups.csv", calendar="data/crisis.txt", output_dir="out",
            window=60, p=1, metric_window=12, shift_months=1, seed=7,
            selectors=["granger", "sfs"], combine=["granger", "sfs"], combine_weight=0.5,
            selector_params={"granger": {"alpha": 0.05}, "sfs": {"max_features": 10}},
            base_dir=tmp_path.resolve(),
        )
        cfg = load_validate_config(tmp_path / "lab.toml")
        assert cfg.spec == SvarSpec(d=11, p=1, n=500, edge_density=0.0, target_parents=3,
                                    ar_coeff=0.3, instantaneous=False, noise="gaussian")
        assert (cfg.n_seeds, cfg.selectors) == (100, ["granger", "pcmci"])


class TestIngest:
    def test_toy_run_exits_zero(self, workspace):
        assert run_cli("ingest", "--config", workspace / "run.toml") == 0
        out = workspace / "out"
        assert (out / "panel.csv").exists()
        assert json.loads((out / "panel_meta.json").read_text()) == {
            "target_name": "Y",
            "csv_sha256": hashlib.sha256((out / "panel.csv").read_bytes()).hexdigest(),
            "npy_sha256": hashlib.sha256((out / "panel.npy").read_bytes()).hexdigest(),
        }
        log = json.loads((out / "ingest_log.json").read_text())
        assert log["rows"] > 0

    def test_missing_file_exit_2(self, workspace):
        (workspace / "prices.csv").unlink()
        assert run_cli("ingest", "--config", workspace / "run.toml") == 2

    @pytest.mark.parametrize("name", ["Y\r", "Y\n", "Y\x00", "Y\u2028"])
    def test_unprintable_target_name_exit_2_at_load(self, workspace, capsys, name):
        # a bare carriage return would ingest, then split the panel header
        config = workspace / "run.json"
        config.write_text(json.dumps({
            "fredmd_csv": "fredmd.csv", "prices_csv": "prices.csv",
            "groups_csv": "groups.csv", "target_name": name,
        }))
        capsys.readouterr()
        assert run_cli("ingest", "--config", config) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "target_name" in err
        assert not (workspace / "out").exists()

    @pytest.mark.parametrize("command", ["ingest", "backtest"])
    @pytest.mark.parametrize("name", ["", " ", "A;B"])
    def test_blank_or_semicolon_target_name_exit_2_at_load(self, workspace, capsys,
                                                            command, name):
        # the target heads panel.csv like a series, so its name follows the
        # series rule: "" would write a blank header cell, "A;B" a name the
        # ledger's ';' separator splits
        config = workspace / "run.toml"
        config.write_text(config.read_text().replace('target_name = "Y"',
                                                     f'target_name = "{name}"'))
        capsys.readouterr()
        assert run_cli(command, "--config", config) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "target_name" in err
        assert repr(name) in err and "Traceback" not in err
        assert not (workspace / "out").exists()

    def test_run_without_calendar_has_only_normal_months(self, workspace):
        config = workspace / "run.toml"
        config.write_text(config.read_text().replace('calendar = "crisis.txt"\n', ""))
        (workspace / "crisis.txt").unlink()  # no command may look for it
        for command in ("ingest", "backtest", "report"):
            assert run_cli(command, "--config", config) == 0
        for sid in ("granger", "sfs"):
            ledger = ledger_from_csv((workspace / "out" / f"ledger_{sid}.csv").read_text())
            assert {r.regime for r in ledger.records} == {Regime.NORMAL}

    def test_group6_series_excluded(self, workspace):
        # tag X2 as the stock-market group; ingest must drop it and log it
        (workspace / "groups.csv").write_text(
            "series,group\nX1,1\nX2,6\nX3,2\n"
        )
        assert run_cli("ingest", "--config", workspace / "run.toml") == 0
        log = json.loads((workspace / "out" / "ingest_log.json").read_text())
        assert "X2" not in log["series_kept"]
        assert log["series_excluded_stock_group"] == ["X2"]
        header = (workspace / "out" / "panel.csv").read_text().splitlines()[0]
        assert "X2" not in header.split(",")

    def test_failed_ingest_leaves_no_panel_for_backtest(self, workspace, capsys):
        config = workspace / "run.toml"
        assert run_cli("ingest", "--config", config) == 0
        path = workspace / "fredmd.csv"
        path.write_text(path.read_text().replace("sasdate,X1,X2,X3", "sasdate,X1,X2,X1", 1))
        assert run_cli("ingest", "--config", config) == 2
        out = workspace / "out"
        for name in ("panel.csv", "panel.npy", "panel_meta.json", "ingest_log.json"):
            assert not (out / name).exists()
        capsys.readouterr()
        assert run_cli("backtest", "--config", config) == 3
        assert "missing artifact" in capsys.readouterr().err
        assert not list(out.glob("ledger_*"))

    def test_inf_transform_code_exit_2_naming_the_series(self, workspace, capsys):
        path = workspace / "fredmd.csv"
        lines = path.read_text().split("\n")
        lines[1] = ",".join(["Transform:", "inf", *lines[1].split(",")[2:]])
        path.write_text("\n".join(lines))
        capsys.readouterr()
        assert run_cli("ingest", "--config", workspace / "run.toml") == 2
        assert "error: transform code 'inf' for X1 is not one of 1..7" in capsys.readouterr().err

    def test_inputs_never_mutated(self, workspace):
        before = {
            name: (workspace / name).read_bytes()
            for name in ("fredmd.csv", "groups.csv", "prices.csv", "crisis.txt")
        }
        run_cli("ingest", "--config", workspace / "run.toml")
        run_cli("backtest", "--config", workspace / "run.toml")
        run_cli("report", "--config", workspace / "run.toml")
        for name, blob in before.items():
            assert (workspace / name).read_bytes() == blob


class TestBacktest:
    def test_before_ingest_exit_3(self, workspace):
        assert run_cli("backtest", "--config", workspace / "run.toml") == 3

    @pytest.mark.parametrize("meta", ['{"target_name": "Y"', '["Y"]', '{"target_name": 5}'],
                             ids=["truncated", "list", "number"])
    def test_corrupt_panel_meta_exit_2_naming_it(self, workspace, capsys, meta):
        config = workspace / "run.toml"
        assert run_cli("ingest", "--config", config) == 0
        path = workspace / "out" / "panel_meta.json"
        path.write_text(meta)
        capsys.readouterr()
        assert run_cli("backtest", "--config", config) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path.resolve()}: ") and "panel.csv" not in err
        assert not list(path.parent.glob("ledger_*"))

    def test_meta_target_named_like_a_feature_exit_2_naming_it(self, workspace, capsys):
        # the digests still match both panel files, so the binary copy is
        # read, and the target's name checks run as on the CSV path
        config = workspace / "run.toml"
        assert run_cli("ingest", "--config", config) == 0
        out = workspace / "out"
        meta = json.loads((out / "panel_meta.json").read_text())
        (out / "panel_meta.json").write_text(json.dumps({**meta, "target_name": "X1"}))
        capsys.readouterr()
        assert run_cli("backtest", "--config", config) == 2
        err = capsys.readouterr().err
        assert err == (f"error: {(out / 'panel.csv').resolve()}: "
                       "target 'X1' is also a feature column\n")
        assert not list(out.glob("ledger_*"))

    def test_run_dir_without_binary_copy_backtests_to_the_same_bytes(self, workspace):
        # an output directory of an older ingest: no panel.npy, and a meta
        # file holding only target_name
        config = workspace / "run.toml"
        assert run_cli("ingest", "--config", config) == 0
        assert run_cli("backtest", "--config", config) == 0
        out = workspace / "out"
        ledgers = {p.name: p.read_bytes() for p in out.glob("ledger_*")}
        (out / "panel.npy").unlink()
        (out / "panel_meta.json").write_text('{"target_name": "Y"}\n')
        assert run_cli("backtest", "--config", config) == 0
        assert {p.name: p.read_bytes() for p in out.glob("ledger_*")} == ledgers

    def test_calendar_environments_without_calendar_exit_2(self, workspace, capsys):
        config = workspace / "run.toml"
        assert run_cli("ingest", "--config", config) == 0
        text = config.read_text().replace('calendar = "crisis.txt"\n', "")
        config.write_text(text + '[selector.seqicp]\nenvironments = "calendar"\n')
        capsys.readouterr()
        assert run_cli("backtest", "--config", config, "--selectors", "seqicp") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "environments" in err and "calendar" in err
        assert not list((workspace / "out").glob("ledger_*"))

    def test_calendar_removed_after_ingest_exit_2_naming_it(self, workspace, capsys):
        config = workspace / "run.toml"
        assert run_cli("ingest", "--config", config) == 0
        (workspace / "crisis.txt").unlink()
        capsys.readouterr()
        assert run_cli("backtest", "--config", config) == 2
        err = capsys.readouterr().err
        assert err.startswith("missing file: ") and "crisis.txt" in err
        assert not list((workspace / "out").glob("ledger_*"))

    def test_reselect_every_12_rerun_byte_identical(self, tmp_path):
        sids = ["granger", "sfs", "pcmci"]
        config = exported_run(tmp_path, generate_svar(SvarSpec(d=4, n=80, seed=3))[0], sids,
                              "reselect_every = 12\n")
        assert run_cli("ingest", "--config", config) == 0
        runs = []
        for _ in range(2):
            assert run_cli("backtest", "--config", config) == 0
            runs.append([(tmp_path / "out" / f"ledger_{sid}.csv").read_bytes() for sid in sids])
        assert runs[0] == runs[1]

    def backtest_logs_no_fallback(self, config, sids, caplog):
        with caplog.at_level("WARNING"):
            assert run_cli("backtest", "--config", config) == 0
        assert not any("falling back" in r.getMessage() for r in caplog.records)
        for sid in sids:
            assert (config.parent / "out" / f"ledger_{sid}.csv").stat().st_size > 0

    def test_constant_feature_pcmci_logs_no_fallback(self, tmp_path, caplog):
        panel = lab_with(lambda p: np.full(len(p), 0.07), "CONST")
        config = exported_run(tmp_path, panel, ["pcmci"])
        assert run_cli("ingest", "--config", config) == 0
        self.backtest_logs_no_fallback(config, ["pcmci"], caplog)

    def test_near_copy_failing_the_guard_logs_no_fallback(self, tmp_path, caplog):
        # the last feature nearly copies X3, which sfs picks (noise 1e-5 of its
        # sd): the F tests take the SVD form, seqicp's subsets and sfs's folds
        # holding both are refit by least squares, and PCMCI's tests of one
        # given the other go to partial_correlation
        def near_copy(panel):
            x = panel.data[:, 3]
            return x + 1e-5 * x.std() * np.random.default_rng(0).normal(size=len(x))

        sids = ["granger", "seqicp", "sfs", "pcmci"]
        config = exported_run(tmp_path, lab_with(near_copy, "X3_COPY"), sids)
        assert run_cli("ingest", "--config", config) == 0
        out = tmp_path / "out"
        first = build_design(read_panel(out / "panel.csv", out / "panel_meta.json").head(40), 1)
        assert not _ScaledSystems(first.engine.gram[:-1, :-1]).ok
        self.backtest_logs_no_fallback(config, sids, caplog)

    def test_ledgers_written(self, workspace):
        run_cli("ingest", "--config", workspace / "run.toml")
        assert run_cli("backtest", "--config", workspace / "run.toml") == 0
        out = workspace / "out"
        granger = (out / "ledger_granger.csv").read_text()
        sfs = (out / "ledger_sfs.csv").read_text()
        dates_g = [line.split(",")[0] for line in granger.splitlines()[1:]]
        dates_s = [line.split(",")[0] for line in sfs.splitlines()[1:]]
        assert dates_g == dates_s  # identical date columns
        manifest = json.loads((out / "manifest_granger.json").read_text())
        assert manifest["n_records"] == len(dates_g)

    def test_rerun_byte_identical(self, workspace):
        run_cli("ingest", "--config", workspace / "run.toml")
        run_cli("backtest", "--config", workspace / "run.toml")
        first = (workspace / "out" / "ledger_granger.csv").read_bytes()
        run_cli("backtest", "--config", workspace / "run.toml")
        second = (workspace / "out" / "ledger_granger.csv").read_bytes()
        assert first == second

    def test_selector_override_flag(self, workspace):
        run_cli("ingest", "--config", workspace / "run.toml")
        assert run_cli(
            "backtest", "--config", workspace / "run.toml",
            "--selectors", "granger",
        ) == 0
        assert not (workspace / "out" / "ledger_sfs.csv").exists()

    def test_unknown_selector_flag_exit_2(self, workspace):
        assert run_cli(
            "backtest", "--config", workspace / "run.toml", "--selectors", "zzz"
        ) == 2

    @pytest.mark.parametrize("flag, named", [
        (",", "at least one selector id"), ("granger,sfs,granger", "'granger' listed twice"),
    ], ids=["empty", "repeated"])
    def test_selectors_flag_empty_or_repeated_exit_2_before_any_ledger(
        self, workspace, capsys, flag, named
    ):
        run_cli("ingest", "--config", workspace / "run.toml")
        capsys.readouterr()
        assert run_cli("backtest", "--config", workspace / "run.toml", "--selectors", flag) == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err
        assert not list((workspace / "out").glob("ledger_*"))

    def test_negative_seed_flag_exit_2_before_any_ledger(self, workspace, capsys):
        run_cli("ingest", "--config", workspace / "run.toml")
        capsys.readouterr()
        assert run_cli("backtest", "--config", workspace / "run.toml", "--seed", "-1") == 2
        assert "config error" in capsys.readouterr().err
        assert not list((workspace / "out").glob("ledger_*"))

    def test_panel_no_longer_than_window_exit_2(self, workspace, capsys):
        config = workspace / "run.toml"
        assert run_cli("ingest", "--config", config) == 0
        config.write_text(config.read_text().replace("window = 40", "window = 100"))
        capsys.readouterr()
        assert run_cli("backtest", "--config", config) == 2
        assert "must exceed window+1=101" in capsys.readouterr().err
        assert not list((workspace / "out").glob("ledger_*"))

    def test_failed_backtest_leaves_no_earlier_ledger_for_report(self, workspace, capsys):
        # the failing run removes the files of the selectors it runs, and only those
        config = workspace / "run.toml"
        assert run_cli("ingest", "--config", config) == 0
        assert run_cli("backtest", "--config", config) == 0
        out = workspace / "out"
        (out / "ledger_granger.csv.partial").write_text("")  # an earlier abort's
        sfs_ledger = (out / "ledger_sfs.csv").read_text()
        config.write_text(config.read_text().replace("window = 40", "window = 100"))
        capsys.readouterr()
        assert run_cli("backtest", "--config", config, "--selectors", "granger") == 2
        assert "must exceed window+1=101" in capsys.readouterr().err
        assert sorted(p.name for p in out.glob("*_*")) == [
            "ingest_log.json", "ledger_sfs.csv", "manifest_sfs.json", "panel_meta.json"]
        assert (out / "ledger_sfs.csv").read_text() == sfs_ledger
        assert run_cli("report", "--config", config) == 3
        assert capsys.readouterr().err == f"missing artifact: {out / 'ledger_granger.csv'}\n"
        assert not (out / "table1.csv").exists()

    def test_selector_programming_error_raises_out_of_main(self, workspace, monkeypatch):
        import causalfs.backtest as bt

        def broken(step):
            raise TypeError("bug inside a selector")

        assert run_cli("ingest", "--config", workspace / "run.toml") == 0
        monkeypatch.setattr(bt, "make_selector", lambda sid, params: broken)
        with pytest.raises(TypeError, match="bug inside a selector"):
            run_cli("backtest", "--config", workspace / "run.toml")

    @pytest.mark.parametrize("abort_step", [0, 5])
    def test_forecast_fit_error_aborts_with_partial_ledger(
        self, workspace, monkeypatch, capsys, abort_step
    ):
        import causalfs.backtest as bt
        from causalfs.backtest import ledger_from_csv
        from causalfs.cli import EXIT_ABORTED

        config, out = workspace / "run.toml", workspace / "out"
        assert run_cli("ingest", "--config", config) == 0
        assert run_cli("backtest", "--config", config) == 0
        full = ledger_from_csv((out / "ledger_granger.csv").read_text())
        for path in out.glob("ledger_*"):
            path.unlink()
        fit = bt.fit_forecast_model

        def failing(panel, p, selected, months):
            if 40 + abort_step in months:  # a run that forecasts month 40 + abort_step
                raise np.linalg.LinAlgError("SVD did not converge")
            return fit(panel, p, selected, months)

        monkeypatch.setattr(bt, "fit_forecast_model", failing)
        capsys.readouterr()
        assert run_cli("backtest", "--config", config) == EXIT_ABORTED == 1
        assert "selector granger aborted: hard error at" in capsys.readouterr().err
        assert sorted(p.name for p in out.glob("ledger_*")) == ["ledger_granger.csv.partial"]
        partial = ledger_from_csv((out / "ledger_granger.csv.partial").read_text())
        assert partial.records == full.records[:abort_step]

    def test_exit_codes_documented(self):
        import causalfs.cli as cli

        codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
        assert codes == {0, 1, 2, 3, 4}
        for text in (cli.__doc__, README.read_text()):
            listed = re.search(r"Exit codes: (.*?generation failure)", text, re.S).group(1)
            assert {int(code) for code in re.findall(r"\b(\d)\s", listed)} == codes

    def test_bad_selector_param_exit_2_before_any_ledger(self, workspace):
        run_cli("ingest", "--config", workspace / "run.toml")
        config = workspace / "run.toml"
        config.write_text(config.read_text() + "alpah = 0.1\n")  # into [selector.sfs]
        assert run_cli("backtest", "--config", config) == 2
        assert not list((workspace / "out").glob("ledger_*"))

    @pytest.mark.parametrize("old, new", [
        ("p = 1", "p = 0"),
        ("window = 40", "window = 3"),
        ("seed = 7", "seed = 7\nreselect_every = 0"),
        ("p = 1", "p = 1.5"),
        ("seed = 7", 'seed = "abc"'),
        ("seed = 7", "seed = -1"),
        ("seed = 7", "seed = true"),
        ("window = 40", "window = 40.0"),
        ("metric_window = 6", "metric_window = 0"),
        ("shift_months = 0", "shift_months = -1"),
        ("combine_weight = 0.5", 'combine_weight = "x"'),
        ('combine = ["granger", "sfs"]', 'combine = ["granger"]'),
        ('target_name = "Y"', "target_name = 5"),
        ('output_dir = "out"', 'output_dir = "out"\nselector_timeout = 5'),
        ("max_features = 2", 'max_features = 2\n[selector.varlingam]\nuse_instantaneous = "false"'),
        ("max_features = 2", "max_features = 2\nfolds = 2.7"),
        ("max_features = 2", "max_features = 2\n[selector.varlingam]\nk_clusters = 0"),
        ("alpha = 0.1", "alpha = 5"),
        ("alpha = 0.1", "alpha = true"),
        ("max_features = 2", "max_features = 2\n[selector.seqicp]\nalpha = 0.0"),
        ("max_features = 2", "max_features = 2\n[selector.seqicp]\nmax_subset_size = -1"),
        ("max_features = 2", "max_features = 2\n[selector.pcmci]\nalpha = 1"),
        ("max_features = 2", "max_features = 2\n[selector.pcmci]\nmax_cond_dim = -1"),
        ("max_features = 2", "max_features = 2\n[selector.pcmci]\nmax_parents_stage1 = 0"),
        ("max_features = 2", "max_features = 2\n[selector.dynotears]\nh_tol = 0.0"),
        ("max_features = 2", "max_features = -1"),
        ("max_features = 2", 'max_features = -3\ndirection = "backward"'),
        ("max_features = 2", "max_features = 2\n[selector.dynotears]\nlambda_w = -0.1"),
        ("max_features = 2", "max_features = 2\n[selector.dynotears]\nlambda_s = -1.0"),
        ('combine = ["granger", "sfs"]', 'combine = ["granger", "pcmci"]'),
        ('selectors = ["granger", "sfs"]\ncombine = ["granger", "sfs"]', "selectors = []\ncombine = []"),
        ('selectors = ["granger", "sfs"]\ncombine = ["granger", "sfs"]',
         'selectors = ["granger", "granger"]\ncombine = []'),
        ('combine = ["granger", "sfs"]', 'combine = ["sfs", "sfs"]'),
    ], ids=["p-zero", "window-le-p-plus-2", "reselect-zero", "p-not-integer",
            "seed-string", "seed-negative", "seed-bool", "window-float", "metric-window-zero",
            "shift-months-negative", "combine-weight-string", "combine-one-id",
            "target-name-int", "unknown-key", "use-instantaneous-string", "folds-float",
            "k-clusters-zero", "granger-alpha-above-one", "granger-alpha-bool",
            "seqicp-alpha-zero", "seqicp-max-subset-negative", "pcmci-alpha-one",
            "pcmci-max-cond-dim-negative", "pcmci-max-parents-zero", "dynotears-h-tol-zero",
            "sfs-max-features-negative", "sfs-backward-max-features-negative",
            "dynotears-lambda-w-negative", "dynotears-lambda-s-negative",
            "combine-unlisted-selector", "selectors-empty", "selectors-repeated",
            "combine-repeated"])
    def test_infeasible_run_config_exit_2_before_any_ledger(self, workspace, capsys, old, new):
        assert run_cli("ingest", "--config", workspace / "run.toml") == 0
        config = workspace / "run.toml"
        text = config.read_text()
        assert old in text
        config.write_text(text.replace(old, new))
        capsys.readouterr()
        assert run_cli("backtest", "--config", config) == 2
        assert "config error" in capsys.readouterr().err
        assert not list((workspace / "out").glob("ledger_*"))


class TestReport:
    def run_pipeline(self, workspace):
        run_cli("ingest", "--config", workspace / "run.toml")
        run_cli("backtest", "--config", workspace / "run.toml")

    def test_missing_ledger_exit_3(self, workspace):
        run_cli("ingest", "--config", workspace / "run.toml")
        assert run_cli("report", "--config", workspace / "run.toml") == 3

    def test_report_files_exist_and_parse(self, workspace):
        self.run_pipeline(workspace)
        assert run_cli("report", "--config", workspace / "run.toml") == 0
        out = workspace / "out"
        table1 = (out / "table1.csv").read_text().splitlines()
        assert table1[0].startswith("model,mae_normal")
        assert len(table1) == 3  # header + two selectors
        table2 = (out / "table2.csv").read_text().splitlines()
        assert len(table2) == 4  # two selectors + combined
        for name in (
            "rolling_rmse_granger.csv", "rolling_mae_sfs.csv",
            "stability_granger.csv", "combined_portfolio.csv", "metrics.json",
        ):
            assert (out / name).exists()

    def test_report_matches_direct_evaluation(self, workspace):
        from causalfs import evaluation
        from causalfs.backtest import ledger_from_csv
        from causalfs.ingest import Regime, load_calendar

        self.run_pipeline(workspace)
        run_cli("report", "--config", workspace / "run.toml")
        out = workspace / "out"
        ledger = ledger_from_csv((out / "ledger_granger.csv").read_text())
        calendar = load_calendar((workspace / "crisis.txt").read_text())
        report = evaluation.regime_metrics(ledger, calendar)
        row = (out / "table1.csv").read_text().splitlines()[1].split(",")
        assert row[0] == "granger"
        assert float(row[1]) == pytest.approx(
            report[Regime.NORMAL]["mae"], abs=1e-9
        )

    def test_combine_outside_selectors_flag_exit_3(self, workspace, capsys):
        # the config's own selectors cover combine; a --selectors override
        # that drops one of them loads, and report finds no ledger for it
        self.run_pipeline(workspace)
        capsys.readouterr()
        config = workspace / "run.toml"
        assert run_cli("report", "--config", config, "--selectors", "granger") == 3
        assert "combine refers to selectors without ledgers" in capsys.readouterr().err

    @pytest.mark.parametrize("break_run, code", [
        (lambda out, config: (out / "ledger_granger.csv").unlink(), 3),
        (lambda out, config: config.write_text(
            config.read_text().replace("metric_window = 6", "metric_window = 999")), 2),
    ], ids=["missing-ledger", "metric-window"])
    def test_failed_report_leaves_no_earlier_report(self, workspace, break_run, code):
        config, out = workspace / "run.toml", workspace / "out"
        self.run_pipeline(workspace)
        before = {p.name for p in out.iterdir()}
        assert run_cli("report", "--config", config) == 0
        written = {p.name for p in out.iterdir()} - before
        assert {"table1.csv", "table2.csv", "metrics.json", "combined_portfolio.csv",
                "rolling_rmse_sfs.csv", "stability_granger.csv"} <= written
        break_run(out, config)
        assert run_cli("report", "--config", config) == code
        assert not written & {p.name for p in out.iterdir()}

    def test_combine_outside_selectors_rejected_at_load(self, workspace):
        config = workspace / "run.toml"
        config.write_text(config.read_text().replace(
            'selectors = ["granger", "sfs"]', 'selectors = ["granger"]'))
        with pytest.raises(ConfigError, match=r"combine names \['sfs'\]"):
            load_run_config(config)
        assert run_cli("ingest", "--config", config) == 2
        assert not (workspace / "out").exists()

    def test_golden_bytes(self, golden_workspace):
        assert run_cli("report", "--config", golden_workspace / "run.toml") == 0
        out = golden_workspace / "out"
        written = {p.name for p in out.iterdir()} - {f"ledger_{s}.csv" for s in GOLDEN_LEDGERS}
        assert written == set(GOLDEN_REPORT_FILES)
        for name, text in GOLDEN_REPORT_FILES.items():
            assert (out / name).read_text() == text, name

    def test_combine_exit_3_writes_nothing(self, golden_workspace):
        config = golden_workspace / "run.toml"
        assert run_cli("report", "--config", config, "--selectors", "granger") == 3
        out = golden_workspace / "out"
        assert sorted(p.name for p in out.iterdir()) == ["ledger_granger.csv", "ledger_sfs.csv"]

    def test_scoring_error_exit_2_naming_the_ledger_and_writing_nothing(
        self, golden_workspace, capsys
    ):
        # with metric_window 1, sfs's one record passes the window check and
        # fails only when its book is scored, after granger's scored fine
        out = golden_workspace / "out"
        config = golden_workspace / "run.toml"
        config.write_text(config.read_text().replace("metric_window = 3", "metric_window = 1"))
        short = out / "ledger_sfs.csv"
        short.write_text("".join(GOLDEN_LEDGERS["sfs"].splitlines(keepends=True)[:2]))
        capsys.readouterr()
        assert run_cli("report", "--config", config) == 2
        err = capsys.readouterr().err
        assert err == f"error: {short}: need at least two strategy returns\n"
        assert sorted(p.name for p in out.iterdir()) == ["ledger_granger.csv", "ledger_sfs.csv"]

    def test_ledger_of_another_calendar_exit_2_naming_it_and_the_month(
        self, golden_workspace, capsys
    ):
        # both ledgers mark 2020-03..2020-04 crisis; this calendar moves the
        # crisis a month later, so 2020-03 is the first month that disagrees
        (golden_workspace / "crisis.txt").write_text("2020-04..2020-05\n")
        capsys.readouterr()
        assert run_cli("report", "--config", golden_workspace / "run.toml") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert "ledger_granger.csv marks 2020-03 crisis" in err
        assert "makes it normal" in err
        out = golden_workspace / "out"
        assert sorted(p.name for p in out.iterdir()) == ["ledger_granger.csv", "ledger_sfs.csv"]

    @pytest.mark.parametrize("old, new, row, expected", [
        ("2020-04,", "2020-03,", "2020-03", "expected month 2020-04 after 2020-03, got 2020-03"),
        ("2020-03,-2.0,-0.75,crisis,X1;X3\n", "", "2020-04",
         "expected month 2020-03 after 2020-02, got 2020-04"),
        ("2020-05,", "2020-01,", "2020-01", "expected month 2020-05 after 2020-04, got 2020-01"),
    ], ids=["repeated", "skipped", "backwards"])
    def test_ledger_months_out_of_step_exit_2_naming_it_and_writing_nothing(
        self, golden_workspace, capsys, old, new, row, expected
    ):
        out = golden_workspace / "out"
        bad = out / "ledger_sfs.csv"
        assert old in bad.read_text()
        bad.write_text(bad.read_text().replace(old, new))
        capsys.readouterr()
        assert run_cli("report", "--config", golden_workspace / "run.toml") == 2
        assert capsys.readouterr().err == f"error: {bad}: row '{row}': {expected}\n"
        assert sorted(p.name for p in out.iterdir()) == ["ledger_granger.csv", "ledger_sfs.csv"]

    @pytest.mark.parametrize("one_month", [False, True], ids=["golden", "one-crisis-month"])
    def test_table_cells_are_metrics_json_rounded(self, golden_workspace, one_month):
        # one score behind both: each table cell is its metrics.json value
        # rounded to 10 digits, blank exactly where that value is absent or null
        out = golden_workspace / "out"
        if one_month:  # 2020-04 turns normal, so each book's crisis has one month
            (golden_workspace / "crisis.txt").write_text("2020-03..2020-03\n")
            for sid, text in GOLDEN_LEDGERS.items():
                lines = text.splitlines(keepends=True)
                lines[4] = lines[4].replace(",crisis,", ",normal,")
                (out / f"ledger_{sid}.csv").write_text("".join(lines))
        assert run_cli("report", "--config", golden_workspace / "run.toml") == 0
        metrics = json.loads((out / "metrics.json").read_text())
        blank = []
        for table, part in (("table1.csv", "errors"), ("table2.csv", "book")):
            with open(out / table, newline="") as f:
                for row in csv.DictReader(f):
                    model = row.pop("model")
                    for name, cell in row.items():
                        if name == "mae_increase_pct":
                            value = metrics[model][name]
                        else:
                            figure, regime = name.split("_")
                            value = metrics[model][part].get(regime, {}).get(figure)
                        if value is None:
                            blank.append((model, name))
                            assert cell == ""
                        else:
                            assert float(cell) == round(value, 10), (model, name)
        books = ("granger", "sfs", "combined(granger,sfs)")
        if one_month:
            assert metrics["granger"]["book"]["crisis"] == {
                "count": 1, "er": None, "sharpe": None, "sortino": None}
            assert blank == [(m, f"{f}_crisis") for m in books for f in ("er", "sharpe", "sortino")]
        else:
            assert blank == [(m, "sortino_crisis") for m in books[1:]]

    def test_ledger_shorter_than_metric_window_exit_2_before_any_output(
        self, golden_workspace, capsys
    ):
        # every ledger is checked first: sfs's 2 records fail metric_window 3
        # before any of granger's series is written
        out = golden_workspace / "out"
        short = "".join(GOLDEN_LEDGERS["sfs"].splitlines(keepends=True)[:3])
        (out / "ledger_sfs.csv").write_text(short)
        assert run_cli("report", "--config", golden_workspace / "run.toml") == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: metric_window 3 exceeds the 2 records of ")
        assert "ledger_sfs.csv" in err
        assert sorted(p.name for p in out.iterdir()) == ["ledger_granger.csv", "ledger_sfs.csv"]

    def test_crisis_free_calendar_flags_absent(self, workspace):
        (workspace / "crisis.txt").write_text("# no crises\n")
        self.run_pipeline(workspace)
        assert run_cli("report", "--config", workspace / "run.toml") == 0
        row = (workspace / "out" / "table1.csv").read_text().splitlines()[1]
        cells = row.split(",")
        assert cells[2] == ""  # crisis MAE absent
        assert cells[5] == ""  # increase undefined


# One broken cell or row per case: (command, file, line, edit of that line's
# cells). Each must end in exit 2 naming the row, not in a traceback.
MALFORMED_CSV = {
    "price-close": ("ingest", "prices.csv", 5, lambda c: [c[0], "abc"]),
    "price-date": ("ingest", "prices.csv", 5, lambda c: ["2000-xx-28", c[1]]),
    "fredmd-cell": ("ingest", "fredmd.csv", 5, lambda c: [c[0], "1.2.3", *c[2:]]),
    "fredmd-date": ("ingest", "fredmd.csv", 5, lambda c: ["13/1/2000", *c[1:]]),
    "fredmd-inf": ("ingest", "fredmd.csv", 5, lambda c: [c[0], "inf", *c[2:]]),
    "groups-tag": ("ingest", "groups.csv", 2, lambda c: [c[0], "x"]),
    "panel-float": ("backtest", "out/panel.csv", 5, lambda c: [c[0], c[1], "1.2.3", *c[3:]]),
    "panel-date": ("backtest", "out/panel.csv", 5, lambda c: ["2000-4", *c[1:]]),
    "panel-inf": ("backtest", "out/panel.csv", 5, lambda c: [c[0], c[1], "-inf", *c[3:]]),
    "ledger-short-row": ("report", "out/ledger_granger.csv", 3, lambda c: c[:3]),
    "ledger-date": ("report", "out/ledger_granger.csv", 3, lambda c: ["2003/05", *c[1:]]),
    "ledger-regime": ("report", "out/ledger_granger.csv", 3, lambda c: [*c[:3], "panic", c[4]]),
    "ledger-float": ("report", "out/ledger_granger.csv", 3, lambda c: [c[0], "0x1p-3", *c[2:]]),
    "ledger-header": ("report", "out/ledger_granger.csv", 0, lambda c: ["month", *c[1:]]),
}


# One input file per case, by the command that first reads it: (command, file)
NON_UTF8 = {
    "fredmd": ("ingest", "fredmd.csv"),
    "groups": ("ingest", "groups.csv"),
    "prices": ("ingest", "prices.csv"),
    "calendar": ("backtest", "crisis.txt"),
    "panel": ("backtest", "out/panel.csv"),
    "ledger": ("report", "out/ledger_granger.csv"),
    "run-config": ("ingest", "run.toml"),
}


def _month_of(date: str) -> str:
    """YYYY-MM of a price file's YYYY-MM-DD or a FRED-MD file's M/D/YYYY."""
    if "/" in date:
        month, _, year = date.split("/")
        return f"{year}-{int(month):02d}"
    return date[:7]


class TestMalformedCsv:
    @pytest.mark.parametrize("case", NON_UTF8)
    def test_non_utf8_byte_exit_2_naming_the_file(self, workspace, capsys, case):
        command, name = NON_UTF8[case]
        config = workspace / "run.toml"
        steps = ("ingest", "backtest", "report")
        for earlier in steps[: steps.index(command)]:
            assert run_cli(earlier, "--config", config) == 0
        path = workspace / name
        path.write_bytes(path.read_bytes() + b"\xe9")
        capsys.readouterr()
        assert run_cli(command, "--config", config) == 2
        err = capsys.readouterr().err
        if name == "run.toml":
            assert err.startswith(f"config error: config file {config} is not UTF-8 text: ")
        else:
            assert err.startswith(f"error: {path.resolve()}: 'utf-8' codec can't decode byte 0xe9")

    @pytest.mark.parametrize("name, line", [("prices.csv", 2), ("prices.csv", 30),
                                            ("fredmd.csv", 3), ("fredmd.csv", 30)],
                             ids=["prices-second-row", "prices-mid-file",
                                  "fredmd-second-row", "fredmd-mid-file"])
    def test_missing_month_exit_2_naming_the_file(self, workspace, capsys, name, line):
        # a return or difference across the gap would span two months
        path = workspace / name
        lines = path.read_text().split("\n")
        months = [_month_of(lines[i].split(",")[0]) for i in (line - 1, line, line + 1)]
        del lines[line]
        path.write_text("\n".join(lines))
        capsys.readouterr()
        assert run_cli("ingest", "--config", workspace / "run.toml") == 2
        err = capsys.readouterr().err
        assert err == (f"error: {path.resolve()}: month {months[1]} missing between "
                       f"{months[0]} and {months[2]}\n")
        assert not (workspace / "out" / "panel.csv").exists()

    @pytest.mark.parametrize("name, line", [("prices.csv", 2), ("prices.csv", 30),
                                            ("fredmd.csv", 3), ("fredmd.csv", 30)],
                             ids=["prices-second-row", "prices-mid-file",
                                  "fredmd-second-row", "fredmd-mid-file"])
    def test_repeated_month_exit_2_naming_the_file(self, workspace, capsys, name, line):
        path = workspace / name
        lines = path.read_text().split("\n")
        lines.insert(line, lines[line])
        path.write_text("\n".join(lines))
        capsys.readouterr()
        assert run_cli("ingest", "--config", workspace / "run.toml") == 2
        month = _month_of(lines[line].split(",")[0])
        assert capsys.readouterr().err == f"error: {path.resolve()}: month {month} appears twice\n"
        assert not (workspace / "out" / "panel.csv").exists()

    @pytest.mark.parametrize("edit, between", [
        (lambda lines: lines.insert(5, lines[5]), (5, 5)),
        (lambda lines: lines.insert(6, lines.pop(5)), (4, 6)),
    ], ids=["repeated", "backwards"])
    def test_panel_months_out_of_step_exit_2_naming_the_file(
        self, workspace, capsys, edit, between
    ):
        config = workspace / "run.toml"
        assert run_cli("ingest", "--config", config) == 0
        path = workspace / "out" / "panel.csv"
        lines = path.read_text().split("\n")
        a, b = (lines[i].split(",")[0] for i in between)
        edit(lines)
        path.write_text("\n".join(lines))
        capsys.readouterr()
        assert run_cli("backtest", "--config", config) == 2
        assert capsys.readouterr().err == (
            f"error: {path.resolve()}: gap or disorder between {a} and {b}\n")
        assert not list((workspace / "out").glob("ledger_*"))

    @pytest.mark.parametrize("case", MALFORMED_CSV)
    def test_exit_2_naming_the_row(self, workspace, capsys, case):
        command, name, line, edit = MALFORMED_CSV[case]
        config = workspace / "run.toml"
        steps = ("ingest", "backtest", "report")
        for earlier in steps[: steps.index(command)]:
            assert run_cli(earlier, "--config", config) == 0
        path = workspace / name
        lines = path.read_text().split("\n")
        lines[line] = ",".join(edit(lines[line].split(",")))
        path.write_text("\n".join(lines))
        capsys.readouterr()
        assert run_cli(command, "--config", config) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path.resolve()}: ")
        named = "not a ledger CSV" if line == 0 else repr(lines[line].split(",")[0])
        assert named in err
        for other in {"fredmd.csv", "groups.csv", "prices.csv"} - {name}:
            assert other not in err  # only the file at fault is named

    def test_report_names_the_bad_ledger_of_three(self, golden_workspace, capsys):
        out = golden_workspace / "out"
        (out / "ledger_pcmci.csv").write_text(GOLDEN_LEDGERS["granger"])
        bad = out / "ledger_sfs.csv"
        bad.write_text(bad.read_text().replace("2020-03,-2.0,-0.75,crisis,X1;X3", "2020-03,-2.0"))
        capsys.readouterr()
        config = golden_workspace / "run.toml"
        assert run_cli("report", "--config", config, "--selectors", "granger,sfs,pcmci") == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad.resolve()}: row '2020-03': ")
        assert "ledger_granger" not in err and "ledger_pcmci" not in err

    def test_unreadable_csv_exit_2(self, workspace, capsys):
        # csv.reader rejects a cell past its field size limit (128 KiB)
        config = workspace / "run.toml"
        assert run_cli("ingest", "--config", config) == 0
        panel = workspace / "out" / "panel.csv"
        panel.write_text(panel.read_text().replace(",", "," + "1" * 200_000 + ",", 1))
        capsys.readouterr()
        assert run_cli("backtest", "--config", config) == 2
        assert "field larger than field limit" in capsys.readouterr().err


class TestRepeatedNames:
    """An input that repeats a series name, names a series blank or with a
    ';', or names the target like a series, exits 2 naming it where the
    input is parsed: no traceback, no silent pick."""

    def exit_2_naming(self, capsys, command, workspace, name):
        capsys.readouterr()
        assert run_cli(command, "--config", workspace / "run.toml") == 2
        err = capsys.readouterr().err
        assert repr(name) in err and "Traceback" not in err
        return err

    def test_fredmd_header_repeating_a_series(self, workspace, capsys):
        path = workspace / "fredmd.csv"
        path.write_text(path.read_text().replace("sasdate,X1,X2,X3", "sasdate,X1,X2,X1", 1))
        err = self.exit_2_naming(capsys, "ingest", workspace, "X1")
        assert err.startswith(f"error: {path.resolve()}: ")
        assert not (workspace / "out" / "panel.csv").exists()

    def test_groups_sidecar_listing_a_series_twice(self, workspace, capsys):
        path = workspace / "groups.csv"
        path.write_text(path.read_text() + "X1,6\n")
        err = self.exit_2_naming(capsys, "ingest", workspace, "X1")
        assert err.startswith(f"error: {path.resolve()}: ")

    def test_series_holding_a_semicolon(self, workspace, capsys):
        # ';' separates the ledger's selected names: X2;Q would read back as X2 and Q
        for name, old in (("fredmd.csv", "sasdate,X1,X2,X3"), ("groups.csv", "\nX2,1\n")):
            path = workspace / name
            path.write_text(path.read_text().replace(old, old.replace("X2", "X2;Q"), 1))
        err = self.exit_2_naming(capsys, "ingest", workspace, "X2;Q")
        assert err.startswith(f"error: {path.resolve()}: ")
        assert not (workspace / "out" / "panel.csv").exists()

    def test_target_name_naming_a_series(self, workspace, capsys):
        config = workspace / "run.toml"
        config.write_text(config.read_text().replace('target_name = "Y"', 'target_name = "X2"'))
        err = self.exit_2_naming(capsys, "ingest", workspace, "X2")
        assert err.startswith("config error: ")
        assert not (workspace / "out" / "panel.csv").exists()

    def test_panel_with_a_repeated_column(self, workspace, capsys):
        assert run_cli("ingest", "--config", workspace / "run.toml") == 0
        path = workspace / "out" / "panel.csv"
        path.write_text(path.read_text().replace("month,Y,X1,X2,X3", "month,Y,X1,X2,X1", 1))
        err = self.exit_2_naming(capsys, "backtest", workspace, "X1")
        assert err.startswith(f"error: {path.resolve()}: ")
        assert not list(path.parent.glob("ledger_*"))


class TestValidate:
    def test_recovery_sweep(self, tmp_path):
        spec = """
d = 6
p = 1
n = 400
edge_density = 0.0
target_parents = 2
ar_coeff = 0.4
instantaneous = false
n_seeds = 5
seed = 0
selectors = ["granger"]
output_dir = "lab"

[selector.granger]
alpha = 0.05
"""
        path = tmp_path / "lab.toml"
        path.write_text(spec)
        assert run_cli("validate", "--config", path) == 0
        text = (tmp_path / "lab" / "recovery_granger.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0] == "seed,precision,recall,f1,n_selected"
        assert len(lines) == 7  # header + 5 seeds + mean
        mean_f1 = float(lines[-1].split(",")[3])
        assert mean_f1 >= 0.8

    def test_each_seed_generated_once_for_all_selectors(self, tmp_path, monkeypatch, capsys):
        from causalfs import synthlab

        spec = 'd = 5\nn = 120\nn_seeds = 4\nseed = 3\nnoise = "laplace"\n'
        sids = ["granger", "sfs", "pcmci"]
        path = tmp_path / "lab.toml"
        path.write_text(spec + f"selectors = {json.dumps(sids)}\n")
        seeds = []
        generate = synthlab.generate_svar

        def spy(lab):
            seeds.append(lab.seed)
            return generate(lab)

        monkeypatch.setattr(synthlab, "generate_svar", spy)
        capsys.readouterr()
        assert run_cli("validate", "--config", path, "--out", "all") == 0
        assert seeds == [3, 4, 5, 6]
        combined = capsys.readouterr().out
        stdout = []
        for sid in sids:
            assert run_cli("validate", "--config", path, "--out", sid, "--selectors", sid) == 0
            name = f"recovery_{sid}.csv"
            assert (tmp_path / "all" / name).read_bytes() == (tmp_path / sid / name).read_bytes()
            stdout.append(capsys.readouterr().out)
        assert len(seeds) == 4 + 3 * 4
        assert combined == "".join(stdout)

    def test_calendar_environments_exit_2_before_any_lab(self, tmp_path, capsys, monkeypatch):
        from causalfs import synthlab

        path = tmp_path / "lab.toml"
        path.write_text('d = 5\nn = 120\nn_seeds = 2\nselectors = ["seqicp"]\n'
                        '[selector.seqicp]\nenvironments = "calendar"\n')
        monkeypatch.setattr(synthlab, "generate_svar", pytest.fail)
        assert run_cli("validate", "--config", path) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "environments" in err and "calendar" in err
        assert not (tmp_path / "out").exists()

    def test_each_lab_design_built_once_for_all_selectors(self, tmp_path, monkeypatch):
        from causalfs.selectors import base

        path = tmp_path / "lab.toml"
        path.write_text('d = 5\nn = 120\nn_seeds = 3\nselectors = ["granger", "seqicp", "sfs"]\n')
        built = []
        build = base.build_design
        monkeypatch.setattr(base, "build_design", lambda *args: built.append(args) or build(*args))
        assert run_cli("validate", "--config", path) == 0
        assert len(built) == 3

    def test_lag_order_two_writes_its_recovery_file(self, tmp_path):
        path = tmp_path / "lab.toml"
        path.write_text('d = 5\np = 2\nn = 150\nn_seeds = 2\nselectors = ["granger"]\n')
        assert run_cli("validate", "--config", path) == 0
        rows = (tmp_path / "out" / "recovery_granger.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["0", "1", "mean"]

    @pytest.mark.filterwarnings("error::DeprecationWarning")
    def test_varlingam_on_laplace_labs_rerun_byte_identical(self, tmp_path):
        path = tmp_path / "lab.toml"
        path.write_text('d = 6\nn = 300\nnoise = "laplace"\ninstantaneous = true\n'
                        'n_seeds = 2\nselectors = ["varlingam"]\n')
        for out in ("ica1", "ica2"):
            assert run_cli("validate", "--config", path, "--out", out) == 0
        first, second = ((tmp_path / out / "recovery_varlingam.csv").read_bytes()
                         for out in ("ica1", "ica2"))
        assert first == second

    def test_generation_failure_exit_4_before_output(self, tmp_path, capsys, monkeypatch):
        from causalfs import synthlab

        def fail(spec):
            raise GenerationFailed("no stable draw")

        path = tmp_path / "lab.toml"
        path.write_text('d = 4\nn = 120\nn_seeds = 2\nselectors = ["granger"]\n')
        monkeypatch.setattr(synthlab, "generate_svar", fail)
        capsys.readouterr()
        assert run_cli("validate", "--config", path, "--seed", "5") == 4
        assert capsys.readouterr().err == "generation failed at seed 5: no stable draw\n"
        assert not (tmp_path / "out").exists()

    def test_failed_validate_leaves_no_earlier_recovery_file_of_its_selectors(
        self, tmp_path, capsys
    ):
        good, bad = tmp_path / "good.toml", tmp_path / "bad.toml"
        good.write_text('d = 4\nn = 120\nn_seeds = 2\nselectors = ["granger", "sfs"]\n')
        bad.write_text('d = 4\nn = 8\nn_seeds = 2\nselectors = ["granger", "seqicp"]\n')
        assert run_cli("validate", "--config", good, "--out", "o") == 0
        capsys.readouterr()
        assert run_cli("validate", "--config", bad, "--out", "o") == 2
        assert "selector seqicp" in capsys.readouterr().err
        assert [p.name for p in (tmp_path / "o").iterdir()] == ["recovery_sfs.csv"]

    def test_unknown_selector_exit_2(self, tmp_path):
        path = tmp_path / "lab.toml"
        path.write_text('d = 4\nselectors = ["bogus"]\n')
        assert run_cli("validate", "--config", path) == 2

    def test_selectors_flag_overrides_spec(self, tmp_path):
        path = tmp_path / "lab.toml"
        path.write_text('d = 4\nn = 120\nn_seeds = 2\nselectors = ["granger", "sfs"]\n')
        assert run_cli("validate", "--config", path, "--selectors", "granger") == 0
        assert [f.name for f in (tmp_path / "out").iterdir()] == ["recovery_granger.csv"]

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--selectors", "zzz"],
                                       ["--selectors", ","], ["--selectors", "granger,granger"]],
                             ids=["seed-negative", "selector-unknown", "selectors-empty",
                                  "selector-repeated"])
    def test_bad_flag_exit_2_before_output(self, tmp_path, capsys, flags):
        path = tmp_path / "lab.toml"
        path.write_text('d = 4\nn = 120\nn_seeds = 2\nselectors = ["granger"]\n')
        assert run_cli("validate", "--config", path, *flags) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("selectors, named", [
        ("[]", "at least one selector id"), ('["sfs", "granger", "sfs"]', "'sfs' listed twice"),
    ], ids=["empty", "repeated"])
    def test_spec_selectors_empty_or_repeated_exit_2_before_output(
        self, tmp_path, capsys, selectors, named
    ):
        path = tmp_path / "lab.toml"
        path.write_text(f"d = 4\nn = 120\nn_seeds = 2\nselectors = {selectors}\n")
        assert run_cli("validate", "--config", path) == 2
        err = capsys.readouterr().err
        assert "config error" in err and named in err
        assert not (tmp_path / "out").exists()

    def test_seed_flag_seeds_the_lab(self, tmp_path):
        path = tmp_path / "lab.toml"
        path.write_text('d = 4\nn = 120\nn_seeds = 2\nselectors = ["granger"]\n')
        assert run_cli("validate", "--config", path, "--seed", "5") == 0
        rows = (tmp_path / "out" / "recovery_granger.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["5", "6", "mean"]

    def test_unknown_selector_section_exit_2(self, tmp_path):
        path = tmp_path / "lab.toml"
        path.write_text('d = 4\nselectors = ["granger"]\n[selector.bogus]\nalpha = 0.1\n')
        assert run_cli("validate", "--config", path) == 2
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "spec", ["d = 4\np = 0\n", "d = 0\n", "d = 1\n", 'd = "four"\n',
                 "d = 4\nn_seeds = 0\n", 'd = 4\ninstantaneous = "false"\n',
                 "d = 4\ntarget_parents = -1\n", "d = 4\ntarget_parents = 4\n",
                 "d = 4\nseed = -1\n", "d = 4\nn = 0\n", "d = 4.0\n", "n = 100\n",
                 "d = 4\nnoise = 1\n", "d = 4\nedge_density = \"0.2\"\n",
                 "d = 4\nalpha = 0.1\n"],
        ids=["p-zero", "d-zero", "d-one", "d-not-integer", "n-seeds-zero",
             "instantaneous-string", "target-parents-negative", "target-parents-above-d",
             "seed-negative", "n-zero", "d-float", "d-missing", "noise-int",
             "edge-density-string", "unknown-key"],
    )
    def test_infeasible_spec_exit_2_before_output(self, tmp_path, capsys, spec):
        path = tmp_path / "lab.toml"
        path.write_text(spec + 'selectors = ["granger"]\n')
        assert run_cli("validate", "--config", path) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("shift", [
        {"variable": "X9", "start_row": 10},
        {"variable": "X1", "start_row": 100},
        {"variable": "X1", "start_row": -1},
        {"variable": "X1", "start_row": 10.0},
        {"variable": "X1"},
        {"variable": "X1", "start_row": 10, "sclae": 2.0},
        "X1",
    ], ids=["unknown-variable", "start-past-end", "start-negative", "start-float",
            "start-missing", "unknown-key", "not-a-table"])
    def test_bad_environment_shift_exit_2_before_output(self, tmp_path, capsys, shift):
        path = tmp_path / "lab.json"
        path.write_text(json.dumps({"d": 4, "n": 100, "n_seeds": 1,
                                    "environment_shifts": [shift]}))
        assert run_cli("validate", "--config", path) == 2
        assert "config error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_selector_error_exit_2_naming_the_selector_and_seed(self, tmp_path, capsys):
        # 8 rows pass pcmci but leave seqicp's halves too short to fit
        path = tmp_path / "lab.toml"
        path.write_text('d = 4\nn = 8\nn_seeds = 2\nseed = 5\nselectors = ["pcmci", "seqicp"]\n')
        assert run_cli("validate", "--config", path) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: selector seqicp on the lab of seed 5: environment ")
        # pcmci scored both labs, but nothing is written until every selector has
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_spec_keys_build_the_same_svar_spec(self, tmp_path):
        path = tmp_path / "lab.json"
        path.write_text(json.dumps({
            "d": 5, "p": 2, "n": 300, "edge_density": 0, "coefficient_low": 0.4,
            "noise": "laplace", "instantaneous": False, "target_parents": 2,
            "ar_coeff": 0.3, "seed": 9, "n_seeds": 3, "selectors": "pcmci",
            "selector": {"sfs": {"tol": 1}}, "output_dir": "lab",
            "environment_shifts": [{"variable": "Y", "start_row": 299, "scale": 2}],
        }))
        cfg = load_validate_config(path)
        assert cfg.spec == SvarSpec(
            d=5, p=2, n=300, edge_density=0.0, coefficient_range=(0.4, 0.8),
            noise="laplace", instantaneous=False, target_parents=2, ar_coeff=0.3,
            seed=9, environment_shifts=(EnvShift("Y", 299, 0.0, 2.0),),
        )
        assert (cfg.n_seeds, cfg.selectors, cfg.output_dir) == (3, ["pcmci"], "lab")
        assert cfg.selector_params == {"sfs": {"tol": 1}}  # as written

    def test_density_zero_selection_rate_near_alpha(self, tmp_path):
        spec = (
            "d = 6\nn = 300\nedge_density = 0.0\nar_coeff = 0.3\n"
            'instantaneous = false\nn_seeds = 30\nselectors = ["granger"]\n'
        )
        path = tmp_path / "null.toml"
        path.write_text(spec)
        assert run_cli("validate", "--config", path) == 0
        lines = (tmp_path / "out" / "recovery_granger.csv").read_text().splitlines()
        rate = float(lines[-1].split(",")[4])
        assert rate < 0.12  # alpha 0.05 plus sampling slack


@pytest.mark.skipif(shutil.which("bash") is None, reason="needs bash")
def test_console_script_checks_pass(tmp_path):
    # CI's smoke run of the installed entry point, run here with shims for
    # ``causalfs`` and ``python``
    script = Path(__file__).resolve().parents[1] / "ci" / "console_script.sh"
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, command in (("causalfs", "-m causalfs.cli "), ("python", "")):
        shim = bin_dir / name
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" {command}"$@"\n')
        shim.chmod(0o755)
    env = dict(os.environ, PATH=f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}",
               PYTHONPATH=str(Path(causalfs.__file__).resolve().parents[1]))
    run = subprocess.run(["bash", str(script)], cwd=tmp_path, env=env,
                         capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stdout[-2000:] + run.stderr[-2000:]
