"""The three benchmark workloads: inputs, timed operations, output checks.

Each workload is a closed loop with one client: a single-process batch job
that starts each call into causalfs only after the previous one returned.
A workload is a list of jobs. A job runs one kind of operation (a backtest
of one selector, a validate batch of one selector, an ingest, a report)
on input ``i`` of a pool generated from the run's seed, and returns its
wall time, the work it completed and an output that the run checks.

Why these workloads:

* ``backtest-small`` -- d=12, window 60, all six selectors re-selected
  every month. Selector kernels do almost all the work, so savings inside a
  selector or reuse across months show here.
* ``backtest-wide`` -- a FRED-MD-width panel (120 features) exported to the
  ingest CSV schemas and driven through the CLI: ingest, one backtest per
  selector with reselect_every=12, then report. Only here do ingest and the
  window view / design build do real work, and a Granger call (122-column
  least squares) is the costliest selector call. Window 60 keeps Granger's
  six early-window
  ``Underdetermined`` fallbacks.
* ``validate-sweep`` -- ``causalfs validate`` at d=8 with Laplace noise and
  instantaneous edges. Panels are independent and no window is reused, so
  caching across months cannot help here; at m=8 VARLiNGAM runs its
  exhaustive causal-order search.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import causalfs.backtest as backtest
import causalfs.cli as cli
import causalfs.synthlab as synthlab
from causalfs.backtest import BacktestConfig, ledger_from_csv
from causalfs.ingest import RegimeCalendar, read_panel
from tracer import SELECTOR_IDS as ALL_SELECTORS

WINDOW = 60
PRED_TOL = 1e-8  # relative and absolute tolerance on y_pred and report values


@dataclass
class OpResult:
    seconds: float
    records: int  # ledger records or validate fits: the throughput numerator
    calls: int  # operations attempted, for failed_ratio
    output: dict  # compared against the stored reference and earlier reruns
    failed: int = 0  # operations whose output failed a check
    fallbacks: int = 0
    span: tuple[float, float] = (0.0, 0.0)  # perf_counter at start and end
    scaled: float = 0.0  # seconds at the calibration's reference speed


@dataclass
class Job:
    name: str
    share: float  # relative share of the measured seconds
    run: Callable[[int], OpResult]
    metric: str | None = None  # end-to-end throughput metric fed by this job
    ready: Callable[[int], bool] = lambda i: True
    reselect_every: int = 1  # ledger steps per selector call


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    inputs_sha256: str
    trace_inputs: int  # inputs per job in the fixed-work traced pass
    reference_inputs: int  # inputs per job kept in the stored reference
    pool: int  # distinct inputs; operation i of a job uses input i % pool
    prepare: Callable[[int], object] | None = None  # untimed, per input


def input_seed(seed: int, k: int) -> int:
    """Seed of input ``k`` of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def _cli(*args) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in args])


def _panel_digest(h, panel) -> None:
    h.update(np.ascontiguousarray(panel.target).tobytes())
    h.update(np.ascontiguousarray(panel.features).tobytes())
    h.update(",".join(panel.feature_names).encode())


# --- ledger checks shared by both backtest workloads ---

def ledger_output(ledger) -> dict:
    return {
        "selected": [";".join(r.selected) for r in ledger.records],
        "y_pred": [r.y_pred for r in ledger.records],
    }


def check_ledger(ledger, panel, reselect_every: int) -> int:
    """Selector calls whose records break an invariant of the ledger.

    Checks the record count, that y_true is the panel's target, that every
    selection names panel features, and recomputes the final forecast with
    an independent least-squares fit on the selected lags.
    """
    T = len(panel)
    calls = math.ceil((T - WINDOW) / reselect_every)
    if len(ledger) != T - WINDOW:
        return calls
    names = set(panel.feature_names)
    bad = set()
    for step, record in enumerate(ledger.records):
        if (record.y_true != panel.target[WINDOW + step]
                or not set(record.selected) <= names
                or not math.isfinite(record.y_pred)):
            bad.add(step // reselect_every)
    last = ledger.records[-1]
    j = T - 1
    cols = [panel.feature_names.index(n) for n in last.selected]
    X = np.column_stack([np.ones(j - 1), panel.target[: j - 1], panel.features[: j - 1, cols]])
    beta = np.linalg.lstsq(X, panel.target[1:j], rcond=None)[0]
    x_next = np.concatenate([[1.0, panel.target[j - 1]], panel.features[j - 1, cols]])
    if not _close(float(x_next @ beta), last.y_pred):
        bad.add((T - WINDOW - 1) // reselect_every)
    return len(bad)


def _close(a: float, b: float, tol: float = PRED_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def compare_outputs(got: dict, want: dict, reselect_every: int = 1) -> int:
    """Operations whose output differs from ``want``.

    Selections must be identical; numbers may differ by PRED_TOL. For a
    ledger, every selector call whose records differ counts once.
    """
    if "selected" in want:
        if len(got.get("selected", ())) != len(want["selected"]):
            return max(1, math.ceil(len(want["selected"]) / reselect_every))
        bad = set()
        for step, (gs, ws, gp, wp) in enumerate(zip(
                got["selected"], want["selected"], got["y_pred"], want["y_pred"])):
            if gs != ws or not _close(gp, wp):
                bad.add(step // reselect_every)
        return len(bad)
    if "f1" in want:
        if got.get("n_selected") != want["n_selected"] or len(got["f1"]) != len(want["f1"]):
            return max(1, len(want["f1"]))
        return sum(not _close(g, w) for g, w in zip(got["f1"], want["f1"]))
    if "values" in want:
        same = len(got["values"]) == len(want["values"]) and all(
            (g is None and w is None) or (g is not None and w is not None and _close(g, w))
            for g, w in zip(got["values"], want["values"]))
        return 0 if same and got.get("text") == want.get("text") else 1
    return 0 if got == want else 1


# --- backtest-small ---

SMALL = {
    "full": {"n": 70, "pool": 48, "trace_inputs": 4, "reference_inputs": 2},
    "smoke": {"n": 64, "pool": 2, "trace_inputs": 1, "reference_inputs": 1},
}
SMALL_SHARES = {"granger": 0.5, "seqicp": 1.5, "sfs": 4, "pcmci": 3, "varlingam": 4, "dynotears": 15}
SMALL_PARAMS = {"varlingam": {"k_clusters": 8}}


def small_panel(seed: int, k: int, n: int):
    spec = synthlab.SvarSpec(
        d=12, p=1, n=n, noise="gaussian", instantaneous=False,
        target_parents=3, ar_coeff=0.3, seed=input_seed(seed, k),
    )
    return synthlab.generate_svar(spec)[0]


def backtest_small(work: Path, seed: int, size: str) -> Workload:
    cfg = SMALL[size]
    pool = [small_panel(seed, k, cfg["n"]) for k in range(cfg["pool"])]
    digest = hashlib.sha256()
    for panel in pool:
        _panel_digest(digest, panel)
    calendar = RegimeCalendar(())

    def job(sid):
        def run(i):
            k = i % len(pool)
            panel = pool[k]

            config = BacktestConfig(
                window=WINDOW, p=1, selector_id=sid,
                selector_params=SMALL_PARAMS.get(sid, {}),
                reselect_every=1, seed=input_seed(seed, k),
            )
            ledger, seconds = _timed(backtest.run_backtest, panel, calendar, config)
            return OpResult(seconds, len(ledger), len(ledger), ledger_output(ledger),
                            failed=check_ledger(ledger, panel, 1))

        return Job(f"backtest:{sid}", SMALL_SHARES[sid], run, metric=f"ops_per_s.{sid}")

    return Workload("backtest-small", [job(sid) for sid in ALL_SELECTORS],
                    digest.hexdigest(), cfg["trace_inputs"], cfg["reference_inputs"],
                    len(pool))


# --- backtest-wide ---

WIDE = {
    "full": {"months": 170, "pool": 12, "trace_inputs": 2, "reference_inputs": 1},
    "smoke": {"months": 136, "pool": 1, "trace_inputs": 1, "reference_inputs": 1},
}
WIDE_FEATURES = 120
WIDE_RESELECT = 12
WIDE_SELECTORS = ("granger", "seqicp", "sfs", "pcmci", "varlingam")
# seqicp and sfs are bounded so that a call stays cheap at width 120:
# one-feature subsets (121 fits) and one forward step (121 candidates).
# pcmci keeps three stage-1 parents: with the default ten, the number of
# false-positive links it goes on to screen made its cost per input swing
# (CI-test count CV 0.27 across inputs, against 0.07 with three)
WIDE_PARAMS = {
    "varlingam": {"k_clusters": 8},
    "seqicp": {"max_subset_size": 1},
    "sfs": {"max_features": 1},
    "pcmci": {"max_parents_stage1": 3},
}
WIDE_SHARES = {"ingest": 0.5, "granger": 5, "seqicp": 1, "sfs": 3.5, "pcmci": 8,
               "varlingam": 3, "report": 0.5}
CRISIS = "# synthetic crisis calendar\n2004-01..2005-06\n2008-09..2009-06\n"


def wide_item(item: Path, seed: int, k: int, months: int) -> None:
    """Write one exported input set: FRED-MD CSV, groups, prices, calendar
    and the run config."""
    spec = synthlab.SvarSpec(
        d=WIDE_FEATURES + 1, p=1, n=months, edge_density=0.02, noise="gaussian",
        instantaneous=False, target_parents=3, ar_coeff=0.3, seed=input_seed(seed, k),
    )
    panel, _ = synthlab.generate_svar(spec)
    fredmd_csv, groups_csv, prices_csv = synthlab.export_fredmd(panel)
    item.mkdir(parents=True, exist_ok=True)
    (item / "fredmd.csv").write_text(fredmd_csv)
    (item / "groups.csv").write_text(groups_csv)
    (item / "prices.csv").write_text(prices_csv)
    (item / "crisis.txt").write_text(CRISIS)
    config = {
        "fredmd_csv": "fredmd.csv", "prices_csv": "prices.csv",
        "groups_csv": "groups.csv", "calendar": "crisis.txt",
        "output_dir": "out", "window": WINDOW, "p": 1, "metric_window": 12,
        "shift_months": 1, "seed": input_seed(seed, k) % 2**31, "target_name": "Y",
        "selectors": list(WIDE_SELECTORS), "reselect_every": WIDE_RESELECT,
        "selector": WIDE_PARAMS,
    }
    (item / "run.json").write_text(json.dumps(config, indent=2) + "\n")


def _report_output(out: Path) -> dict:
    values, text = [], []
    for name in ("table1.csv", "table2.csv"):
        for row in (out / name).read_text().splitlines()[1:]:
            cells = row.split(",")
            text.append(cells[0])
            values.extend(float(c) if c else None for c in cells[1:])
    return {"text": text, "values": values}


def backtest_wide(work: Path, seed: int, size: str) -> Workload:
    cfg = WIDE[size]
    items = [work / f"wide{k}" for k in range(cfg["pool"])]
    digest = hashlib.sha256()
    for k, item in enumerate(items):
        wide_item(item, seed, k, cfg["months"])
        for name in ("fredmd.csv", "groups.csv", "prices.csv", "crisis.txt", "run.json"):
            digest.update((item / name).read_bytes())
    panels = {}

    def prepared(k):
        """Ingest item k once, untimed, so backtests have a panel to read."""
        if k not in panels:
            item = items[k]
            if _cli("ingest", "--config", item / "run.json", "--out", item / "out") != 0:
                raise RuntimeError(f"ingest of {item} failed")
            panels[k] = read_panel(item / "out" / "panel.csv", item / "out" / "panel_meta.json")
        return panels[k]

    def ingest(i):
        k = i % len(items)
        panel = prepared(k)
        item = items[k]
        rc, seconds = _timed(_cli, "ingest", "--config", item / "run.json", "--out", item / "ingest")
        text = (item / "ingest" / "panel.csv").read_text() if rc == 0 else ""
        same = text == (item / "out" / "panel.csv").read_text()
        return OpResult(seconds, 1, 1, {"panel_sha256": hashlib.sha256(text.encode()).hexdigest(),
                                        "rows": len(panel)},
                        failed=int(rc != 0 or not same))

    def job(sid):
        def run(i):
            k = i % len(items)
            panel = prepared(k)
            item = items[k]
            rc, seconds = _timed(_cli, "backtest", "--config", item / "run.json", "--selectors", sid)
            calls = math.ceil((len(panel) - WINDOW) / WIDE_RESELECT)
            if rc != 0:
                return OpResult(seconds, 0, calls, {}, failed=calls)
            ledger = ledger_from_csv((item / "out" / f"ledger_{sid}.csv").read_text())
            return OpResult(seconds, len(ledger), calls, ledger_output(ledger),
                            failed=check_ledger(ledger, panel, WIDE_RESELECT))

        return Job(f"backtest:{sid}", WIDE_SHARES[sid], run, metric=f"ops_per_s.{sid}",
                   reselect_every=WIDE_RESELECT)

    def report_ready(i):
        out = items[i % len(items)] / "out"
        return all((out / f"ledger_{sid}.csv").exists() for sid in WIDE_SELECTORS)

    def report(i):
        item = items[i % len(items)]
        rc, seconds = _timed(_cli, "report", "--config", item / "run.json")
        if rc != 0:
            return OpResult(seconds, 1, 1, {}, failed=1)
        return OpResult(seconds, 1, 1, _report_output(item / "out"))

    jobs = [Job("ingest", WIDE_SHARES["ingest"], ingest)]
    jobs += [job(sid) for sid in WIDE_SELECTORS]
    jobs.append(Job("report", WIDE_SHARES["report"], report, ready=report_ready))
    return Workload("backtest-wide", jobs, digest.hexdigest(),
                    cfg["trace_inputs"], cfg["reference_inputs"], len(items), prepared)


# --- validate-sweep ---

VALIDATE = {
    "full": {"n": 500, "seeds": 2, "pool": 16, "trace_inputs": 4, "reference_inputs": 1},
    "smoke": {"n": 200, "seeds": 1, "pool": 1, "trace_inputs": 1, "reference_inputs": 1},
}
VALIDATE_SHARES = {"granger": 0.5, "seqicp": 0.5, "sfs": 1, "pcmci": 1.5, "varlingam": 6,
                   "dynotears": 3}


def validate_sweep(work: Path, seed: int, size: str) -> Workload:
    cfg = VALIDATE[size]
    digest = hashlib.sha256()
    batches = []
    for k in range(cfg["pool"]):
        batch = work / f"lab{k}"
        batch.mkdir(parents=True, exist_ok=True)
        for sid in ALL_SELECTORS:
            spec = {
                "d": 8, "p": 1, "n": cfg["n"], "noise": "laplace",
                "instantaneous": True, "target_parents": 3,
                "n_seeds": cfg["seeds"], "seed": input_seed(seed, k) % 2**31,
                "selectors": [sid],
            }
            text = json.dumps(spec, indent=2) + "\n"
            (batch / f"lab_{sid}.json").write_text(text)
            digest.update(text.encode())
        batches.append(batch)
    # the panels themselves are generated inside validate; hash the first one
    first = json.loads((batches[0] / "lab_granger.json").read_text())
    panel, _ = synthlab.generate_svar(synthlab.SvarSpec(
        d=8, p=1, n=cfg["n"], noise="laplace", instantaneous=True,
        target_parents=3, seed=first["seed"]))
    _panel_digest(digest, panel)

    def job(sid):
        def run(i):
            batch = batches[i % len(batches)]
            out = batch / f"out_{sid}"
            rc, seconds = _timed(_cli, "validate", "--config", batch / f"lab_{sid}.json",
                                 "--out", out)
            if rc != 0:
                return OpResult(seconds, 0, cfg["seeds"], {}, failed=cfg["seeds"])
            rows = [r.split(",") for r in (out / f"recovery_{sid}.csv").read_text().splitlines()]
            rows = [r for r in rows[1:] if r[0] != "mean"]
            f1 = [float(r[3]) for r in rows]
            bad = len(rows) != cfg["seeds"] or any(not 0.0 <= v <= 1.0 for v in f1)
            return OpResult(seconds, len(rows), cfg["seeds"],
                            {"f1": f1, "n_selected": [int(r[4]) for r in rows]},
                            failed=cfg["seeds"] if bad else 0)

        return Job(f"validate:{sid}", VALIDATE_SHARES[sid], run, metric=f"ops_per_s.{sid}")

    return Workload("validate-sweep", [job(sid) for sid in ALL_SELECTORS],
                    digest.hexdigest(), cfg["trace_inputs"], cfg["reference_inputs"],
                    len(batches))


BUILDERS = {
    "backtest-small": backtest_small,
    "backtest-wide": backtest_wide,
    "validate-sweep": validate_sweep,
}


def build(name: str, work: Path, seed: int, size: str) -> Workload:
    """Generate and export the inputs of one workload into ``work``."""
    work.mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](work, seed, size)
