"""Batch entry point: ingest, backtest, report, validate.

Exit codes: 0 ok, 1 backtest aborted (``ledger_<id>.csv.partial`` written),
2 config/input error, 3 missing artifact, 4 generation failure. All outputs
are plot-ready CSV/JSON under the configured output directory; input files
are never modified.
"""
from __future__ import annotations

import argparse
import functools
import json
import logging
import sys
from dataclasses import replace
from pathlib import Path

from . import evaluation, synthlab
from .backtest import (
    BacktestConfig,
    ledger_from_csv,
    ledger_to_csv,
    run_backtest,
    run_manifest,
)
from .config import (
    RUN_CONFIG_KEYS,
    VALIDATE_KEYS,
    RunConfig,
    check_config,
    load_run_config,
    load_validate_config,
)
from .errors import BacktestAborted, CausalfsError, ConfigError, GenerationFailed
from .ingest import (
    STOCK_MARKET_GROUP,
    RegimeCalendar,
    load_calendar,
    load_prices,
    naming,
    parse_fredmd,
    parse_groups,
    prices_to_returns,
    read_panel,
    to_csv,
    transform_panel,
    write_panel,
)
from .panel import align_and_shift
from .selectors import Step, make_selector

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_ABORTED = 1
EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_GENERATION = 4


def _load_calendar_from(cfg: RunConfig) -> RegimeCalendar:
    if cfg.calendar is None:
        return RegimeCalendar(())
    path = cfg.resolve("calendar")
    with naming(path):
        return load_calendar(path.read_text())


def _require_calendar(sids, selector_params: dict, missing: str) -> None:
    """ConfigError when seqicp runs with ``environments = "calendar"`` where
    there is no calendar (``missing`` says why)."""
    if "seqicp" in sids and selector_params.get("seqicp", {}).get("environments") == "calendar":
        raise ConfigError(f'[selector.seqicp] environments = "calendar" needs a calendar, '
                          f"but {missing}")


def cmd_ingest(cfg: RunConfig) -> int:
    out = cfg.out_dir
    out.mkdir(parents=True, exist_ok=True)
    # a failed ingest must leave no earlier panel for backtest to run on
    for name in ("panel.csv", "panel.npy", "panel_meta.json", "ingest_log.json"):
        (out / name).unlink(missing_ok=True)
    fredmd, sidecar, prices = map(cfg.resolve, ("fredmd_csv", "groups_csv", "prices_csv"))
    with naming(sidecar):
        sidecar_groups = parse_groups(sidecar.read_text())
    with naming(fredmd):
        raw_panel, tcodes, groups = parse_fredmd(fredmd.read_text(), sidecar_groups)
    if cfg.target_name in tcodes:
        raise ConfigError(f"target_name {cfg.target_name!r} names a series in {fredmd}")
    transformed = transform_panel(raw_panel, tcodes)
    with naming(prices):
        returns = prices_to_returns(load_prices(prices.read_text()))
    panel = align_and_shift(
        returns, transformed,
        shift_months=cfg.shift_months,
        target_name=cfg.target_name,
    )
    write_panel(panel, out / "panel.csv", out / "panel_meta.json")
    dropped = len(returns) - len(panel)
    ingest_log = {
        "rows": len(panel),
        "first_month": str(panel.dates[0]),
        "last_month": str(panel.dates[-1]),
        "target_rows_dropped": dropped,
        "series_kept": list(panel.feature_names),
        "series_excluded_stock_group": sorted(
            n for n, g in groups.items() if g == STOCK_MARKET_GROUP
        ),
        "shift_months": cfg.shift_months,
    }
    (out / "ingest_log.json").write_text(json.dumps(ingest_log, indent=2) + "\n")
    print(f"wrote {out / 'panel.csv'} ({len(panel)} rows)")
    return EXIT_OK


def cmd_backtest(cfg: RunConfig) -> int:
    if cfg.calendar is None:
        _require_calendar(cfg.selectors, cfg.selector_params, "the run config sets no calendar")
    out = cfg.out_dir
    # a failed backtest must leave no earlier ledger for report to score
    for sid in cfg.selectors:
        for name in (f"ledger_{sid}.csv", f"manifest_{sid}.json", f"ledger_{sid}.csv.partial"):
            (out / name).unlink(missing_ok=True)
    panel_path = out / "panel.csv"
    if not panel_path.exists():
        print(f"missing artifact: {panel_path} (run ingest first)", file=sys.stderr)
        return EXIT_MISSING
    panel = read_panel(panel_path, out / "panel_meta.json")
    calendar = _load_calendar_from(cfg)
    for sid in cfg.selectors:
        bt = BacktestConfig(
            window=cfg.window,
            p=cfg.p,
            selector_id=sid,
            selector_params=cfg.selector_params.get(sid, {}),
            reselect_every=cfg.reselect_every,
            seed=cfg.seed,
        )
        ledger_path = out / f"ledger_{sid}.csv"
        try:
            ledger = run_backtest(panel, calendar, bt)
        except BacktestAborted as exc:
            partial = ledger_path.with_suffix(".csv.partial")
            partial.write_text(ledger_to_csv(exc.partial) if exc.partial is not None else "")
            print(f"selector {sid} aborted: {exc}", file=sys.stderr)
            return EXIT_ABORTED
        ledger_path.write_text(ledger_to_csv(ledger))
        (out / f"manifest_{sid}.json").write_text(
            json.dumps(run_manifest(ledger), indent=2, sort_keys=True) + "\n"
        )
        print(f"wrote {ledger_path} ({len(ledger)} records)")
    return EXIT_OK


def cmd_report(cfg: RunConfig) -> int:
    """Score every ledger and book, then write the tables, ``metrics.json``
    and the series files; an error while reading or scoring writes nothing."""
    out = cfg.out_dir
    # a failed report must leave no earlier report of ledgers that may be gone
    series = (f"{kind}_{sid}.csv" for sid in cfg.selectors
              for kind in ("rolling_rmse", "rolling_mae", "stability"))
    for name in ("table1.csv", "table2.csv", "metrics.json", "combined_portfolio.csv", *series):
        (out / name).unlink(missing_ok=True)
    if cfg.combine and not set(cfg.combine) <= set(cfg.selectors):
        print("combine refers to selectors without ledgers", file=sys.stderr)
        return EXIT_MISSING
    calendar = _load_calendar_from(cfg)
    ledgers = {}
    for sid in cfg.selectors:
        path = out / f"ledger_{sid}.csv"
        if not path.exists():
            print(f"missing artifact: {path}", file=sys.stderr)
            return EXIT_MISSING
        with naming(path):
            ledger = ledger_from_csv(path.read_text())
        ledgers[sid] = path, ledger
        if len(ledger) < cfg.metric_window:
            raise ConfigError(
                f"metric_window {cfg.metric_window} exceeds the {len(ledger)} records of {path}")
        for r in ledger.records:
            if r.regime is not calendar.classify(r.date):
                raise ConfigError(
                    f"{path} marks {r.date} {r.regime}, but the calendar makes it "
                    f"{calendar.classify(r.date)}: report with the backtest's calendar")

    scores = {}  # model -> {"errors", "mae_increase_pct", "book"}; metrics.json's content
    strategies = {}
    files = {}
    for sid, (path, ledger) in ledgers.items():
        try:
            errors = evaluation.regime_metrics(ledger, calendar)
            strategies[sid] = series = evaluation.strategy_returns(ledger)
            scores[sid] = {
                "errors": errors,
                "mae_increase_pct": evaluation.mae_increase_pct(errors),
                "book": evaluation.portfolio_metrics(series, calendar),
            }
            for name, rolling in (("rmse", evaluation.rolling_rmse),
                                  ("mae", evaluation.rolling_mae)):
                files[f"rolling_{name}_{sid}.csv"] = evaluation.series_to_csv(
                    *rolling(ledger, cfg.metric_window))
            files[f"stability_{sid}.csv"] = evaluation.stability_to_csv(ledger)
        except CausalfsError as exc:
            raise CausalfsError(f"{path}: {exc}") from exc
    if cfg.combine:
        a, b = cfg.combine
        combined = evaluation.combine_portfolios(strategies[a], strategies[b], cfg.combine_weight)
        scores[f"combined({a},{b})"] = {"book": evaluation.portfolio_metrics(combined, calendar)}
        files["combined_portfolio.csv"] = evaluation.series_to_csv(combined.dates, combined.values)
    files["table1.csv"] = evaluation.scores_to_csv(
        scores, "errors", evaluation.ERROR_COLUMNS, ("mae_increase_pct",))
    files["table2.csv"] = evaluation.scores_to_csv(scores, "book", evaluation.BOOK_COLUMNS)
    files["metrics.json"] = evaluation.scores_to_json(scores)
    for name, text in files.items():
        (out / name).write_text(text)
    print(f"wrote {out / 'table1.csv'} and {out / 'table2.csv'}")
    return EXIT_OK


def cmd_validate(spec_path: Path, flags: dict) -> int:
    """Run the spec's selectors on its lab; ``flags`` holds checked
    ``VALIDATE_KEYS`` values (output_dir, seed, selectors) that override it.
    The output directory and every ``recovery_<id>.csv`` are written only
    after every selector has scored every lab."""
    cfg = load_validate_config(spec_path)
    out = spec_path.resolve().parent / flags.get("output_dir", cfg.output_dir)
    base_seed = flags.get("seed", cfg.spec.seed)
    sids = flags.get("selectors", cfg.selectors)
    _require_calendar(sids, cfg.selector_params, "a validate lab has none")
    # a failed validate must leave no earlier recovery file of its selectors
    for sid in sids:
        (out / f"recovery_{sid}.csv").unlink(missing_ok=True)
    labs = []  # (step, truth) per seed: every selector reads one Step, so one lag design
    for k in range(cfg.n_seeds):
        spec = replace(cfg.spec, seed=base_seed + k)
        try:
            panel, truth = synthlab.generate_svar(spec)
        except GenerationFailed as exc:
            print(f"generation failed at seed {spec.seed}: {exc}", file=sys.stderr)
            return EXIT_GENERATION
        labs.append((Step(panel, spec.p, spec.seed), truth))
    results = []  # (sid, recovery CSV text, summary line) per selector
    for sid in sids:
        runner = make_selector(sid, cfg.selector_params.get(sid, {}))
        rows = []
        for step, truth in labs:
            try:
                fs = runner(step)
            except CausalfsError as exc:
                raise CausalfsError(f"selector {sid} on the lab of seed {step.seed}: {exc}") from exc
            score = synthlab.score_recovery(fs, truth)
            rows.append((step.seed, score.precision, score.recall, score.f1, len(fs)))
        _, precision, recall, f1, n_selected = zip(*rows)
        mean_f1 = sum(f1) / len(rows)
        mean_rate = sum(n_selected) / (len(rows) * (cfg.spec.d - 1))
        mean = ("mean", sum(precision) / len(rows), sum(recall) / len(rows), mean_f1, mean_rate)
        text = to_csv(["seed", "precision", "recall", "f1", "n_selected"], [*rows, mean])
        results.append((sid, text, f"{sid}: mean F1 {mean_f1:.3f}, selection rate {mean_rate:.3f}"))
    out.mkdir(parents=True, exist_ok=True)
    for sid, text, summary in results:
        (out / f"recovery_{sid}.csv").write_text(text)
        print(summary)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalfs",
        description="Causal feature selection and expanding-window forecasting",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("ingest", "backtest", "report", "validate"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True, help="run config file")
        cmd.add_argument("--seed", type=int, default=None, help="override the seed")
        cmd.add_argument("--out", default=None, help="override the output directory")
        cmd.add_argument(
            "--selectors", default=None,
            help="comma-separated selector ids, overriding the config",
        )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process: parsing leaves the parser
    unchanged, and an in-process caller may run ``main`` many times."""
    return build_parser()


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(message)s")
    args = _parser().parse_args(argv)
    try:
        flags = {"seed": args.seed, "output_dir": args.out, "selectors": args.selectors}
        if args.selectors is not None:
            flags["selectors"] = [s.strip() for s in args.selectors.split(",") if s.strip()]
        given = {key: value for key, value in flags.items() if value is not None}
        if args.command == "validate":
            return cmd_validate(Path(args.config), check_config(VALIDATE_KEYS, given, "the flags"))
        cfg = load_run_config(args.config, require_inputs=args.command == "ingest")
        for key, value in check_config(RUN_CONFIG_KEYS, given, "the flags").items():
            setattr(cfg, key, value)
        handler = {"ingest": cmd_ingest, "backtest": cmd_backtest, "report": cmd_report}
        return handler[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"missing file: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CausalfsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
