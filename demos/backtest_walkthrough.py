"""Expanding-window backtest on a synthetic panel, end to end.

Runs two selectors through the fixed-start expanding window, evaluates
forecast errors split by a (synthetic) crisis calendar, and prices the
sign-rule trading strategy including the combined portfolio.
"""
import numpy as np

from causalfs import (
    BacktestConfig,
    EnvShift,
    Regime,
    SvarSpec,
    combine_portfolios,
    generate_svar,
    load_calendar,
    mae_increase_pct,
    portfolio_metrics,
    regime_metrics,
    rolling_rmse,
    run_backtest,
    strategy_returns,
)

# target noise doubles over 2008-01..2009-06 (rows 96..113) and reverts:
# crisis months are genuinely harder to predict
crisis_shifts = (
    EnvShift("Y", start_row=96, scale=2.0),
    EnvShift("Y", start_row=114, scale=0.5),
)
panel, truth = generate_svar(
    SvarSpec(d=6, p=1, n=240, edge_density=0.1, seed=7,
             instantaneous=False, target_parents=2, ar_coeff=0.25,
             environment_shifts=crisis_shifts)
)
calendar = load_calendar("2008-01..2009-06\n")
print(f"panel {panel.dates[0]}..{panel.dates[-1]}, "
      f"true parents {sorted(truth.parents_of('Y'))}\n")

ledgers = {}
for selector_id, params in (
    ("granger", {"alpha": 0.05}),
    ("sfs", {"tol": 1e-4, "max_features": 3}),
):
    cfg = BacktestConfig(window=60, p=1, selector_id=selector_id,
                         selector_params=params, seed=1)
    ledgers[selector_id] = run_backtest(panel, calendar, cfg)

print(f"{'model':<9} {'MAE norm':>9} {'MAE crisis':>11} {'increase %':>11}")
for name, ledger in ledgers.items():
    errors = regime_metrics(ledger, calendar)
    increase = mae_increase_pct(errors)
    inc = f"{increase:.1f}" if increase is not None else "n/a"
    print(f"{name:<9} {errors[Regime.NORMAL]['mae']:>9.3f} "
          f"{errors[Regime.CRISIS]['mae']:>11.3f} {inc:>11}")

print("\nsign-rule strategy, annualized:")
series = {name: strategy_returns(ledger) for name, ledger in ledgers.items()}
series["combined"] = combine_portfolios(series["granger"], series["sfs"], 0.5)
print(f"{'book':<9} {'E[R] norm':>10} {'Sharpe norm':>12} {'Sortino norm':>13}")
for name, s in series.items():
    stats = portfolio_metrics(s, calendar)[Regime.NORMAL]
    fmt = lambda v: f"{v:.2f}" if v is not None else "n/a"
    print(f"{name:<9} {fmt(stats['er']):>10} "
          f"{fmt(stats['sharpe']):>12} {fmt(stats['sortino']):>13}")

dates, values = rolling_rmse(ledgers["granger"], h=12)
print(f"\nrolling RMSE (h=12) for granger: first {values[0]:.3f} "
      f"at {dates[0]}, last {values[-1]:.3f} at {dates[-1]}")
