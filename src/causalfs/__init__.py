"""Causal feature selection and expanding-window forecasting on monthly panels.

The library splits into: panel containers and lag designs (`panel`), file
formats and FRED-MD transforms (`ingest`), shared statistical kernels
(`numerics`), the feature selectors (`selectors`), the expanding-window
engine (`backtest`), regime-split metrics (`evaluation`), and a synthetic
structural-VAR lab for ground-truth validation (`synthlab`). The `causalfs`
command drives batch runs.
"""
from . import errors
from .backtest import BacktestConfig, BacktestLedger, run_backtest
from .evaluation import (
    combine_portfolios,
    mae_increase_pct,
    portfolio_metrics,
    regime_metrics,
    rolling_mae,
    rolling_rmse,
    selection_stability,
    strategy_returns,
)
from .ingest import (
    Regime,
    RegimeCalendar,
    apply_tcode,
    load_calendar,
    load_prices,
    parse_fredmd,
    parse_groups,
    prices_to_returns,
    transform_panel,
)
from .numerics import (
    FTestResult,
    OlsFit,
    acyclicity,
    f_test_nested,
    fastica,
    kmeans,
    ols_fit,
    partial_correlation,
)
from .panel import (
    AlignedPanel,
    DesignMatrix,
    MonthStamp,
    MonthlyPanel,
    MonthlySeries,
    align_and_shift,
    build_design,
)
from .selectors import (
    DynamicGraph,
    Environment,
    FeatureSet,
    Step,
    dynotears_fit,
    dynotears_select,
    granger_select,
    make_selector,
    pcmci_select,
    seqicp_select,
    sfs_select,
    varlingam_fit,
    varlingam_select,
)
from .synthlab import (
    EnvShift,
    RecoveryScore,
    SvarSpec,
    generate_svar,
    score_graph_edges,
    score_recovery,
)

__version__ = "0.1.0"

__all__ = [
    "AlignedPanel",
    "BacktestConfig",
    "BacktestLedger",
    "DesignMatrix",
    "DynamicGraph",
    "EnvShift",
    "Environment",
    "FTestResult",
    "FeatureSet",
    "MonthStamp",
    "MonthlyPanel",
    "MonthlySeries",
    "OlsFit",
    "RecoveryScore",
    "Regime",
    "RegimeCalendar",
    "Step",
    "SvarSpec",
    "acyclicity",
    "align_and_shift",
    "apply_tcode",
    "build_design",
    "combine_portfolios",
    "dynotears_fit",
    "dynotears_select",
    "errors",
    "f_test_nested",
    "fastica",
    "generate_svar",
    "granger_select",
    "kmeans",
    "load_calendar",
    "load_prices",
    "mae_increase_pct",
    "make_selector",
    "ols_fit",
    "parse_fredmd",
    "parse_groups",
    "partial_correlation",
    "pcmci_select",
    "portfolio_metrics",
    "prices_to_returns",
    "regime_metrics",
    "rolling_mae",
    "rolling_rmse",
    "run_backtest",
    "score_graph_edges",
    "score_recovery",
    "selection_stability",
    "seqicp_select",
    "sfs_select",
    "strategy_returns",
    "transform_panel",
    "varlingam_fit",
    "varlingam_select",
]
