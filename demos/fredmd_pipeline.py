"""The ingestion pipeline on FRED-MD-format files, without the CLI.

Toy files are produced by the synthetic lab's exporter, then parsed,
transformed per their codes, converted to returns, and aligned with the
one-month look-ahead shift used on real data.
"""
import numpy as np

from causalfs import (
    SvarSpec,
    align_and_shift,
    build_design,
    generate_svar,
    load_prices,
    parse_fredmd,
    parse_groups,
    prices_to_returns,
    transform_panel,
)
from causalfs.synthlab import export_fredmd

source_panel, _ = generate_svar(SvarSpec(d=5, p=1, n=120, edge_density=0.2, seed=3))
fredmd_csv, groups_csv, prices_csv = export_fredmd(source_panel)
print("FRED-MD file head:")
for line in fredmd_csv.splitlines()[:4]:
    print(" ", line[:72])

# the group tags are read only here: series in the stock-market group (6)
# are dropped, and the panel carries no tags onwards
raw, tcodes, groups = parse_fredmd(fredmd_csv, parse_groups(groups_csv))
print(f"\nparsed {len(raw.names)} series over {len(raw)} months; "
      f"codes {sorted(set(tcodes.values()))}, groups {sorted(set(groups.values()))}")

transformed = transform_panel(raw, tcodes)
returns = prices_to_returns(load_prices(prices_csv))
print(f"price rows -> {len(returns)} return months, "
      f"mean {returns.values.mean():.3f}%")

# real FRED-MD values stamped month m describe month m but publish a month
# later; shifting forward keeps the join free of look-ahead
panel = align_and_shift(returns, transformed, shift_months=1, target_name="Y")
print(f"\naligned panel: {len(panel)} rows, {panel.n_features} features, "
      f"{panel.dates[0]}..{panel.dates[-1]}")

design = build_design(panel, p=1)
print(f"design: {design.X.shape[0]} rows x {design.X.shape[1]} regressors; "
      f"column 0 is {design.columns[0]}")
print("every design value for month t is stamped strictly before t.")
