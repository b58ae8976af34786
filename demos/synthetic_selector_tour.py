"""Tour of every feature selector on one synthetic panel with known truth.

A structural VAR with three lagged parents of the target is simulated, each
selector runs on the same data, and the selections are scored against the
generating graph.
"""
import numpy as np

from causalfs import (
    SvarSpec,
    build_design,
    dynotears_fit,
    dynotears_select,
    generate_svar,
    granger_select,
    pcmci_select,
    score_recovery,
    seqicp_select,
    sfs_select,
    varlingam_select,
)
from causalfs.selectors import halves_environments

spec = SvarSpec(
    d=8, p=1, n=600, edge_density=0.1, seed=2024,
    instantaneous=False, target_parents=3, ar_coeff=0.3,
)
panel, truth = generate_svar(spec)
print(f"panel: {len(panel)} months, {panel.n_features} features")
print(f"true parents of {panel.target_name}: {sorted(truth.parents_of('Y'))}\n")

design = build_design(panel, p=1)

runs = {
    "granger": granger_select(design, alpha=0.05),
    "sfs": sfs_select(design, direction="forward", tol=1e-4),
    "seqicp": seqicp_select(design, halves_environments(design.n), alpha=0.05),
    "varlingam": varlingam_select(panel, p=1, seed=0, edge_threshold=0.1),
    "dynotears": dynotears_select(dynotears_fit(panel, p=1), panel.target_name),
    "pcmci": pcmci_select(panel, p=1, alpha=0.05),
}

print(f"{'selector':<10} {'selected':<28} {'precision':>9} {'recall':>7} {'f1':>6}")
for name, fs in runs.items():
    score = score_recovery(fs, truth)
    chosen = ",".join(sorted(fs.selected)) or "(empty)"
    print(f"{name:<10} {chosen:<28} {score.precision:>9.2f} "
          f"{score.recall:>7.2f} {score.f1:>6.2f}")
