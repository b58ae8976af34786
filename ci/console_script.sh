#!/usr/bin/env bash
# the installed entry point, which the tests call only as a function:
# a tiny validate spec must exit 0; --selectors must pick from a
# two-selector spec; a spec with n_seeds = 0, a --seed of -1 and a
# --selectors that names granger twice must exit 2 before they create an
# output directory, the last with no traceback; a validate whose second
# selector fails on a too-short lab must exit 2 naming that selector, with
# no traceback and no output directory; a p = 2 validate must exit 0 and
# write its recovery file; a varlingam validate on Laplace labs, run twice
# with DeprecationWarning raised as an error (FastICA's loop must call no
# deprecated numpy form), must exit 0 both times and write byte-identical
# recovery files; importing causalfs.cli
# must not load scipy, which only the selectors' kernels import; a tiny
# exported panel must go through ingest, backtest and report; a
# reselect_every = 12 backtest of three selectors on that panel, run
# twice, must write byte-identical ledgers; a report whose ledger is
# shorter than metric_window must exit 2 naming metric_window, with no
# traceback; a price
# CSV with a non-numeric close, a price CSV that skips the month after its
# first row and one that repeats a month (each exit 2 naming the file, no
# traceback and no panel.csv), a FRED-MD file with an inf cell, and a
# backtest whose window leaves no month to forecast must exit 2, the last
# leaving no ledger of the good backtest before it, so that a following
# report exits 3 and leaves no table1.csv of the report before it; a
# panel.csv that repeats a month must make backtest exit 2 naming
# panel.csv, with no traceback; and so
# must an ingest whose FRED-MD header repeats a series, whose transform
# row holds inf, whose target_name names a series or is A;B, or whose
# FRED-MD header and sidecar name a series A;B (';' separates the ledger's
# selected names), and any command on a run config that sets window twice,
# with no traceback; a
# calendar-mode seqicp backtest whose windows hold only a few crisis
# months must test the halves there, not log a selector fallback; a
# calendar-mode seqicp backtest whose run config sets no calendar, and a
# calendar-mode seqicp validate (a lab has no calendar), must exit 2
# naming environments, with no traceback, and write no ledger or output
# directory; nor may
# a pcmci backtest on a panel with a constant feature; granger, seqicp, sfs
# and pcmci backtests on a panel whose last feature nearly copies X3, the
# feature sfs picks (noise 1e-5 of its sd, so the first window's scaled
# Gram fails the condition guard: the F tests take the SVD form, seqicp's
# subsets and sfs's folds holding both are refit by least squares, and
# PCMCI's tests of one given the other go to partial_correlation), must
# exit 0, log no selector fallback and write their ledgers; a truncated panel_meta.json must make
# backtest exit 2, with no traceback, and so must a FRED-MD file that ends
# in the byte 0xE9 (not UTF-8) make ingest; and after a good ingest into out/,
# a failing ingest into the same directory must leave no panel there, so
# that a following backtest exits 3; and each of the four demos/ scripts,
# run with RuntimeWarning raised as an error, must exit 0 and print its
# stated line: the walkthrough its rolling RMSE for granger, the FRED-MD
# pipeline its aligned panel of 119 rows, the structure-learning demo its
# ICA-based causal order, and the selector tour its pcmci row
set -eo pipefail
demos="$(cd "$(dirname "$0")/../demos" && pwd)"
python -c "import sys, causalfs.cli; loaded = [m for m in sys.modules if m.split('.')[0] == 'scipy']; sys.exit(f'scipy loaded: {loaded}' if loaded else 0)"
printf 'd = 4\nn = 120\nn_seeds = 2\nselectors = ["granger"]\n' > ok.toml
causalfs validate --config ok.toml --out ok
test -s ok/recovery_granger.csv
printf 'd = 4\nn = 120\nn_seeds = 2\nselectors = ["granger", "sfs"]\n' > two.toml
causalfs validate --config two.toml --out two --selectors granger
test "$(ls two)" = recovery_granger.csv
printf 'd = 4\nn_seeds = 0\n' > bad.toml
rc=0
causalfs validate --config bad.toml --out bad || rc=$?
test "$rc" -eq 2
test ! -e bad
rc=0
causalfs validate --config ok.toml --out neg --seed -1 || rc=$?
test "$rc" -eq 2
test ! -e neg
rc=0
causalfs validate --config ok.toml --out twice --selectors granger,granger 2> twice_err.txt || rc=$?
test "$rc" -eq 2
test ! -e twice
if grep Traceback twice_err.txt; then exit 1; fi
printf 'd = 4\nn = 8\nn_seeds = 2\nselectors = ["pcmci", "seqicp"]\n' > tiny.toml
rc=0
causalfs validate --config tiny.toml --out tiny 2> tiny_err.txt || rc=$?
test "$rc" -eq 2
if grep Traceback tiny_err.txt; then exit 1; fi
grep -q "selector seqicp" tiny_err.txt
test ! -e tiny
printf 'd = 5\np = 2\nn = 150\nn_seeds = 2\nselectors = ["granger"]\n' > lag2.toml
causalfs validate --config lag2.toml --out lag2
test -s lag2/recovery_granger.csv
printf 'd = 6\nn = 300\nnoise = "laplace"\ninstantaneous = true\nn_seeds = 2\nselectors = ["varlingam"]\n' > ica.toml
PYTHONWARNINGS=error::DeprecationWarning causalfs validate --config ica.toml --out ica1
PYTHONWARNINGS=error::DeprecationWarning causalfs validate --config ica.toml --out ica2
cmp ica1/recovery_varlingam.csv ica2/recovery_varlingam.csv
python -c "from causalfs.synthlab import SvarSpec, export_fredmd, generate_svar; texts = export_fredmd(generate_svar(SvarSpec(d=4, n=80, seed=3))[0]); [open(f'{name}.csv', 'w').write(text) for name, text in zip(('fredmd', 'groups', 'prices'), texts)]"
printf '2003-01..2003-06\n' > crisis.txt
printf 'fredmd_csv = "fredmd.csv"\nprices_csv = "prices.csv"\ngroups_csv = "groups.csv"\ncalendar = "crisis.txt"\noutput_dir = "out"\nwindow = 40\nselectors = ["granger"]\n' > run.toml
causalfs ingest --config run.toml
causalfs backtest --config run.toml
causalfs report --config run.toml
test -s out/table1.csv
sed 's/"out"/"runs1"/; s/selectors = \["granger"\]/selectors = ["granger", "sfs", "pcmci"]/' run.toml > runs.toml
printf 'reselect_every = 12\n' >> runs.toml
causalfs ingest --config runs.toml
cp -r runs1 runs2
causalfs backtest --config runs.toml
causalfs backtest --config runs.toml --out runs2
for sid in granger sfs pcmci; do cmp "runs1/ledger_$sid.csv" "runs2/ledger_$sid.csv"; done
sed 's/window = 40/window = 70/; s/"out"/"short"/' run.toml > short.toml
causalfs ingest --config short.toml
causalfs backtest --config short.toml
rc=0
causalfs report --config short.toml 2> short_err.txt || rc=$?
test "$rc" -eq 2
if grep Traceback short_err.txt; then exit 1; fi
grep -q "metric_window" short_err.txt
printf '2003-04..2003-12\n' > short_crisis.txt
printf 'fredmd_csv = "fredmd.csv"\nprices_csv = "prices.csv"\ngroups_csv = "groups.csv"\ncalendar = "short_crisis.txt"\noutput_dir = "cal"\nwindow = 40\nselectors = ["seqicp"]\n[selector.seqicp]\nenvironments = "calendar"\n' > cal.toml
causalfs ingest --config cal.toml
causalfs backtest --config cal.toml 2> cal_err.txt
if grep "falling back" cal_err.txt; then exit 1; fi
causalfs ingest --config cal.toml --out nocal
grep -v '^calendar' cal.toml | sed 's/"cal"/"nocal"/' > nocal.toml
rc=0
causalfs backtest --config nocal.toml 2> nocal_err.txt || rc=$?
test "$rc" -eq 2
if grep Traceback nocal_err.txt; then exit 1; fi
grep -q "environments" nocal_err.txt
if ls nocal/ledger_* 2> /dev/null; then exit 1; fi
printf 'd = 5\nn = 120\nn_seeds = 2\nselectors = ["seqicp"]\n[selector.seqicp]\nenvironments = "calendar"\n' > calval.toml
rc=0
causalfs validate --config calval.toml --out calval 2> calval_err.txt || rc=$?
test "$rc" -eq 2
if grep Traceback calval_err.txt; then exit 1; fi
grep -q "environments" calval_err.txt
test ! -e calval
python -c "import numpy as np; from causalfs import AlignedPanel; from causalfs.synthlab import SvarSpec, export_fredmd, generate_svar; p = generate_svar(SvarSpec(d=4, n=80, seed=3))[0]; p = AlignedPanel(p.dates, np.column_stack([p.data, np.full(len(p), 0.07)]), (*p.names, 'CONST')); [open(f'const_{name}.csv', 'w').write(text) for name, text in zip(('fredmd', 'groups', 'prices'), export_fredmd(p))]"
printf 'fredmd_csv = "const_fredmd.csv"\nprices_csv = "const_prices.csv"\ngroups_csv = "const_groups.csv"\ncalendar = "crisis.txt"\noutput_dir = "const"\nwindow = 40\nselectors = ["pcmci"]\n' > const.toml
causalfs ingest --config const.toml
causalfs backtest --config const.toml 2> const_err.txt
if grep "falling back" const_err.txt; then exit 1; fi
python -c "import numpy as np; from causalfs import AlignedPanel; from causalfs.synthlab import SvarSpec, export_fredmd, generate_svar; p = generate_svar(SvarSpec(d=4, n=80, seed=3))[0]; x = p.data[:, 3]; p = AlignedPanel(p.dates, np.column_stack([p.data, x + 1e-5 * x.std() * np.random.default_rng(0).normal(size=len(x))]), (*p.names, 'X3_COPY')); [open(f'copy_{name}.csv', 'w').write(text) for name, text in zip(('fredmd', 'groups', 'prices'), export_fredmd(p))]"
printf 'fredmd_csv = "copy_fredmd.csv"\nprices_csv = "copy_prices.csv"\ngroups_csv = "copy_groups.csv"\ncalendar = "crisis.txt"\noutput_dir = "copy"\nwindow = 40\nselectors = ["granger", "seqicp", "sfs", "pcmci"]\n' > copy.toml
causalfs ingest --config copy.toml
python -c "from causalfs.ingest import read_panel; from causalfs.numerics import _ScaledSystems; from causalfs.panel import build_design; d = build_design(read_panel('copy/panel.csv', 'copy/panel_meta.json').head(40), 1); assert not _ScaledSystems(d.engine.gram[:-1, :-1]).ok"
causalfs backtest --config copy.toml 2> copy_err.txt
if grep "falling back" copy_err.txt; then exit 1; fi
for sid in granger seqicp sfs pcmci; do test -s "copy/ledger_$sid.csv"; done
sed '3s/,.*/,abc/' prices.csv > bad_prices.csv
sed 's/"prices.csv"/"bad_prices.csv"/' run.toml > bad_prices.toml
rc=0
causalfs ingest --config bad_prices.toml --out bad_prices || rc=$?
test "$rc" -eq 2
sed '3d' prices.csv > gap_prices.csv
sed 's/"prices.csv"/"gap_prices.csv"/' run.toml > gap_prices.toml
rc=0
causalfs ingest --config gap_prices.toml --out gap_prices 2> gap_prices_err.txt || rc=$?
test "$rc" -eq 2
if grep Traceback gap_prices_err.txt; then exit 1; fi
grep -q "gap_prices.csv: month .* missing between" gap_prices_err.txt
test ! -e gap_prices/panel.csv
sed '3p' prices.csv > dup_prices.csv
sed 's/"prices.csv"/"dup_prices.csv"/' run.toml > dup_prices.toml
rc=0
causalfs ingest --config dup_prices.toml --out dup_prices 2> dup_prices_err.txt || rc=$?
test "$rc" -eq 2
if grep Traceback dup_prices_err.txt; then exit 1; fi
grep -q "dup_prices.csv: month .* appears twice" dup_prices_err.txt
test ! -e dup_prices/panel.csv
sed '3s/,[^,]*/,inf/' fredmd.csv > inf_fredmd.csv
sed 's/"fredmd.csv"/"inf_fredmd.csv"/' run.toml > inf_fredmd.toml
rc=0
causalfs ingest --config inf_fredmd.toml --out inf_fredmd || rc=$?
test "$rc" -eq 2
sed 's/window = 40/window = 100/' run.toml > long_window.toml
rc=0
causalfs backtest --config long_window.toml || rc=$?
test "$rc" -eq 2
test ! -e out/ledger_granger.csv
rc=0
causalfs report --config run.toml 2> stale_err.txt || rc=$?
test "$rc" -eq 3
grep -q "missing artifact: .*ledger_granger.csv" stale_err.txt
test ! -e out/table1.csv
causalfs ingest --config run.toml --out dup_panel
sed -i '6p' dup_panel/panel.csv
rc=0
causalfs backtest --config run.toml --out dup_panel 2> dup_panel_err.txt || rc=$?
test "$rc" -eq 2
if grep Traceback dup_panel_err.txt; then exit 1; fi
grep -q "dup_panel/panel.csv: gap or disorder between" dup_panel_err.txt
sed '1s/,X3$/,X1/' fredmd.csv > dup_fredmd.csv
sed 's/"fredmd.csv"/"dup_fredmd.csv"/' run.toml > dup_fredmd.toml
rc=0
causalfs ingest --config dup_fredmd.toml --out dup_fredmd 2> dup_fredmd_err.txt || rc=$?
test "$rc" -eq 2
if grep Traceback dup_fredmd_err.txt; then exit 1; fi
sed '2s/,[^,]*/,inf/' fredmd.csv > inf_tcode_fredmd.csv
sed 's/"fredmd.csv"/"inf_tcode_fredmd.csv"/' run.toml > inf_tcode.toml
rc=0
causalfs ingest --config inf_tcode.toml --out inf_tcode 2> inf_tcode_err.txt || rc=$?
test "$rc" -eq 2
if grep Traceback inf_tcode_err.txt; then exit 1; fi
sed '1s/,X2,/,A;B,/' fredmd.csv > semicolon_fredmd.csv
sed 's/^X2,/A;B,/' groups.csv > semicolon_groups.csv
sed 's/"fredmd.csv"/"semicolon_fredmd.csv"/; s/"groups.csv"/"semicolon_groups.csv"/' run.toml > semicolon.toml
rc=0
causalfs ingest --config semicolon.toml --out semicolon 2> semicolon_err.txt || rc=$?
test "$rc" -eq 2
if grep Traceback semicolon_err.txt; then exit 1; fi
grep -q "'A;B'" semicolon_err.txt
{ cat run.toml; printf 'window = 50\n'; } > window_twice.toml
rc=0
causalfs backtest --config window_twice.toml 2> window_twice_err.txt || rc=$?
test "$rc" -eq 2
if grep Traceback window_twice_err.txt; then exit 1; fi
grep -q "'window' set twice" window_twice_err.txt
{ cat run.toml; printf 'target_name = "X2"\n'; } > series_target.toml
rc=0
causalfs ingest --config series_target.toml --out series_target 2> series_target_err.txt || rc=$?
test "$rc" -eq 2
if grep Traceback series_target_err.txt; then exit 1; fi
{ cat run.toml; printf 'target_name = "A;B"\n'; } > semicolon_target.toml
rc=0
causalfs ingest --config semicolon_target.toml --out semicolon_target 2> semicolon_target_err.txt || rc=$?
test "$rc" -eq 2
if grep Traceback semicolon_target_err.txt; then exit 1; fi
head -c 20 out/panel_meta.json > truncated_meta.json
cp truncated_meta.json out/panel_meta.json
rc=0
causalfs backtest --config run.toml 2> meta_err.txt || rc=$?
test "$rc" -eq 2
if grep Traceback meta_err.txt; then exit 1; fi
{ cat fredmd.csv; printf '\351'; } > latin1_fredmd.csv
sed 's/"fredmd.csv"/"latin1_fredmd.csv"/' run.toml > latin1_fredmd.toml
rc=0
causalfs ingest --config latin1_fredmd.toml --out latin1_fredmd 2> latin1_err.txt || rc=$?
test "$rc" -eq 2
if grep Traceback latin1_err.txt; then exit 1; fi
causalfs ingest --config run.toml
rc=0
causalfs ingest --config dup_fredmd.toml || rc=$?
test "$rc" -eq 2
rc=0
causalfs backtest --config run.toml || rc=$?
test "$rc" -eq 3
python -W error::RuntimeWarning "$demos/backtest_walkthrough.py" > walkthrough.txt
grep -q "^rolling RMSE (h=12) for granger: first " walkthrough.txt
python -W error::RuntimeWarning "$demos/fredmd_pipeline.py" > fredmd_pipeline.txt
grep -q "^aligned panel: 119 rows, 4 features, " fredmd_pipeline.txt
python -W error::RuntimeWarning "$demos/structure_learning.py" > structure_learning.txt
grep -q "^ICA-based causal order: " structure_learning.txt
python -W error::RuntimeWarning "$demos/synthetic_selector_tour.py" > selector_tour.txt
grep -q "^pcmci " selector_tour.txt
