#!/usr/bin/env bash
# Smoke run of the installed ``causalfs`` entry point, which the tests call
# only as a function: a tiny validate exits 0 and writes its recovery file;
# backtest before ingest exits 3; ingest, backtest and report on an exported
# panel exit 0 and write table1.csv; and validate --seed -1 exits 2 with no
# traceback and no output directory. Every other CLI behaviour is checked
# in-process by tests/test_cli.py. Run it from an empty directory.
set -eo pipefail
printf 'd = 4\nn = 120\nn_seeds = 2\nselectors = ["granger"]\n' > ok.toml
causalfs validate --config ok.toml --out ok
test -s ok/recovery_granger.csv
python -c "from causalfs.synthlab import SvarSpec, export_fredmd, generate_svar; texts = export_fredmd(generate_svar(SvarSpec(d=4, n=80, seed=3))[0]); [open(f'{name}.csv', 'w').write(text) for name, text in zip(('fredmd', 'groups', 'prices'), texts)]"
printf '2003-01..2003-06\n' > crisis.txt
printf 'fredmd_csv = "fredmd.csv"\nprices_csv = "prices.csv"\ngroups_csv = "groups.csv"\ncalendar = "crisis.txt"\noutput_dir = "out"\nwindow = 40\nselectors = ["granger"]\n' > run.toml
rc=0
causalfs backtest --config run.toml || rc=$?
test "$rc" -eq 3
causalfs ingest --config run.toml
causalfs backtest --config run.toml
causalfs report --config run.toml
test -s out/table1.csv
rc=0
causalfs validate --config ok.toml --out neg --seed -1 2> neg_err.txt || rc=$?
test "$rc" -eq 2
if grep Traceback neg_err.txt; then exit 1; fi
test ! -e neg
