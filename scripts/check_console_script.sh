#!/usr/bin/env bash
# Runs the `logifpt` console script on PATH through every command, from a
# new temporary directory outside the checkout, so that the entry point comes
# from the install, and checks the files they write.  Both CI jobs run it
# after `pip install -e .`:
#
#     bash scripts/check_console_script.sh
set -eo pipefail
cd "$(mktemp -d)"
echo '{"r": 0.71, "K": 8.05e7, "q": 3.3e-6, "E": 104540, "sigma": 0.2, "x0": 100}' > config.json
logifpt derive config.json
# moments calls no scipy, so it must not import any
PYTHONPROFILEIMPORTTIME=1 logifpt moments config.json --direction up --threshold 1e4 --order 4 --out m.csv 2> imports.txt
test -f m.csv.json
if grep -E '\| +scipy(\.|$)' imports.txt; then echo "logifpt moments imported scipy" >&2; exit 1; fi
logifpt oracle config.json --direction up --threshold 1e4 --lambda-grid 0:0.04:0.02 --order 4 --out o.csv
test -f o.csv.json
# downcrossing moments carry an error bound, one positive estimate per order
echo '{"r": 0.71, "K": 8.05e7, "q": 3.3e-6, "E": 104540, "sigma": 0.2, "x0": 3.91e7}' > config_down.json
logifpt moments config_down.json --direction down --threshold 2.8e7 --order 10 --out md.csv
python -c 'import json; d = json.load(open("md.csv.json")); e = d["error_estimates"]; assert len(e) == 10 and min(e) > 0 and not any(d["flagged"]), d'
# the commands compose through their files: simulate -> density -> compare
# with --kde-grid, simulate also writes the blocked kernel density
logifpt simulate config.json --direction up --threshold 1e4 --paths 64 --dt 0.01 --horizon 60 --kde-grid 0:40:0.05 --out s.csv
# density calls scipy.special alone: writing the sidecar must not import scipy.linalg
PYTHONPROFILEIMPORTTIME=1 logifpt density config.json --direction up --threshold 1e4 --grid 0.05:40:0.05 --out d.csv 2> dimports.txt
test -f s.csv.json
test -f s.csv.kde.csv
test -f d.csv.json
grep -qE '\| +scipy\.special(\.|$)' dimports.txt
if grep -E '\| +scipy\.linalg(\.|$)' dimports.txt; then echo "logifpt density --out imported scipy.linalg" >&2; exit 1; fi
logifpt compare --density d.csv --samples s.csv
# mle fits the sample, starting from the fixed file's sigma, and writes the documented keys
echo '{"r": 0.71, "K": 8.05e7, "q": 3.3e-6, "E": 104540, "sigma": 0.2, "x0": 100, "U": 1e4}' > fixed.json
logifpt mle --samples s.csv --estimate sigma --fixed fixed.json --max-iter 3 --out fit.json
python -c 'import json; d = json.load(open("fit.json")); keys = {"estimates", "loglik", "iterations", "n_evals", "converged", "censored", "censor_time", "manifest"}; assert set(d) == keys and list(d["estimates"]) == ["sigma"], d'
# a fixed value its parameter cannot take is an input error that names it
echo '{"r": 0.71, "K": NaN, "q": 3.3e-6, "E": 104540, "sigma": 0.2, "x0": 100, "U": 1e4}' > fixed_nan.json
set +e
logifpt mle --samples s.csv --estimate sigma --fixed fixed_nan.json --max-iter 3 > fit_nan.json 2> fit_nan.err
code=$?
set -e
test "$code" -eq 1
grep -qx 'input error: K must be finite, got nan' fit_nan.err
test ! -s fit_nan.json
# a fixed key that names no parameter is an input error that names it
echo '{"r": 0.71, "K": 8.05e7, "Kk": 9e9, "q": 3.3e-6, "E": 104540, "sigma": 0.2, "x0": 100, "U": 1e4}' > fixed_key.json
set +e
logifpt mle --samples s.csv --estimate sigma --fixed fixed_key.json --max-iter 3 > fit_key.json 2> fit_key.err
code=$?
set -e
test "$code" -eq 1
grep -qx "input error: fixed values for unknown parameters: \['Kk'\]" fit_key.err
test ! -s fit_key.json
# a forced order above the default --nmax computes its own moments
logifpt density config.json --direction up --threshold 1e4 --grid 0.05:40:0.05 --order 12 --out d12.csv
python -c 'import json; d = json.load(open("d12.csv.json")); assert d["order"] == 12, d["order"]'
# a library warning (a Gamma reference singular at the origin, up to 110)
# reaches stderr as one "warning:" line, with no source path or code line
logifpt density config.json --direction up --threshold 110 --grid 0.05:1:0.05 --out d110.csv 2> d110.err
grep -q '^warning: matched shape offset' d110.err
if grep -v '^warning:' d110.err; then echo "density wrote a stderr line that is not a warning" >&2; exit 1; fi
# moments whose mean is not > 0 give no Gamma reference: exit 1, no rows
echo '{"moments": [-1.0, 2.0, -6.0, 24.0]}' > negative_mean.json
set +e
logifpt density config.json --direction up --threshold 1e4 --grid 0:1:0.5 --nmax 4 --moments-from moments:negative_mean.json > dneg.csv 2> dneg.err
code=$?
set -e
test "$code" -eq 1
grep -q '^input error: mean must be > 0' dneg.err
test ! -s dneg.csv
# flagged moments whose curve is NaN (draw 10 of scripts/sweep_box.py): exit 3, no rows
echo '{"r": 0.2002058537285789, "K": 1128347210.9883878, "q": 1.0, "E": 0.004412859296355065, "sigma": 0.04000181127087052, "x0": 617207.8236245492}' > config_draw10.json
set +e
logifpt density config_draw10.json --direction down --threshold 40705.527141046376 --grid 1:200:1 --out dnan.csv 2> dnan.err
code=$?
set -e
test "$code" -eq 3
grep -q '^numerical non-convergence: flagged moments' dnan.err
test ! -e dnan.csv
test ! -e dnan.csv.json
# the seeded-simulation contract: one seed, one sample, byte for byte
logifpt simulate config.json --direction up --threshold 1e4 --paths 300 --dt 0.01 --horizon 13.37 --seed 7 --out seeded1.csv
logifpt simulate config.json --direction up --threshold 1e4 --paths 300 --dt 0.01 --horizon 13.37 --seed 7 --out seeded2.csv
cmp seeded1.csv seeded2.csv
