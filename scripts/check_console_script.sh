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
logifpt density config.json --direction up --threshold 1e4 --grid 0.05:40:0.05 --out d.csv
test -f s.csv.json
test -f s.csv.kde.csv
test -f d.csv.json
logifpt compare --density d.csv --samples s.csv
# a forced order above the default --nmax computes its own moments
logifpt density config.json --direction up --threshold 1e4 --grid 0.05:40:0.05 --order 12 --out d12.csv
python -c 'import json; d = json.load(open("d12.csv.json")); assert d["order"] == 12, d["order"]'
# a library warning (a Gamma reference singular at the origin, up to 110)
# reaches stderr as one "warning:" line, with no source path or code line
logifpt density config.json --direction up --threshold 110 --grid 0.05:1:0.05 --out d110.csv 2> d110.err
grep -q '^warning: matched shape offset' d110.err
if grep -v '^warning:' d110.err; then echo "density wrote a stderr line that is not a warning" >&2; exit 1; fi
# the seeded-simulation contract: one seed, one sample, byte for byte
logifpt simulate config.json --direction up --threshold 1e4 --paths 300 --dt 0.01 --horizon 13.37 --seed 7 --out seeded1.csv
logifpt simulate config.json --direction up --threshold 1e4 --paths 300 --dt 0.01 --horizon 13.37 --seed 7 --out seeded2.csv
cmp seeded1.csv seeded2.csv
