#!/usr/bin/env bash
# The command-line and benchmark checks of CI, run the same way anywhere:
#
#     bash ci/check.sh
#
# Each command runs qchan from this checkout's src/ in a fresh process, outside
# pytest's warning filters, in a scratch directory that is removed at exit.
set -euo pipefail

repo=$(cd "$(dirname "$0")/.." && pwd)
export PYTHONPATH="$repo/src${PYTHONPATH:+:$PYTHONPATH}"
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"

# a write and a read: analyze must read the table without any warning, also
# with CRLF endings and blank, whitespace-only and # lines among its rows (the
# line filter), and give the same verdict
python -m qchan --help
python -W error -m qchan depol-classical --steps 2001 --out ci.csv
python -W error -m qchan analyze ci.csv --col f > ci.out
python -c "rows = open('ci.csv').read().splitlines(); rows[5:5] = ['', '  ', '# note']; rows[-1:-1] = ['\t']; open('ci_mixed.csv', 'w', newline='\r\n').write('\n'.join(rows) + '\n')"
python -W error -m qchan analyze ci_mixed.csv --col f > ci_mixed.out
diff ci.out ci_mixed.out
cat ci.out
# the dephasing oracle runs its real sigma3 blocks
python -W error -m qchan oracle --model dephasing-mode --c 1 --omega 0.5 --beta 2 --t 3
# each model summed by the line-sum kernel
python -W error -m qchan dephasing-quantum --modes 1:0.5,0.3:2 --beta 2 --out modes.csv
python -W error -m qchan dephasing-classical --cosine 1:1,0.5:2 --out cosine.csv
python -W error -m qchan amp-damping --modes 1:1,0.5:1.5,0.3:0.7 --out amp.csv
# --weight already holds coth(beta omega / 2): a single mode's rows do not
# depend on beta, also where coth overflows
python -W error -m qchan dephasing-quantum --single-mode --beta inf --out single_inf.csv
python -W error -m qchan dephasing-quantum --single-mode --beta 1e-320 --out single_hot.csv
diff <(grep -v '^#' single_inf.csv) <(grep -v '^#' single_hot.csv)
# a Monte Carlo run needs no scipy: numpy draws its normals
python -W error -c "import runpy, sys; sys.modules['scipy'] = None; sys.argv[1:] = ['reproduce', 'fig1', '--mc', '1000']; runpy.run_module('qchan', run_name='__main__', alter_sys=True)"

# JSON written one slab at a time is json.dumps of the whole payload, with
# the poles' NaN gamma as null
python -W error -m qchan depol-spinbath --t-max 12.566370614359172 --steps 5 --format json --out poles.json
python -c "import json; text = open('poles.json').read(); assert text == json.dumps(json.loads(text), sort_keys=True, indent=1) + '\n' and 'null' in text"

# a command that must fail: its exit code is $1, and its stderr is left in err.txt
expect() {
    local want=$1 got=0
    shift
    python -W error -m qchan "$@" 2> err.txt || got=$?
    cat err.txt
    if [ "$got" != "$want" ]; then
        echo "expected exit $want, got $got: qchan $*" >&2
        exit 1
    fi
}
# work above the budget exits 3 before any sum: a spin star's sectors and a
# custom ensemble's components (too many for one argument) are lines
expect 3 depol-spinbath --ensemble spin-star --N 4000 --steps 1000001 --out star.csv
python -c "import json; json.dump({'ensemble': 'custom', 'components': [[0.5 + k % 4, 1 + k / 20000, 1 / 20000] for k in range(20000)]}, open('custom.json', 'w'))"
expect 3 depol-spinbath --config custom.json --steps 1000001 --out custom.csv
# a spectral file that fails a value check is named in the error
printf '0 0\n1 inf\n2 1\n' > inf.txt
expect 2 dephasing-quantum --spectral-file inf.txt --out inf.csv
grep -q 'spectral file inf.txt:' err.txt
# a spectral file is read as a plain local file: a gzip one is not decompressed
python -c "import gzip, pathlib; pathlib.Path('j.txt.gz').write_bytes(gzip.compress(b'0 0\\n1 1\\n2 0.5\\n'))"
expect 2 dephasing-quantum --spectral-file j.txt.gz --out gz.csv
grep -q 'spectral file j.txt.gz:' err.txt
# a log-spaced table: about 9 in 10 of its moment sets take the Gauss-Legendre
# rule (kappa <= 24), the rest the forward recurrence
python -c "import numpy as np; w = np.geomspace(1e-3, 40.0, 101); np.savetxt('log.txt', np.column_stack([w, w * np.exp(-w / 3.0)]))"
python -W error -m qchan dephasing-quantum --spectral-file log.txt --beta 1 --t-max 100 --steps 2001 --out log.csv
# a uniform table: its 10 float panel widths differ only by the knots'
# rounding and form at most 2 width classes, and up to t = 1000 about half
# its moment sets take the Gauss-Legendre rule, half the forward recurrence
python -c "import numpy as np; w = np.linspace(0.0, 40.0, 401); np.savetxt('uniform.txt', np.column_stack([w, 8 * np.pi * w * np.exp(-w)]))"
python -W error -m qchan dephasing-quantum --spectral-file uniform.txt --beta inf --t-max 1000 --steps 20001 --out uniform.csv
# a coarse table with J(0) > 0: its first knot interval's singular part is a
# closed form, so 200,001 times up to t = 400 fit the work budget
python -c "import numpy as np; w = np.linspace(0.0, 20.0, 21); np.savetxt('coarse.txt', np.column_stack([w, 0.5 + 8 * np.pi * w * np.exp(-w)]))"
python -W error -m qchan dephasing-quantum --spectral-file coarse.txt --beta 1 --t-max 400 --steps 200001 --out coarse.csv
# a table's first pass and its least Filon sums are charged before the pass:
# 1,000,001 knots at 251 times exit 3 without a panel (the pass took ~5 s)
python -c "import numpy as np; w = np.linspace(0.0, 40.0, 1000001); np.savetxt('large.txt', np.column_stack([w, 8 * np.pi * w * np.exp(-w)]))"
SECONDS=0
expect 3 dephasing-quantum --spectral-file large.txt --out large.csv
if [ "$SECONDS" -ge 2 ]; then
    echo "the 1,000,001-knot table took ${SECONDS} s to exit" >&2
    exit 1
fi
# a threshold that is not finite and >= 0 is a configuration error
expect 2 analyze ci.csv --col f --eps-abs nan
# a non-finite error bound ends the refinement at once: this table's W/w
# overflows next to its knot at 5e-324
printf '0 1\n5e-324 1\n1 1\n' > tiny.txt
SECONDS=0
expect 3 dephasing-quantum --spectral-file tiny.txt --beta 1 --steps 5 --t-max 2 --out tiny.csv
if [ "$SECONDS" -ge 2 ]; then
    echo "the non-finite quadrature took ${SECONDS} s to exit" >&2
    exit 1
fi

# every benchmark output checked against an independent reference: the
# digamma closed form, quad_vec, the exact single-excitation block and the
# exact spin-bath evolution
python "$repo/bench/run.py" --workload all --seconds 2 | tee bench.out
tail -n 1 bench.out | python -c "import json, sys; r = json.load(sys.stdin); sys.exit(not (r['correct'] is True and r['failed'] == 0))"
