#!/bin/sh
# Write a fixed set of kwlab CLI outputs into OUT_DIR, for byte-identity
# checks between two checkouts:
#
#   scripts/cli_outputs.sh /tmp/before     # in the old checkout
#   scripts/cli_outputs.sh /tmp/after      # in the new one
#   diff -r /tmp/before /tmp/after
#
# Every command runs inside OUT_DIR with relative paths, so the echoed
# output paths in stdout.txt compare too.  The set: `simulate` of the c06
# record (report_every 1, dt_min 1e-5), the same on one column (n_theta 1,
# the radial mesh, c06_column), a Newton-kick record, a
# boundary-only Newton record, a linear record with unequal weights, the
# 129x128 calm run, one run each with an explicit dt and with cfl 0.3
# (the two ways to set the step size), one on radii 1..3 with
# integer-typed mesh values (n_theta 16.0), and five blow-ups on solver
# paths no other output reaches: an undamped source run (the kick without
# damping), a boundary-source-only run on 24 radial nodes (no interior
# source, and a dr of 1/23 that is not a power of two), a steep p = 40
# run whose candidate overflows the exact norms, and the same at p = 100,
# whose candidate overflows in the step, at dt_min 1e-7 and at 1e-3 (a
# PhaseNorm blow-up with nulls in its final report).  A refused `simulate`
# appends its error and `exit N RUN` to stdout.txt and the script goes on, so
# an older program that refuses a newer run (c06_column before n_theta 1 was
# accepted) shows up as that run's lines in the diff.  Then seven
# ClassifyAndSimulate scans, two of them on an alpha or beta axis over
# linear-damping cells and one from a --params-file whose m a --m flag
# overrides, so m_tilde re-derives on its m axis; two refused
# ClassifyAndSimulate scans, with their errors and exit code 2 recorded in
# stdout.txt: one whose first simulated cell (p = 2.001) has no
# negative-energy data, and one whose cell p = 3, m = 1.5 has no parameter
# record (m_tilde 1.8 > m); three `classify` lines, one
# from a --params-file with a flag over one of its keys; seven `oracle` queries:
# two plain ones, l near 1 (1.05), a huge psi0 (1e300), three
# trajectories (one with --threshold 1e3, one with c > 0 and psi0 near the
# edge c^(1/l) but inside blowup_time's conditioning guard), and the
# refused near-edge query psi0 = 1.0000001, whose exit code 3 is recorded
# in stdout.txt.  For the classifier, four ClassifyOnly grids at each
# N = 3..7: the interior side (p x m), the boundary side (q x mu),
# both sources (p x q), and one corner grid whose first cell sits exactly on
# the (1.12)/(1.11) borderline 1 + r/m' of each side with m = mu = 7 and
# both dampings on.  Together they print every `fired` label and the (1.12)
# note.
set -eu

if [ $# -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 2
fi
ROOT=$(cd "$(dirname "$0")/.." && pwd)
mkdir -p "$1"
cd "$1"
export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"
kwlab() { python3 -m kwlab "$@" >>stdout.txt; }
: >stdout.txt

cat >c06.json <<'JSON'
{"params": {"gamma": 1.0, "p": 4.0, "alpha": 1.0, "m": 2.0},
 "mesh": {"n_r": 33, "n_theta": 32},
 "initial_data": {"profile": "ramp", "margin": 1.0},
 "t_end": 100.0, "dt_min": 1e-5, "blow_threshold": 1e13, "report_every": 1}
JSON
cat >newton.json <<'JSON'
{"params": {"alpha": 1.0, "beta": 1.0, "gamma": 1.0, "delta": 1.0, "a": 0.5,
            "m": 4.0, "m_tilde": 1.5, "mu": 3.5, "p": 3.0, "q": 3.0},
 "initial_data": {"profile": "sine", "scale": 0.3},
 "t_end": 1.0, "report_every": 1}
JSON
cat >boundary_newton.json <<'JSON'
{"params": {"beta": 1.0, "b": 0.5, "mu": 3.0, "mu_tilde": 1.5, "gamma": 1.0, "p": 3.0},
 "mesh": {"n_r": 17, "n_theta": 16},
 "initial_data": {"profile": "bump", "margin": 1.0},
 "t_end": 20.0, "dt_min": 1e-5, "report_every": 1}
JSON
cat >linear.json <<'JSON'
{"params": {"alpha": 0.7, "beta": 1.3, "a": 0.4, "gamma": 1.0, "p": 4.0},
 "mesh": {"n_r": 17, "n_theta": 16},
 "initial_data": {"profile": "ramp", "margin": 1.0},
 "t_end": 20.0, "dt_min": 1e-5, "report_every": 1}
JSON
cat >fine.json <<'JSON'
{"params": {"gamma": 1.0, "p": 2.0, "alpha": 1.0, "m": 2.0},
 "mesh": {"n_r": 129, "n_theta": 128},
 "initial_data": {"profile": "ramp", "mode": "scaled", "scale": 1.0},
 "t_end": 2.0, "report_every": 10}
JSON
cat >dt.json <<'JSON'
{"params": {"alpha": 1.0, "a": 0.4, "gamma": 1.0, "p": 3.0},
 "mesh": {"n_r": 17, "n_theta": 16},
 "initial_data": {"profile": "sine", "scale": 0.5},
 "dt": 0.02, "t_end": 2.0, "report_every": 5}
JSON
cat >cfl.json <<'JSON'
{"params": {"beta": 1.0, "mu": 3.0, "gamma": 1.0, "p": 4.0},
 "mesh": {"n_r": 17, "n_theta": 16},
 "initial_data": {"profile": "bump", "margin": 1.0},
 "cfl": 0.3, "t_end": 20.0, "dt_min": 1e-5, "report_every": 5}
JSON
cat >radii.json <<'JSON'
{"params": {"alpha": 1.0, "gamma": 1.0, "p": 3.0},
 "mesh": {"r_inner": 1, "r_outer": 3, "n_r": 17, "n_theta": 16.0},
 "initial_data": {"profile": "ramp", "margin": 1.0},
 "t_end": 20.0, "dt_min": 1e-5, "report_every": 5}
JSON
cat >undamped.json <<'JSON'
{"params": {"gamma": 1.0, "p": 6.0},
 "mesh": {"n_r": 17, "n_theta": 16},
 "initial_data": {"profile": "ramp", "margin": 1.0},
 "t_end": 20.0, "dt_min": 1e-5, "report_every": 5}
JSON
cat >boundary_source.json <<'JSON'
{"params": {"beta": 1.0, "mu": 2.0, "delta": 1.0, "q": 4.0},
 "mesh": {"n_r": 24, "n_theta": 16},
 "initial_data": {"profile": "ramp", "margin": 1.0},
 "t_end": 20.0, "dt_min": 1e-5, "report_every": 5}
JSON
cat >steep.json <<'JSON'
{"params": {"alpha": 1.0, "m": 1.5, "gamma": 1.0, "p": 40.0},
 "mesh": {"n_r": 17, "n_theta": 16},
 "initial_data": {"margin": 1.0},
 "t_end": 20.0, "dt_min": 1e-7}
JSON
sed 's/"n_theta": 32/"n_theta": 1/' c06.json >c06_column.json
sed 's/"p": 40.0/"p": 100.0/' steep.json >steep100.json
sed 's/"dt_min": 1e-7/"dt_min": 1e-3/' steep100.json >steep100_coarse.json
for run in c06 c06_column newton boundary_newton linear fine dt cfl radii undamped \
           boundary_source steep steep100 steep100_coarse; do
    kwlab simulate "$run.json" "$run" 2>>stdout.txt || echo "exit $? $run" >>stdout.txt
done

scan() { out=$1; shift; kwlab scan --mode ClassifyAndSimulate --out "$out" "$@"; }
scan scan_pq.csv --alpha 1 --beta 1 --gamma 1 --delta 1 --axis1 p:3:5:3 --axis2 q:3:5:3
scan scan_pm.csv --alpha 1 --beta 1 --b 0.5 --gamma 1 --axis1 p:3:5:3 --axis2 m:2:3:3
scan scan_pmu.csv --alpha 1 --beta 1 --gamma 1 --axis1 p:3:5:3 --axis2 mu:2:3:3
scan scan_pmt.csv --alpha 1 --a 1 --gamma 1 --m 3 --axis1 p:3.5:5:3 --axis2 m_tilde:1.2:2:3
scan scan_alpha.csv --alpha 1 --a 0.4 --gamma 1 --axis1 p:3:6:4 --axis2 alpha:0.5:2:3
scan scan_beta.csv --alpha 1 --beta 1 --b 0.4 --gamma 1 --axis1 p:3:6:4 --axis2 beta:0.5:2:3
cat >scan_params.json <<'JSON'
{"alpha": 1.0, "a": 1.0, "gamma": 1.0, "m": 4.0}
JSON
# --m 3 overrides the file's m, so m_tilde is the default 2 and re-derives
# on the m axis, down to m = 1.5
scan scan_file.csv --params-file scan_params.json --m 3 --axis1 p:3:5:3 --axis2 m:1.5:3:4
scan scan_refused.csv --gamma 1 --alpha 1 --m 2 --axis1 p:2.001:4:3 --axis2 a:0:0.5:2 \
    2>>stdout.txt || echo "exit $?" >>stdout.txt
scan scan_record_refused.csv --gamma 1 --alpha 1 --m-tilde 1.8 --axis1 p:3:4:2 \
    --axis2 m:1.5:3:3 2>>stdout.txt || echo "exit $?" >>stdout.txt

kwlab classify --gamma 1 --p 4 --alpha 1 --m 2
kwlab classify --gamma 1 --p 3 --alpha 1 --m 4
cat >classify_params.json <<'JSON'
{"N": 3, "gamma": 1.0, "alpha": 1.0, "m": 4, "p": 4.0}
JSON
kwlab classify --params-file classify_params.json --p 5.6
# N, then 1 + r/(7/6) with r = 2n/(n-2) at n = N (interior) and n = N-1
# (boundary, 2 where r is infinite), each the repr of the float
for line in "3 6.142857142857142 2" "4 4.428571428571429 6.142857142857142" \
            "5 3.857142857142857 4.428571428571429" "6 3.571428571428571 3.857142857142857" \
            "7 3.4 3.571428571428571"; do
    set -- $line
    kwlab scan --mode ClassifyOnly --N "$1" --out "interior_N$1.csv" \
        --gamma 1 --alpha 1 --axis1 p:2:8:25 --axis2 m:1.5:7.5:25
    kwlab scan --mode ClassifyOnly --N "$1" --out "boundary_N$1.csv" \
        --delta 1 --beta 1 --axis1 q:2:8:25 --axis2 mu:1.5:7.5:25
    kwlab scan --mode ClassifyOnly --N "$1" --out "sources_N$1.csv" \
        --gamma 1 --delta 1 --beta 1 --mu 3 --axis1 p:2:8:25 --axis2 q:2:8:25
    kwlab scan --mode ClassifyOnly --N "$1" --out "borderline_N$1.csv" \
        --gamma 1 --delta 1 --alpha 1 --beta 1 --m 7 --mu 7 --axis1 "p:$2:8:4" --axis2 "q:$3:8:4"
done
kwlab oracle --l 2 --psi0 1.5
kwlab oracle --l 3 --c 0.5 --psi0 2 --trajectory oracle_traj.csv
kwlab oracle --l 1.05 --c 1 --psi0 2
kwlab oracle --l 1.5 --c 1 --psi0 1e300
kwlab oracle --l 2 --c 1 --psi0 2 --threshold 1e3 --trajectory oracle_threshold.csv
kwlab oracle --l 1.5 --c 4 --psi0 2.6 --trajectory oracle_edge.csv
kwlab oracle --l 2 --c 1 --psi0 1.0000001 || echo "exit $?" >>stdout.txt
