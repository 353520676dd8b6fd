#!/usr/bin/env bash
# Check that `spanforge verify` writes the same report on one CPU and on all
# CPUs.  Pinned to one CPU, verify runs every trial in-process; unpinned, the
# duality, spectral and scaling trials run on forked workers (--trials 128
# runs 128 duality trials and 32 of each of the others, enough for 2 workers
# at the floors of 32, 8 and 16 trials; kappa's 32 stay below its floor of
# 512 and run in-process).
#
# Usage: verify-report-cpu-parity.sh DIR
# DIR receives both reports and their stderr.  Needs the spanforge console
# script on PATH and taskset.
set -euo pipefail
dir=${1:?usage: $0 DIR}
args="verify --suite all --trials 128 --seed 3 --out"
taskset -c 0 spanforge $args "$dir/verify-1cpu.json" 2> "$dir/verify-1cpu.err"
spanforge $args "$dir/verify-allcpu.json" 2> "$dir/verify-allcpu.err"
cat "$dir/verify-1cpu.err" "$dir/verify-allcpu.err"
grep -q " on 1 worker$" "$dir/verify-1cpu.err"
grep -q " workers$" "$dir/verify-allcpu.err"
cmp "$dir/verify-1cpu.json" "$dir/verify-allcpu.json"
