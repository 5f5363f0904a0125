#!/usr/bin/env bash
# The ledger's single entry point: build release, run every workload,
# take the traced run, compare against the committed baseline.
#
#   crates/ledger/run.sh [--seed S] [--reps N] [--smoke]
#
# Writes crates/ledger/out/{run,trace}.json and one Chrome trace per
# workload. With no arguments the run is compared against the baseline
# (same seed, same sizes) and the comparison's exit status is the
# script's — except on a host of a different class (core count) than the
# baseline's, where timings cannot be compared and a difference is only
# a warning.
set -euo pipefail
cd "$(dirname "$0")/../.."

out=crates/ledger/out
baseline=crates/ledger/baseline/reference.json

cargo build --release -p ledger
ledger="${CARGO_TARGET_DIR:-target}/release/ledger"

"$ledger" run --all --out "$out/run.json" "$@"
"$ledger" trace --all --out "$out/trace.json" "$@"

if [ "$#" -gt 0 ]; then
    echo "ledger: non-default inputs; not compared against $baseline"
    exit 0
fi
baseline_nproc=$(sed -n 's/.*"nproc":\([0-9]*\).*/\1/p' "$baseline" | head -n 1)
if "$ledger" compare "$baseline" "$out/run.json"; then
    echo "ledger: no worse than $baseline"
elif [ "$(nproc)" != "$baseline_nproc" ]; then
    echo "ledger: WARNING: differs from $baseline, but this host has $(nproc) core(s)" \
         "and the baseline's had $baseline_nproc; re-measure the baseline here" >&2
else
    echo "ledger: worse than $baseline" >&2
    exit 1
fi
