#!/usr/bin/env bash
# Behaviour parity between two commits: the step that says a `perf_opt` or
# `simplicity` change altered no simulated outcome.
#
#   [SIZES="gate full"] [MOVED="w1 w2 ..."] scripts/ab_digests.sh <base-ref> [workload ...]
#
# Builds `ledger` at <base-ref> (a `git archive` unpacked under target/) and
# at the current checkout, runs each named workload (default: all six) once
# per side at each size in $SIZES (default: gate and full) for seeds 1 and
# 2, and compares each run's `sim_digest` and `ops_failed`. Exits non-zero
# iff any of them differs. `SIZES=gate` is the pull-request check (CI's
# `parity` job); the full sizes take about ten minutes on two cores.
#
# A change that moves a schedule on purpose declares it: for a workload
# named in $MOVED a differing `sim_digest` prints `moved`, and an *equal*
# one fails — a stale declaration, which would wave the next real
# difference through. `ops_failed` must be equal on every workload either
# way. CI reads the list from a `Digests-moved:` trailer on the pull
# request's commits, so the default (nothing may move) needs no file reset
# after the merge. Naming workloads as arguments instead skips the others
# altogether. Timings are not compared — that is `ledger compare` and the
# benchmark driver's job — but the two binaries are what a perf table is
# usually taken from next, so the script prints where each side's
# `gridvm::compile::run_ops` instantiations start mod 64.
set -euo pipefail
cd "$(dirname "$0")/.."

base_ref=${1:?usage: scripts/ab_digests.sh <base-ref> [workload ...]}
shift
target="${CARGO_TARGET_DIR:-$PWD/target}"
tree="$target/ab_digests/base"
workloads=${*:-pool_drain fed_scale fed_scale_par campaign_sweep vm_short_jobs vm_hot_loops}
sizes=${SIZES:-gate full}
moved=" ${MOVED:-} "

rm -rf "$tree"
mkdir -p "$tree"
git archive "$base_ref" | tar -x -C "$tree"
trap 'rm -rf "$tree"' EXIT

cargo build --release --quiet -p ledger
(cd "$tree" && CARGO_TARGET_DIR="$target/ab_digests/build" cargo build --release --quiet -p ledger)
head_bin="$target/release/ledger"
base_bin="$target/ab_digests/build/release/ledger"

# Where the trace executor landed on each side. `vm_hot_loops` reads up to
# 20 % apart between two builds of identical `run_ops` machine code as its
# start moves mod 64 (ROADMAP 1(i)); `.cargo/config.toml` pins every
# function to 0x00 from PR 18 on, so a base built before that — or any
# build under an environment RUSTFLAGS — says so here, next to whatever
# timings are taken from these two binaries.
placement() {
    nm -S -C "$1" | grep 'gridvm::compile::run_ops' | while read -r addr size _; do
        printf ' 0x%02x (%d bytes)' $((0x$addr % 64)) $((0x$size))
    done
}
printf 'run_ops start mod 64, base:  %s\n' "$(placement "$base_bin")"
printf 'run_ops start mod 64, change:%s\n' "$(placement "$head_bin")"

# "<sim_digest> <ops_failed>" of one run.
outcome() {
    "$1" gate --entry --workload "$2" --size "$3" --seed "$4" --reps 1 --trace 0 |
        sed -n 's/^{"sim_digest":"\([0-9a-f]*\)".*"ops_failed":\([0-9]*\),.*/\1 \2/p'
}

status=0
printf '%-15s %-5s %-4s %-22s %-22s\n' workload size seed "base ($base_ref)" change
for size in $sizes; do
    for seed in 1 2; do
        for w in $workloads; do
            b=$(outcome "$base_bin" "$w" "$size" "$seed")
            h=$(outcome "$head_bin" "$w" "$size" "$seed")
            verdict=
            if [ -z "$b" ] || [ -z "$h" ] || [ "${b#* }" != "${h#* }" ]; then
                verdict=DIFFERS
            elif [[ $moved == *" $w "* ]]; then
                verdict=moved
                [ "${b% *}" != "${h% *}" ] || verdict='EQUAL, but declared moved'
            elif [ "$b" != "$h" ]; then
                verdict=DIFFERS
            fi
            [ -z "$verdict" ] || [ "$verdict" = moved ] || status=1
            printf '%-15s %-5s %-4s %-22s %-22s %s\n' "$w" "$size" "$seed" "$b" "$h" "$verdict"
        done
    done
done
if [ "$status" -eq 0 ]; then
    echo "ab_digests: every sim_digest and ops_failed equal to $base_ref${MOVED:+, except the sim_digests declared moved ($MOVED)}"
else
    echo "ab_digests: behaviour differs from $base_ref other than as declared (MOVED=${MOVED:-})" >&2
fi
exit "$status"
