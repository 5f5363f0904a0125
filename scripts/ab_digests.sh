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
# trace runners (`gridvm::compile::run_*`) start mod 64 and 4096 and the per-job
# path's decoder, verifier and interpreter loops start mod 4096, and each row
# shows both sides' `peak_rss_mb`, read off the same `gate --entry` line
# as the digest: one sample a side, printed and never compared, so it
# adds no run and no pass/fail condition.
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

# Where the trace executor landed on each side: every `gridvm::compile::run_*`
# function a compiled circuit runs in (the plan runner, the exact-program
# runner for the partial last circuit, and `run_trace` around them), start
# mod 64 and mod 4096. `vm_hot_loops` reads up to 20 % apart between two
# builds of identical runner machine code as its start moves mod 64
# (ROADMAP 1(i)); `.cargo/config.toml` pins every function to 0x00 from
# PR 18 on, so a base built before that — or any build under an environment
# RUSTFLAGS — says so here, next to whatever timings are taken from these
# two binaries. A side with none of them fails the script: a rename must
# not drop the report silently.
placement() {
    local found
    found=$(nm -S -C "$1" | awk '$4 ~ /^gridvm::compile::run_/ { print $1, $2, $4 }')
    if [ -z "$found" ]; then
        echo "ab_digests: no gridvm::compile::run_* function in $1" >&2
        return 1
    fi
    while read -r addr size name; do
        printf ' %s 0x%02x/0x%03x (%d bytes)' "${name#gridvm::compile::}" \
            $((0x$addr % 64)) $((0x$addr % 4096)) $((0x$size))
    done <<<"$found"
}
base_place=$(placement "$base_bin")
head_place=$(placement "$head_bin")
printf 'trace runners start mod 64/4096, base:  %s\n' "$base_place"
printf 'trace runners start mod 64/4096, change:%s\n' "$head_place"

# Where the per-job path's other jump-table loops landed, mod 4096: a
# change to anything linked ahead of `gridvm` moves them all, and
# `vm_short_jobs` has read 8-13 % apart on that alone. `decode` is the
# image decoder's loop (absent, `-`, from a base whose `from_bytes` held it).
short_path() {
    local name addr
    for name in 'image::ProgramImage::from_bytes' 'image::ProgramImage::decode' \
        'verify::verify' 'machine::frame_loop' 'machine::Machine::interpret'; do
        addr=$(nm -C "$1" | awk -v n="gridvm::$name" '$3 == n { print $1; exit }')
        if [ -n "$addr" ]; then
            printf ' %s 0x%03x' "${name#*::}" $((0x$addr % 4096))
        else
            printf ' %s -' "${name#*::}"
        fi
    done
}
printf 'per-job path start mod 4096, base:  %s\n' "$(short_path "$base_bin")"
printf 'per-job path start mod 4096, change:%s\n' "$(short_path "$head_bin")"

# The `gate --entry` line of one run.
entry() {
    "$1" gate --entry --workload "$2" --size "$3" --seed "$4" --reps 1 --trace 0
}

# "<sim_digest> <ops_failed>" of an entry line.
outcome() {
    sed -n 's/^{"sim_digest":"\([0-9a-f]*\)".*"ops_failed":\([0-9]*\),.*/\1 \2/p' <<<"$1"
}

# The entry's peak resident set in MB (nothing where the host reports none).
peak_rss() {
    sed -n 's/.*"peak_rss_mb":{"unit":"MB","median":\([0-9.]*\).*/\1/p' <<<"$1" |
        awk '{ printf "%.1f", $1 }'
}

status=0
printf '%-15s %-5s %-4s %-22s %-22s %-8s %-8s\n' workload size seed "base ($base_ref)" change \
    "MB base" "MB chg"
for size in $sizes; do
    for seed in 1 2; do
        for w in $workloads; do
            base_entry=$(entry "$base_bin" "$w" "$size" "$seed")
            head_entry=$(entry "$head_bin" "$w" "$size" "$seed")
            b=$(outcome "$base_entry")
            h=$(outcome "$head_entry")
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
            printf '%-15s %-5s %-4s %-22s %-22s %-8s %-8s %s\n' "$w" "$size" "$seed" "$b" "$h" \
                "$(peak_rss "$base_entry")" "$(peak_rss "$head_entry")" "$verdict"
        done
    done
done
if [ "$status" -eq 0 ]; then
    echo "ab_digests: every sim_digest and ops_failed equal to $base_ref${MOVED:+, except the sim_digests declared moved ($MOVED)}"
else
    echo "ab_digests: behaviour differs from $base_ref other than as declared (MOVED=${MOVED:-})" >&2
fi
exit "$status"
