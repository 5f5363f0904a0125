#!/usr/bin/env bash
# Full local gate: build, test, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

# The committed artifacts as the gate found them: every step below must
# leave them so (the experiments export into a scratch directory).
bench_files() { git ls-files -z 'BENCH_*' | xargs -0 sha256sum; }
bench_at_start=$(bench_files)

echo "==> every package is a path package (prints any that has a source)"
cargo metadata --format-version 1 --offline | { ! grep -o '"source":"[^"]*"'; }

echo "==> one tie-break: the push-order EventQueue is named only by its shim, desim's tests and the ledger"
grep -rnw --include=*.rs EventQueue crates | { ! grep -v -e '^crates/desim/src/queue.rs:' \
    -e '^crates/desim/src/lib.rs:[0-9]*:pub use queue::' -e '^crates/desim/tests/' -e '^crates/ledger/'; }

echo "==> one form each: no second event type, out-of-process transport or network-wide fault model comes back"
if grep -rnw --include=*.rs -e ChannelTransport -e map_strings -e ResolveStr -e with_jitter \
    -e with_drop_probability -e with_duplication_probability -e set_host_down -e HostDown \
    -e SpanAction::Masked crates src tests examples; then
    exit 1
fi

echo "==> one registry, one sweep, one export: no interned metric key, merged sweep or headerless stream comes back"
if grep -rnF --include=*.rs -e SeedRun -e Sweep::run -e merged_registry -e SymKey -e LabelSyms \
    -e obs::Interner -e obs::Sym -e '.to_jsonl()' -e 'parse_jsonl(' crates src tests examples; then
    exit 1
fi

echo "==> one vocabulary: no retired chirp op or error, server cap option, matchmaker fault setter or flock timing setter comes back"
if grep -rnF -e Request::Unlink -e Request::Rename -e Request::GetFile -e Request::PutFile \
    -e AlreadyExists -e with_max_open -e '.with_faults(' -e '.patience(' -e '.probe_timeout(' \
    -e '.denial_delay(' crates src tests examples; then
    exit 1
fi

echo "==> one fault vocabulary: no campaign fault type, plan builder method or off-plan checkpoint corrupter comes back"
if grep -rnF --include=*.rs -e CrashPlan -e NetPlan -e NetKind -e FlipPlan -e FlockFaultPlan \
    -e FlockFaultKind -e TimedNetFault -e owner_window -e corrupt_checkpoints_for \
    -e corrupt_key_prefix -e flip_bit_key_prefix -e ckpt_flip_jobs -e '.fault_plan(' \
    -e '.fs_fault(' -e '.crash(' -e '.owner_activity(' -e '.flock_revocation(' -e '.net_partition(' \
    -e '.net_loss(' -e '.net_latency_spike(' -e '.net_duplication(' -e '.heap_flip(' \
    -e '.ckpt_flip(' -e Window::checked -e culprit_pool crates src tests examples; then
    exit 1
fi

echo "==> one assembler, one drain, one run report: no federation report, flock summary or machine-to-pool map comes back"
if grep -rnw --include=*.rs -e FlockReport -e of_flock -e pool_of_machine crates src tests examples \
    | grep -v '^crates/ledger/'; then
    exit 1
fi

echo "==> the federation facade and the drain loop live in condor's pool and flock modules (and the frozen ledger)"
if grep -rnE --include=*.rs -e '\bFederationBuilder\b' -e '\bfn drain\b' crates src tests examples \
    | grep -v -e '^crates/condor/src/flock.rs:' -e '^crates/condor/src/pool.rs:' -e '^crates/ledger/'; then
    exit 1
fi

echo "==> a renewal is one slot: the matchmaker files machines in its slot table, no fence map or id-keyed B-tree comes back"
if grep -nE -e '\bfenced_machines\b' -e 'BTreeMap<ActorId, *MachineEntry>' crates/condor/src/matchmaker.rs \
    || sed '/^#\[cfg(test)\]/,$d' crates/condor/src/matchmaker.rs | grep -nE 'BTreeMap<ActorId\b' \
    | grep -vF 'machines: &BTreeMap<ActorId, ClassAd>,'; then
    exit 1
fi

echo "==> a short job allocates only what it hands back: no fresh heap array in gridvm, and no process allocator outside test crates"
if grep -rnF --include=*.rs 'heap.push(vec![0;' crates/gridvm \
    || grep -rnE --include=*.rs '^\s*#\[global_allocator\]' crates src tests examples | grep -v '/tests/'; then
    exit 1
fi

echo "==> one deadline: no retired timeout message comes back beside Msg::Deadline"
if grep -rnw --include=*.rs -e ClaimTimeout -e ReportTimeout -e LeaseCheck -e ClaimExpire \
    -e CkptFetchTimeout -e FlockTimeout crates src tests examples; then
    exit 1
fi

# "<file>:<line>: <fn> <arm> | <text>" for each line of the named files
# matching the pattern: the function it sits in and the `Msg::` arm within.
where_matches() {
    local pattern=$1
    shift
    awk -v pat="$pattern" '
        /^ *(pub[(a-z)]* )?fn [a-z_0-9]+/ {
            match($0, /fn [a-z_0-9]+/); fn = substr($0, RSTART + 3, RLENGTH - 3); arm = ""
        }
        /^ *Msg::[A-Za-z]+/ { match($0, /Msg::[A-Za-z]+/); arm = substr($0, RSTART + 5, RLENGTH - 5) }
        $0 ~ pat { print FILENAME ":" FNR ": " fn " " arm " |" $0 }' "$@"
}

echo "==> a job's state has one writer: JobState is set only in Schedd::transition and JobRecord::new"
if where_matches 'state: JobState::|[.]state *= *[^=]' crates/condor/src/*.rs \
    | grep -v -e '| *self[.]state = ' -e '^crates/condor/src/schedd[.]rs:[0-9]*: transition ' \
        -e '^crates/condor/src/job[.]rs:[0-9]*: new '; then
    exit 1
fi

echo "==> a claim's epoch moves in Schedd::transition, and by hand only where a MatchNotify is declined"
bumps=$(where_matches 'epoch [+]= 1' crates/condor/src/schedd.rs | grep -v '^[^ ]* transition ' || true)
if [ "$(grep -c . <<<"$bumps")" -ne 1 ] || ! grep -q '^[^ ]* on_message MatchNotify ' <<<"$bumps"; then
    echo "$bumps"
    exit 1
fi

echo "==> the event stream is read field by field: collector.rs and event.rs build no json::parse tree"
if grep -nE '\bjson::parse\b|\bparse\(' crates/obs/src/collector.rs crates/obs/src/event.rs; then
    exit 1
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> every experiment at smoke size (each one's gates are assertions), exporting into target/check-artifacts"
artifacts="$PWD/target/check-artifacts"
rm -rf "$artifacts"
mkdir -p "$artifacts"
(
    cd "$artifacts"
    cargo run --release -p bench --bin exp -- all --smoke
    cargo run --release -p bench --bin exp -- e7 --localize
    cargo run --release -p bench --bin exp -- e13 --phases --smoke
    cargo run --release -p bench --bin exp -- e13 --crossover --smoke
    cargo run --release -p bench --bin exp -- census --cost --smoke
)

echo "==> every example runs (each one's assert!s are its gate)"
for example in quickstart java_universe blackhole_pool io_proxy; do
    cargo run --release --quiet --example "$example" >/dev/null
done

echo "==> the gate left every committed artifact as it found it"
if [ "$(bench_files)" != "$bench_at_start" ]; then
    diff <(echo "$bench_at_start") <(bench_files)
    exit 1
fi

echo "All checks passed."
