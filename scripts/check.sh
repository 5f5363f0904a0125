#!/usr/bin/env bash
# Full local gate: build, test, format, lint. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> every package is a path package (prints any that has a source)"
cargo metadata --format-version 1 --offline | { ! grep -o '"source":"[^"]*"'; }

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> every experiment at smoke size (each one's gates are assertions)"
cargo run --release -p bench --bin exp -- all --smoke
cargo run --release -p bench --bin exp -- e7 --localize
cargo run --release -p bench --bin exp -- e13 --phases --smoke
cargo run --release -p bench --bin exp -- census --smoke

echo "All checks passed."
