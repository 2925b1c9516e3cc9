#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the given
# arguments; see README.md beside this file. Run from the repository
# root. The last line of standard output is the result the builder's
# contract asks for.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# Reuse the root workspace's target directory unless the caller names one.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/../target}"

# Build chatter goes to stderr so standard output holds results only.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2

exec "$CARGO_TARGET_DIR/release/snet-benchmark" "$@"
