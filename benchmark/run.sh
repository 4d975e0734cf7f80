#!/usr/bin/env bash
# One command for the end-to-end benchmark: builds the root release binary
# the sharded workload needs (swr-shard) and the harness, then runs it.
#
#   benchmark/run.sh                    every workload, tracing off
#   benchmark/run.sh --traced           per-layer metrics + span files
#   benchmark/run.sh --agree            two sets back to back, gaps vs bounds
#   benchmark/run.sh --workload NAME [--seed N] [--seconds S] [--trace 0|1]
#                                       one workload; result object last
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"

# Same profile, same sources: the measured code is the shipped code. Both
# builds honour CARGO_TARGET_DIR; without it each uses its own target/.
cargo build --release --offline --bin swr-shard >&2
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
shard_bin="${CARGO_TARGET_DIR:-target}/release/swr-shard"
harness="${CARGO_TARGET_DIR:-benchmark/target}/release/swr-e2e"
# Fail loudly, never skip: without it the sharded workload cannot run.
[ -x "$shard_bin" ] || { echo "run.sh: $shard_bin missing after the root build" >&2; exit 1; }

# Brick spill files and worker sockets go through the temp dir; keep them
# inside the checkout. Relative, so a deep checkout cannot overflow the
# 108-byte unix-socket path limit.
export TMPDIR=benchmark/out/tmp
mkdir -p "$TMPDIR"

exec "$harness" --shard-bin "$shard_bin" --out benchmark/out "$@"
