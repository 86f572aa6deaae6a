#!/usr/bin/env bash
# Local CI: everything a PR must pass.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release
cargo test -q

# Robustness drills: seeded fault injection (deterministic FaultPlan
# seeds baked into the tests) and pathological-pattern budgets.
cargo test -q -p bitgen --test fault_tolerance --test pathological_patterns

# Transform-pipeline safety net: differential agreement (ZBS-on vs
# ZBS-off vs oracle) and the visit-counter complexity bounds.
cargo test -q -p bitgen --test zbs_differential --test pass_complexity

# Streaming safety net: the carry-propagating scanner must stay
# bit-identical to batch scans under random patterns × random chunkings
# (unbounded repetitions and empty pushes included).
cargo test -q -p bitgen --test stream_carry

# Lane-width differential matrix: every workload at lane widths
# {1,2,4,8} × chunk sizes {1, 7, 64 KiB} must be bit-identical to the
# scalar path, batch and streaming, match counts included.
cargo test -q -p bitgen --test simd_differential

# The full tier-1 suite again with the wide-word kernels pinned to both
# extremes of BITGEN_LANES, so a width-dependent bug cannot hide behind
# the in-process default. The simd_differential smoke subset rides along
# at each extreme to cross-check the pinned width against the others.
BITGEN_LANES=1 cargo test -q
BITGEN_LANES=1 cargo test -q -p bitgen --test simd_differential smoke_
BITGEN_LANES=max cargo test -q
BITGEN_LANES=max cargo test -q -p bitgen --test simd_differential smoke_

# The bitstream kernels once more with the explicit-SIMD arch path
# compiled in (off by default), so the intrinsics differential runs.
cargo test -q -p bitgen-bitstream --features simd-arch

# Checkpointed-streaming drills: the seeded mid-stream fault sweep plus
# the retry/degrade/suspend-resume differentials (random faults with a
# RetryPolicy must stay bit-identical to batch; checkpoints must restore
# at any chunk boundary).
cargo test -q -p bitgen --test stream_recovery

# Hot-swap safety net: the two-phase rule-swap differential (swap at b
# must equal old-rules prefix ∪ new-rules-fresh suffix under random
# patterns × chunkings), the swap-window fault sweep (recovered windows
# keep the differential, unrecovered ones roll back to the old
# generation — zero silent corruption), and the checkpoint-bytes fuzz
# suite (mutated checkpoints decode identically or fail typed, never
# panic).
cargo test -q -p bitgen --test rule_swap --test swap_recovery --test checkpoint_fuzz

# Cross-process swap drill: a bitgrep run with --swap-rules must emit
# exactly the union of a prefix scanned under the old rules and a
# suffix scanned (offset-rebased) under the new.
SWAPDIR="$(mktemp -d)"
trap 'rm -rf "$SWAPDIR"' EXIT
printf 'cat dog cat cat dog xx' > "$SWAPDIR/input.bin"
printf 'dog\n' > "$SWAPDIR/new.rules"
GOT="$(cargo run -q --release -p bitgen-serve --bin bitgrep -- \
  -e cat --swap-rules "$SWAPDIR/new.rules@12" --positions "$SWAPDIR/input.bin" 2>/dev/null)"
WANT="$(printf '2\n10\n18\n')"
if [ "$GOT" != "$WANT" ]; then
  echo "swap drill: positions '$GOT' != expected '$WANT'" >&2
  exit 1
fi

# Cross-process checkpoint smoke: suspend a stream in one process,
# resume it in another, and require the combined match count to equal an
# uninterrupted batch scan.
CKPT="$(mktemp)"
trap 'rm -rf "$SWAPDIR"; rm -f "$CKPT"' EXIT
BATCH="$(cargo run -q --release -p bitgen --example checkpoint_resume -- batch)"
cargo run -q --release -p bitgen --example checkpoint_resume -- first "$CKPT" > /dev/null
RESUMED="$(cargo run -q --release -p bitgen --example checkpoint_resume -- second "$CKPT")"
if [ "$BATCH" != "$RESUMED" ]; then
  echo "checkpoint smoke: batch '$BATCH' != resumed '$RESUMED'" >&2
  exit 1
fi

# Serve smoke: boot the bitgen-serve daemon on a Unix socket and run 8
# concurrent clients against it — the even ones sharing a pattern set
# (the compiled-pattern cache must report hits), the odd ones split
# across distinct sets — requiring every client's output to be
# byte-identical to `bitgrep --positions` on the same input, at least
# one cache hit in the STATS counters, and a clean daemon exit
# (status 0) after SHUTDOWN.
SERVEDIR="$(mktemp -d)"
SOCK="$SERVEDIR/bitgen.sock"
printf 'cat dog aab cat xaby dooog aab xx %.0s' 1 2 3 4 > "$SERVEDIR/in0.bin"
printf 'aab xaby cat cat dog aab dooog yy %.0s' 1 2 3 4 5 > "$SERVEDIR/in1.bin"
target/release/bitgen-serve serve --socket "$SOCK" -e cat 2>/dev/null &
SERVE_PID=$!
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SWAPDIR" "$SERVEDIR"; rm -f "$CKPT"' EXIT
for _ in $(seq 1 100); do [ -S "$SOCK" ] && break; sleep 0.05; done
[ -S "$SOCK" ] || { echo "serve smoke: daemon never bound $SOCK" >&2; exit 1; }
CLIENT_PIDS=()
for i in 0 1 2 3 4 5 6 7; do
  case $i in
    0|2|4|6) PATS=(-e 'cat' -e 'do+g') ;;
    1|5)     PATS=(-e 'a+b') ;;
    3)       PATS=(-e 'x[ab]{1,4}y') ;;
    7)       PATS=(-e 'a+b' -e 'x[ab]{1,4}y') ;;
  esac
  IN="$SERVEDIR/in$((i % 2)).bin"
  target/release/bitgen-serve scan --socket "$SOCK" --tenant "t$i" \
    --chunk $((7 + i)) "${PATS[@]}" "$IN" > "$SERVEDIR/got$i" 2>/dev/null &
  CLIENT_PIDS+=($!)
  target/release/bitgrep "${PATS[@]}" --positions "$IN" > "$SERVEDIR/want$i"
done
for pid in "${CLIENT_PIDS[@]}"; do
  wait "$pid" || { echo "serve smoke: a client failed" >&2; exit 1; }
done
for i in 0 1 2 3 4 5 6 7; do
  if ! cmp -s "$SERVEDIR/got$i" "$SERVEDIR/want$i"; then
    echo "serve smoke: client $i drifted from bitgrep --positions" >&2
    exit 1
  fi
done
STATS_JSON="$(target/release/bitgen-serve stats --socket "$SOCK")"
case "$STATS_JSON" in
  *'"cache_hits":0,'*) echo "serve smoke: no cache hits: $STATS_JSON" >&2; exit 1 ;;
esac
target/release/bitgen-serve shutdown --socket "$SOCK"
wait "$SERVE_PID" || { echo "serve smoke: daemon exited nonzero" >&2; exit 1; }
trap 'rm -rf "$SWAPDIR" "$SERVEDIR"; rm -f "$CKPT"' EXIT

# Crash-tolerance drills: the drain/adopt handoff soak (64 streams
# stitched across a daemon restart, bit-identical to standalone scans)
# and the seeded wire-fault sweep (torn/truncated/garbage/delayed
# replies survived by the retrying client with exact accounting).
cargo test -q -p bitgen-serve --test drain_soak

# Cross-process drain→adopt drill: a daemon is drained mid-scan, its
# durable streams checkpointed into a manifest, and a fresh daemon on
# the same socket adopts them; the retrying client rides across the
# restart and its positions must still equal `bitgrep --positions`.
DRAINDIR="$(mktemp -d)"
trap 'rm -rf "$SWAPDIR" "$SERVEDIR" "$DRAINDIR"; rm -f "$CKPT"' EXIT
DSOCK="$DRAINDIR/drain.sock"
DMANIFEST="$DRAINDIR/drain.manifest"
printf 'cat dog aab cat xaby dooog aab xx %.0s' $(seq 1 4096) > "$DRAINDIR/input.bin"
target/release/bitgrep --serve "$DSOCK" --drain-manifest "$DMANIFEST" 2>/dev/null &
DRAIN_PID=$!
for _ in $(seq 1 100); do [ -S "$DSOCK" ] && break; sleep 0.05; done
[ -S "$DSOCK" ] || { echo "drain drill: daemon never bound $DSOCK" >&2; exit 1; }
target/release/bitgen-serve scan --socket "$DSOCK" --retry --tenant mover \
  --chunk 96 -e 'cat' -e 'do+g' "$DRAINDIR/input.bin" > "$DRAINDIR/got" 2>/dev/null &
SCAN_PID=$!
sleep 0.2
target/release/bitgen-serve drain --socket "$DSOCK" 2>/dev/null || true
wait "$DRAIN_PID" || { echo "drain drill: drained daemon exited nonzero" >&2; exit 1; }
# Restart on the same socket and manifest: durable streams are adopted
# and the in-flight client resumes from its last acked offset.
target/release/bitgrep --serve "$DSOCK" --drain-manifest "$DMANIFEST" 2>/dev/null &
DRAIN_PID=$!
trap 'kill "$DRAIN_PID" 2>/dev/null || true; rm -rf "$SWAPDIR" "$SERVEDIR" "$DRAINDIR"; rm -f "$CKPT"' EXIT
wait "$SCAN_PID" || { echo "drain drill: the retrying client failed" >&2; exit 1; }
target/release/bitgrep -e 'cat' -e 'do+g' --positions "$DRAINDIR/input.bin" > "$DRAINDIR/want"
if ! cmp -s "$DRAINDIR/got" "$DRAINDIR/want"; then
  echo "drain drill: positions drifted across the restart" >&2
  exit 1
fi
target/release/bitgen-serve shutdown --socket "$DSOCK" 2>/dev/null
wait "$DRAIN_PID" || { echo "drain drill: successor daemon exited nonzero" >&2; exit 1; }
trap 'rm -rf "$SWAPDIR" "$SERVEDIR" "$DRAINDIR"; rm -f "$CKPT"' EXIT

# Host benchmark self-test: every workload (bitgrep file scan, scan_many
# batch find, the serve daemon) at tiny scale, each run checked against
# its reference answers, the modelled GPU seconds repeating bit for bit
# across traced runs, and a corrupted reference caught as a failure.
python3 hostbench/selftest.py

# Compile-pipeline bench smoke: one abbreviated run so a pathological
# compile-time regression fails CI instead of only slowing nightly
# benches. (The bench binary itself keeps sample counts low.)
cargo bench -q -p bitgen-bench --bench compile_pipeline

# Streaming bench smoke: chunked-vs-batch and the O(chunk) push-cost
# sweep (the bench binary keeps sample counts low).
cargo bench -q -p bitgen-bench --bench stream_scan

# Trajectory barometer: run the smoke matrix (modelled engines only —
# deterministic cost-model seconds, so the gate is noise-free) and
# compare against the checked-in baseline. Fails on any modelled
# regression beyond the threshold or any match-count drift. After an
# intentional perf change, regenerate the baseline with:
#   cargo run --release -p bitgen-bench --bin bitgen-bench -- \
#     run --smoke --modelled-only --out results/BENCH_smoke.json
SMOKE="$(mktemp -t bench_smoke.XXXXXX.json)"
trap 'rm -rf "$SWAPDIR" "$SERVEDIR"; rm -f "$CKPT" "$SMOKE"' EXIT
cargo run -q --release -p bitgen-bench --bin bitgen-bench -- \
  run --smoke --modelled-only --out "$SMOKE" > /dev/null
cargo run -q --release -p bitgen-bench --bin bitgen-bench -- \
  compare results/BENCH_smoke.json "$SMOKE" --modelled-only

# The same smoke matrix pinned to scalar lanes, compared against the
# default-width baseline: `compare` fails on any match-count drift, so
# this gates the wide-word kernels producing different matches than the
# scalar path at the bench level too.
SMOKE_X1="$(mktemp -t bench_smoke_x1.XXXXXX.json)"
trap 'rm -rf "$SWAPDIR" "$SERVEDIR"; rm -f "$CKPT" "$SMOKE" "$SMOKE_X1"' EXIT
BITGEN_LANES=1 cargo run -q --release -p bitgen-bench --bin bitgen-bench -- \
  run --smoke --modelled-only --out "$SMOKE_X1" > /dev/null
cargo run -q --release -p bitgen-bench --bin bitgen-bench -- \
  compare results/BENCH_smoke.json "$SMOKE_X1" --modelled-only

cargo clippy --workspace -- -D warnings

# Panic-hygiene pass over the library crates: unwrap/expect are flagged
# (warnings only — documented invariants remain, but new ones get seen).
cargo clippy -q -p bitgen-ir -p bitgen-exec -p bitgen-gpu -p bitgen-baselines -p bitgen \
  -p bitgen-serve -- \
  -W clippy::unwrap_used -W clippy::expect_used
