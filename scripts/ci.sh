#!/usr/bin/env bash
# Repo CI gate: formatting, lints, build, tests.
#
# `--scale` additionally runs the zone-scale smoke: the event-queue
# scheduler microbenchmark gated against the committed baseline
# (BENCH_EVENT_QUEUE.json), the profiler benches against theirs
# (BENCH_PROFILE.json), the per-layer microbenches against
# BENCH_LAYERS.json, the campaign rows against BENCH_CAMPAIGN.json, and
# a 100k-domain streamed sweep that must stay inside its
# resident-record-byte budget.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE=0
if [ "${1:-}" = "--scale" ]; then
  SCALE=1
fi

cargo fmt --all --check
cargo clippy --workspace --all-targets -- -D warnings
# Docs build with warnings as errors, so an intra-doc link left stale by
# a rename or deletion fails here instead of rendering as plain text.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
cargo build --release
cargo test -q --workspace
# The benchmark is a package of its own, outside the workspace: test it
# here so a signature change to a function its replay calls cannot
# break `bash spinbench/run.sh` unseen.
cargo test -q --manifest-path spinbench/Cargo.toml

# The two observer examples run, not just compile: spin_observatory
# folds each vantage × loss cell through the observer document, and
# network_tomography reads its counts from the capture-fed observer.
cargo run --release --example spin_observatory -- 200
cargo run --release --example network_tomography
# quickstart and passive_observer build the lab and transport configs
# and read the lab outcome; each runs one lab, so they run here too.
cargo run --release --example quickstart
cargo run --release --example passive_observer
# flight_recorder streams a flight-recorded sweep and writes its
# artifacts into target/flight-example; spinctl must read them back.
cargo run --release --example flight_recorder
cargo run --release -p quicspin-spinctl --bin spinctl -- summary --dir target/flight-example
cargo run --release -p quicspin-spinctl --bin spinctl -- \
  anomalies --dir target/flight-example --limit 5

# Bench smoke doubles as the BENCH_JSON report path check: one smoke
# iteration per benchmark, report written, then diffed against itself
# (which must always be regression-free).
SPINCTL_DIR="$(mktemp -d)"
trap 'rm -rf "$SPINCTL_DIR"' EXIT
BENCH_JSON="$SPINCTL_DIR/bench.json" \
  cargo bench -p quicspin-bench --bench campaign_throughput -- --test
test -s "$SPINCTL_DIR/bench.json"
cargo run --release -p quicspin-spinctl --bin spinctl -- \
  compare --bench "$SPINCTL_DIR/bench.json" "$SPINCTL_DIR/bench.json"

# spinctl smoke: tiny flight-recorded campaign (tap on by default), then
# read every artifact back through the CLI (summary, anomaly listing,
# one rendered trace, the observer's per-flow RTT view).
cargo run --release -p quicspin-spinctl --bin spinctl -- \
  run --dir "$SPINCTL_DIR/a" --domains 220 --seed 7 --sample-every 16
cargo run --release -p quicspin-spinctl --bin spinctl -- summary --dir "$SPINCTL_DIR/a"
cargo run --release -p quicspin-spinctl --bin spinctl -- anomalies --dir "$SPINCTL_DIR/a" --limit 5
cargo run --release -p quicspin-spinctl --bin spinctl -- trace --first --dir "$SPINCTL_DIR/a"
test -s "$SPINCTL_DIR/a/observer.json"
cargo run --release -p quicspin-spinctl --bin spinctl -- observe --dir "$SPINCTL_DIR/a" --limit 10
# A missing observer document must fail with a one-line diagnostic.
if cargo run --release -p quicspin-spinctl --bin spinctl -- \
  observe --dir "$SPINCTL_DIR/does-not-exist" 2>/dev/null; then
  echo "ERROR: observe did not fail on a missing campaign directory" >&2
  exit 1
fi

# Regression gate smoke: an identical-seed rerun compares clean (exit 0);
# a rerun under 30% loss must trip the gate (exit 2).
cargo run --release -p quicspin-spinctl --bin spinctl -- \
  run --dir "$SPINCTL_DIR/b" --domains 220 --seed 7 --sample-every 16
cargo run --release -p quicspin-spinctl --bin spinctl -- \
  compare "$SPINCTL_DIR/a" "$SPINCTL_DIR/b"
cargo run --release -p quicspin-spinctl --bin spinctl -- \
  run --dir "$SPINCTL_DIR/c" --domains 220 --seed 7 --sample-every 16 --loss 0.30
if cargo run --release -p quicspin-spinctl --bin spinctl -- \
  compare "$SPINCTL_DIR/a" "$SPINCTL_DIR/c"; then
  echo "ERROR: compare did not flag the lossy run" >&2
  exit 1
fi
cargo run --release -p quicspin-spinctl --bin spinctl -- \
  trend "$SPINCTL_DIR/a" "$SPINCTL_DIR/b" "$SPINCTL_DIR/c"

# Profiler smoke: a profiled run writes profile.json + profile.folded,
# `spinctl profile` parses and renders the scope tree, and a self-diff
# is always clean.
cargo run --release -p quicspin-spinctl --bin spinctl -- \
  run --dir "$SPINCTL_DIR/p" --domains 220 --seed 7 --sample-every 16 --profile
test -s "$SPINCTL_DIR/p/profile.json"
test -s "$SPINCTL_DIR/p/profile.folded"
cargo run --release -p quicspin-spinctl --bin spinctl -- \
  profile "$SPINCTL_DIR/p" --top 8
cargo run --release -p quicspin-spinctl --bin spinctl -- \
  profile --diff "$SPINCTL_DIR/p" "$SPINCTL_DIR/p"

# Thread-count contract of `spinctl run`: the same profiled sweep at
# --threads 1 and --threads 4 must write byte-identical deterministic
# artifacts. The 4 KiB record budget is smaller than one batch, so the
# threaded workers block on the budget gate and that path runs too.
for t in 1 4; do
  cargo run --release -p quicspin-spinctl --bin spinctl -- \
    run --dir "$SPINCTL_DIR/t$t" --domains 220 --seed 7 --sample-every 16 \
    --profile --record-budget 4096 --threads "$t"
done
for f in observer.json anomalies.json trace.json timeseries.json profile.json traces.bin; do
  cmp "$SPINCTL_DIR/t1/$f" "$SPINCTL_DIR/t4/$f"
done

# Matrix smoke: the committed loss×vantage scenario (a 2×2 grid) runs
# twice, at --threads 1 and --threads 4; report.md, report.json and every
# deterministic artifact of each cell must come out byte-identical.
# A malformed scenario must fail the exit-code contract (exit 1 with a
# one-line `scenario error:` diagnostic).
cargo run --release -p quicspin-spinctl --bin spinctl -- \
  matrix examples/scenarios/loss_vantage.toml --out "$SPINCTL_DIR/mx1" --threads 1
cargo run --release -p quicspin-spinctl --bin spinctl -- \
  matrix examples/scenarios/loss_vantage.toml --out "$SPINCTL_DIR/mx4" --threads 4
cmp "$SPINCTL_DIR/mx1/report.md" "$SPINCTL_DIR/mx4/report.md"
cmp "$SPINCTL_DIR/mx1/report.json" "$SPINCTL_DIR/mx4/report.json"
# Every cell's deterministic artifacts must match too: the lossy cells
# are where the observer's reorder rejections fire, which the report
# digests alone would not show, and cells are written on a second
# thread while the next cell runs. An empty cells/ fails the cmp.
for cell in "$SPINCTL_DIR"/mx1/cells/*; do
  for f in observer.json anomalies.json traces.bin trace.json timeseries.json profile.json; do
    cmp "$cell/$f" "$SPINCTL_DIR/mx4/cells/$(basename "$cell")/$f"
  done
done
# `matrix` folds the report from the runs in hand; `report --dir` must
# re-derive the same bytes from the cells' artifacts on disk.
cp "$SPINCTL_DIR/mx1/report.md" "$SPINCTL_DIR/mx1-folded.md"
cp "$SPINCTL_DIR/mx1/report.json" "$SPINCTL_DIR/mx1-folded.json"
cargo run --release -p quicspin-spinctl --bin spinctl -- \
  report --dir "$SPINCTL_DIR/mx1"
cmp "$SPINCTL_DIR/mx1/report.md" "$SPINCTL_DIR/mx1-folded.md"
cmp "$SPINCTL_DIR/mx1/report.json" "$SPINCTL_DIR/mx1-folded.json"
cmp "$SPINCTL_DIR/mx1/report.md" "$SPINCTL_DIR/mx4/report.md"
# A reused out-dir keeps no optional artifact of an earlier run: the
# scenario runs profiled, then unprofiled into the same out-dir. No cell
# may keep profile.json or profile.folded, and `report --dir` must
# re-derive the second run's report bytes from what is on disk.
sed 's/^profile = true/profile = false/' examples/scenarios/loss_vantage.toml \
  > "$SPINCTL_DIR/unprofiled.toml"
grep -q '^profile = false' "$SPINCTL_DIR/unprofiled.toml"
cargo run --release -p quicspin-spinctl --bin spinctl -- \
  matrix examples/scenarios/loss_vantage.toml --out "$SPINCTL_DIR/mxr"
cargo run --release -p quicspin-spinctl --bin spinctl -- \
  matrix "$SPINCTL_DIR/unprofiled.toml" --out "$SPINCTL_DIR/mxr"
test "$(ls "$SPINCTL_DIR/mxr/cells" | wc -l)" -eq 4
for cell in "$SPINCTL_DIR"/mxr/cells/*; do
  for f in profile.json profile.folded; do
    if [ -e "$cell/$f" ]; then
      echo "ERROR: $cell/$f survived an unprofiled rerun" >&2
      exit 1
    fi
  done
done
cp "$SPINCTL_DIR/mxr/report.md" "$SPINCTL_DIR/mxr-folded.md"
cp "$SPINCTL_DIR/mxr/report.json" "$SPINCTL_DIR/mxr-folded.json"
cargo run --release -p quicspin-spinctl --bin spinctl -- \
  report --dir "$SPINCTL_DIR/mxr"
cmp "$SPINCTL_DIR/mxr/report.md" "$SPINCTL_DIR/mxr-folded.md"
cmp "$SPINCTL_DIR/mxr/report.json" "$SPINCTL_DIR/mxr-folded.json"
printf '[scenario]\nname = "broken"\n[sweep]\n' > "$SPINCTL_DIR/broken.toml"
if cargo run --release -p quicspin-spinctl --bin spinctl -- \
  matrix "$SPINCTL_DIR/broken.toml" --out "$SPINCTL_DIR/broken" 2>/dev/null; then
  echo "ERROR: matrix did not fail on a malformed scenario" >&2
  exit 1
fi
# A grid too large to expand (six axes of 300 values) must also exit 1
# with a one-line diagnostic, not abort on the cell allocation.
{
  printf '[scenario]\nname = "oversized"\n[sweep]\n'
  for axis in loss reorder jitter_frac vantage; do
    printf '%s = [%s]\n' "$axis" "$(seq -s ', ' 0.001 0.001 0.3)"
  done
  for axis in seed week; do
    printf '%s = [%s]\n' "$axis" "$(seq -s ', ' 1 300)"
  done
} > "$SPINCTL_DIR/oversized.toml"
status=0
cargo run -q --release -p quicspin-spinctl --bin spinctl -- \
  matrix "$SPINCTL_DIR/oversized.toml" --out "$SPINCTL_DIR/oversized" \
  2> "$SPINCTL_DIR/oversized.err" || status=$?
if [ "$status" -ne 1 ] || [ "$(wc -l < "$SPINCTL_DIR/oversized.err")" -ne 1 ] ||
  ! grep -q '^scenario error: ' "$SPINCTL_DIR/oversized.err"; then
  echo "ERROR: oversized matrix exited $status, not 1 with one scenario error line:" >&2
  cat "$SPINCTL_DIR/oversized.err" >&2
  exit 1
fi

# Overhead gate: the profiler must stay inside its 3% per-probe budget.
# The probe_profiled bench interleaves the profiled and unprofiled case
# in one process and its min_ns is each case's noise floor. Timing
# noise on a shared container only ever *adds* time (heavy positive
# tails; sweep wall clocks vary ±20% run to run), so the best ratio
# across attempts is the honest overhead estimate: a real regression —
# e.g. a clock read added to a per-packet scope — shifts every attempt
# past the band, a scheduler fluke only some. Pass on the first attempt
# within the band, fail only if all five exceed it.
probe_overhead_ok() {
  BENCH_JSON="$SPINCTL_DIR/probe.json" \
    cargo bench -q -p quicspin-bench --bench profiler -- probe_profiled
  OFF=$(sed -n 's/.*"probe_profiled\/off".*"min_ns": \([0-9]*\).*/\1/p' \
    "$SPINCTL_DIR/probe.json")
  ON=$(sed -n 's/.*"probe_profiled\/on".*"min_ns": \([0-9]*\).*/\1/p' \
    "$SPINCTL_DIR/probe.json")
  echo "profiler overhead: probe unprofiled=${OFF}ns profiled=${ON}ns"
  [ -n "$OFF" ] && [ -n "$ON" ] \
    && awk -v off="$OFF" -v on="$ON" 'BEGIN { exit !(on <= off * 1.03) }'
}
OVERHEAD_OK=0
for attempt in 1 2 3 4 5; do
  if probe_overhead_ok; then
    OVERHEAD_OK=1
    break
  fi
  echo "profiler overhead gate attempt $attempt outside the band; retrying"
done
if [ "$OVERHEAD_OK" != 1 ]; then
  echo "ERROR: profiled probe exceeds the 3% overhead budget" >&2
  exit 1
fi

if [ "$SCALE" = 1 ]; then
  # Scheduler gate: re-time the event-queue microbench — the replayed
  # lossy-lab trace and the 10^3–10^6 churn — and compare means against
  # the baseline. The band is wide to absorb machine-to-machine
  # variance — it exists to catch the heap losing its O(log n) scaling
  # or a probe-sized trace getting slower, not single-digit drift.
  EVENT_QUEUE_MAX_N=1000000 BENCH_JSON="$SPINCTL_DIR/event_queue.json" \
    cargo bench -p quicspin-bench --bench event_queue
  cargo run --release -p quicspin-spinctl --bin spinctl -- \
    compare --bench BENCH_EVENT_QUEUE.json "$SPINCTL_DIR/event_queue.json" \
    --bench-band 3.0

  # Profiler bench gate: re-time the scope-boundary benches and compare
  # against the committed baseline. The wide band absorbs machine
  # variance; it exists to catch the profiler growing real per-probe
  # cost, not single-digit drift.
  BENCH_JSON="$SPINCTL_DIR/profiler.json" \
    cargo bench -p quicspin-bench --bench profiler
  cargo run --release -p quicspin-spinctl --bin spinctl -- \
    compare --bench BENCH_PROFILE.json "$SPINCTL_DIR/profiler.json" \
    --bench-band 3.0

  # Layer ledger gate: re-time the per-layer microbenches (wire codec,
  # the padded client Initial, peek_observable, the full lab exchange,
  # the netsim event rate, the observer fold, population generation) and
  # compare against the committed baseline, with the same wide band as
  # the two ledgers above.
  BENCH_JSON="$SPINCTL_DIR/layers.json" \
    cargo bench -p quicspin-bench --bench micro
  cargo run --release -p quicspin-spinctl --bin spinctl -- \
    compare --bench BENCH_LAYERS.json "$SPINCTL_DIR/layers.json" \
    --bench-band 3.0

  # Campaign ledger gate: re-time the probe loop, the 10k-domain sweep
  # at 1 and 4 threads, the 32-cell `spinctl matrix` grid and the 100k
  # streamed `spinctl run`, and compare against the committed baseline
  # with the same wide band.
  BENCH_JSON="$SPINCTL_DIR/campaign.json" \
    cargo bench -p quicspin-bench --bench campaign_throughput -- \
    probe_loop sweep_10k_domains/1_threads sweep_10k_domains/4_threads matrix/ \
    streamed_sweep_100k_domains/
  cargo run --release -p quicspin-spinctl --bin spinctl -- \
    compare --bench BENCH_CAMPAIGN.json "$SPINCTL_DIR/campaign.json" \
    --bench-band 3.0

  # Zone-scale streamed sweep: 100k domains under a 32 MiB resident
  # record budget. The peak gauge must be nonzero (streamed path
  # actually ran) and within budget.
  BUDGET=$((32 * 1024 * 1024))
  cargo run --release -p quicspin-spinctl --bin spinctl -- \
    run --dir "$SPINCTL_DIR/scale" --domains 100000 --seed 11 \
    --sample-every 64 --record-budget "$BUDGET"
  PEAK=$(cargo run --release -q -p quicspin-spinctl --bin spinctl -- \
    summary --dir "$SPINCTL_DIR/scale" \
    | awk '$1 == "peak_record_bytes" { print $2; exit }')
  echo "scale sweep: peak_record_bytes=$PEAK budget=$BUDGET"
  if [ -z "$PEAK" ] || [ "$PEAK" -le 0 ] || [ "$PEAK" -gt "$BUDGET" ]; then
    echo "ERROR: streamed sweep peak_record_bytes=${PEAK:-unset} outside (0, $BUDGET]" >&2
    exit 1
  fi
fi
