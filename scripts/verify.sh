#!/bin/sh
# Tier-1 gate: offline build, every test target once (debug profile,
# workspace-wide), the ladder's own tests, the lintkit invariant checker
# (`repro lint`) on the real tree, then per subsystem the `--release`
# agreement suites and the CLI smokes and `cmp` gates.
set -eu

cd "$(dirname "$0")/.."

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test -q --offline =="
cargo test -q --offline
# The bench ladder is a workspace of its own; its 1 s smoke per workload
# is the only thing that compiles it against the crates, so an API
# deletion that breaks it fails here instead of at the next bench run.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== lint (token-aware invariant checker) =="
# One invocation replaces the old awk/grep deny-lists: dependency
# denylist, parse-path unwrap/expect, hot-path to_vec/clone, the
# Instant::now clock seam, the socket fence, the PcapReader ingestion
# seam, the stream batch-fallback scan — plus the rules the shell could
# never express (map iteration, SAFETY comments, stdout discipline,
# wall-clock seams, and this script's own scan hygiene). Exit code 1 on
# any violation keeps the old contract.
lint_json=$(mktemp /tmp/verify_lint.XXXXXX.json)
cargo run -q --release --offline -p bench --bin repro -- \
    lint --format json > "$lint_json"
# The JSON diagnostic document must parse back through xkit::obs::json
# and carry ok=true (crates/bench/tests/lint_cli.rs tests the schema in
# depth; this is the live gate on the real tree).
grep -q '"tool":"lintkit"' "$lint_json"
grep -q '"ok":true' "$lint_json"
rm -f "$lint_json"
echo "clean: repro lint exits clean on the workspace"

echo "== thread-invariance gate =="
# Every table and figure is byte-identical at any --threads: 60 houses
# span three simulator shards, so one thread and four run them apart.
all_t1=$(mktemp /tmp/verify_all_t1.XXXXXX.txt)
all_t4=$(mktemp /tmp/verify_all_t4.XXXXXX.txt)
cargo run -q --release --offline -p bench --bin repro -- \
    all --houses 60 --days 1 --threads 1 2>/dev/null > "$all_t1"
cargo run -q --release --offline -p bench --bin repro -- \
    all --houses 60 --days 1 --threads 4 2>/dev/null > "$all_t4"
if ! cmp -s "$all_t1" "$all_t4"; then
    echo "FAIL: repro all stdout differs between --threads 1 and --threads 4" >&2
    rm -f "$all_t1" "$all_t4"
    exit 1
fi
rm -f "$all_t1" "$all_t4"
echo "clean: repro all emits identical stdout at --threads 1 and 4"

echo "== fault suite =="
cargo run -q --release --offline -p bench --bin repro -- fuzz --seed 0

echo "== obs suite =="
# The obs experiment must emit a JSON snapshot we can parse back.
snapshot=$(mktemp /tmp/verify_obs.XXXXXX.json)
cargo run -q --release --offline -p bench --bin repro -- \
    obs --houses 30 --days 0.02 --scale 0.3 >"$snapshot"
cargo run -q --release --offline -p bench --bin repro -- obs-check "$snapshot"
rm -f "$snapshot"

echo "== stream suite =="
# Streamed output must be byte-identical to batch at every tested
# window/thread combination, with live state bounded for finite windows.
cargo test -q --release --offline -p dnsctx --test stream_agreement
cargo run -q --release --offline -p bench --bin repro -- \
    stream --houses 20 --days 0.1 --window-secs 60 >/dev/null
# Batch-fallback scanning now lives in `repro lint` (no-batch-in-stream).

echo "== ingest suite =="
# One RecordSource seam, two backends: the file and ring paths must be
# indistinguishable downstream, and the ring must conserve every record.
cargo test -q --release --offline -p dnsctx --test ingest_agreement
# The ring's threaded liveness cases again at release speed, where a lost
# wake-up between a parked peer and its waker is likeliest to show.
cargo test -q --release --offline -p pcapio --test ring_props
# The ring-fed CLI run must emit the exact stdout document of the
# file-fed run over the same workload (spans are excluded by design).
ing_file=$(mktemp /tmp/verify_ingest_file.XXXXXX.json)
ing_ring=$(mktemp /tmp/verify_ingest_ring.XXXXXX.json)
cargo run -q --release --offline -p bench --bin repro -- \
    ingest --houses 10 --days 0.05 --source file 2>/dev/null > "$ing_file"
cargo run -q --release --offline -p bench --bin repro -- \
    ingest --houses 10 --days 0.05 --source ring 2>/dev/null > "$ing_ring"
if ! cmp -s "$ing_file" "$ing_ring"; then
    echo "FAIL: ingest stdout differs between the file and ring backends" >&2
    rm -f "$ing_file" "$ing_ring"
    exit 1
fi
rm -f "$ing_file" "$ing_ring"
echo "clean: ingest file and ring backends emit identical documents"
# Ingestion-seam scanning now lives in `repro lint` (ingest-seam), as do
# the clock seam (clock-seam), parse-path panics (no-unwrap-parse), and
# hot-path copies (no-owned-copy-hotpath).

echo "== perf-hygiene suite =="
# The refactored hot path must be unobservable: bytes, logs, counts, and
# metrics identical across threads, windows, and the owned fallback.
cargo test -q --release --offline -p bench --test zero_copy_agreement
# The batch pairer and §6 at the speed the ladder measures: the paper
# oracle, the hostile run and the radix kernel's property tests.
cargo test -q --release --offline -p dns-context
# §8's batch replays on packed keys: the differential against the
# streaming replay over eight simulated days, and the allocation pin.
cargo test -q --release --offline -p cache-sim
cargo test -q --release --offline -p dnsctx --test cache_sim_alloc
# The streamed path allocates for the rows it emits: what closing an
# epoch costs whatever it moves or holds, and a whole run against its
# monitor alone. The monitor, the batch analysis and the simulator's
# packet sink hold their own pins, in the profile the ladder measures.
cargo test -q --release --offline -p dnsctx --test epoch_cost --test stream_alloc \
    --test monitor_alloc --test analysis_alloc --test sim_alloc

echo "== obs-serve suite =="
# Serve smoke on an ephemeral port: every endpoint must answer and
# self-validate while the run is live.
cargo run -q --release --offline -p bench --bin repro -- \
    stream --houses 10 --days 0.05 --window-secs 30 \
    --serve 127.0.0.1:0 --serve-check >/dev/null
# Serving must not perturb the ingest document: serve-on and serve-off
# runs emit byte-identical stdout.
srv_on=$(mktemp /tmp/verify_serve_on.XXXXXX.json)
srv_off=$(mktemp /tmp/verify_serve_off.XXXXXX.json)
cargo run -q --release --offline -p bench --bin repro -- \
    ingest --houses 10 --days 0.05 --source file 2>/dev/null > "$srv_off"
cargo run -q --release --offline -p bench --bin repro -- \
    ingest --houses 10 --days 0.05 --source file \
    --serve 127.0.0.1:0 --serve-check 2>/dev/null > "$srv_on"
if ! cmp -s "$srv_off" "$srv_on"; then
    echo "FAIL: --serve changed the ingest stdout document" >&2
    rm -f "$srv_on" "$srv_off"
    exit 1
fi
rm -f "$srv_on" "$srv_off"
echo "clean: --serve leaves the stdout document byte-identical"
# Socket-fence scanning now lives in `repro lint` (socket-fence).

echo "== serve-daemon suite =="
# The multi-tenant daemon (DESIGN.md §15): an ephemeral-port CLI smoke
# that self-validates the tenant routes before shutdown.
cargo run -q --release --offline -p bench --bin repro -- \
    serve --tenants 8 --houses 4 --days 0.05 \
    --serve 127.0.0.1:0 --serve-check >/dev/null
# Thread-spawn scanning lives in `repro lint` (thread-spawn-fence).

echo "== verify OK =="
