#!/usr/bin/env bash
# The full local gate: formatting, lints, release build, tests, and xk-lint
# over every checked-in spec. Run from the repo root; exits non-zero on the
# first failure.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --all-features -- -D warnings

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

echo "==> chaos soak (fixed seed set x all stacks)"
# Already compiled by the workspace test run above; named separately so the
# invariant suite visibly gates every PR even if the test layout changes.
cargo test -p chaos -q

echo "==> vproc-gate: no OS threads in the per-process engine"
# The vproc engine runs every shepherd process as an explicit continuation
# (stackful coroutine or stackless machine) on the scheduler's own thread.
# A thread::spawn creeping back into the engine would silently reintroduce
# OS-scheduler nondeterminism, so its absence is a named gate.
for f in crates/xkernel/src/sim.rs crates/xkernel/src/vproc.rs; do
    if grep -q 'thread::spawn' "$f"; then
        echo "ci: $f spawns an OS thread — the vproc engine must not" >&2
        exit 1
    fi
done

echo "==> single-thread-gate: no locks in the single-threaded engine"
# A simulation is built and run on one thread, so the engine and the
# protocols keep their state in RefCell/Cell and share it with Rc. A lock
# creeping back in would put an atomic on every layer crossing. Allowlisted:
# par.rs, the thread pool that fans out whole simulations, and process-global
# statics.
if [ -e shims/parking_lot ] ||
    grep -rlq --include='*.rs' --include='*.toml' parking_lot \
        Cargo.toml crates src tests examples shims ||
    grep -q parking_lot Cargo.lock; then
    echo "ci: parking_lot is back in the workspace" >&2
    exit 1
fi
LOCKS=$(grep -rnE 'Mutex<|RwLock<' \
    crates/{xkernel,core,inet,simnet,sunrpc,psync,xload,chaos,xcheck}/src |
    grep -v '^crates/xkernel/src/par\.rs:' |
    grep -vE '^[^:]+:[0-9]+:[[:space:]]*(pub(\([a-z]+\))? )?static ' || true)
if [ -n "$LOCKS" ]; then
    echo "ci: locks in the single-threaded engine or protocols:" >&2
    echo "$LOCKS" >&2
    exit 1
fi

echo "==> map-gate: one map type in the engine and protocols"
# Every table in the engine and the protocols is an xkernel::map::{Map, Set}
# over the in-tree multiply-rotate hasher. A std HashMap or HashSet creeping
# back in would put SipHash back on every demux lookup. Any mention counts,
# so a multi-line `use std::collections::{...}` cannot slip through.
# Allowlisted: map.rs, which defines the aliases over std's tables.
MAPS=$(grep -rnE '\bHash(Map|Set)\b' \
    crates/{xkernel,core,inet,simnet,sunrpc,psync,xload,chaos,xcheck}/src |
    grep -v '^crates/xkernel/src/map\.rs:' || true)
if [ -n "$MAPS" ]; then
    echo "ci: std HashMap/HashSet in the engine or protocols (use xkernel::map):" >&2
    echo "$MAPS" >&2
    exit 1
fi

echo "==> vproc-smoke: 100k-client closed loop on stackless machines"
# One persistent machine per client plus a transient coroutine per
# in-flight call. The binary asserts every call completes, nothing is left
# blocked, and peak_live >= clients (the engine's own proof the whole
# population was concurrently resident); the grep re-checks required
# fields from the outside. The full million-client run is the checked-in
# BENCH_mclient.json.
MCLIENT_SMOKE=$(mktemp /tmp/BENCH_mclient.XXXXXX.json)
cargo run --release -q -p xbench --bin mclient -- --quick --out "$MCLIENT_SMOKE"
for field in schema clients calls_per_client attempted completed failed \
             peak_live events fuel_used wall_secs events_per_sec latency_ns; do
    if ! grep -q "\"$field\"" "$MCLIENT_SMOKE"; then
        echo "ci: BENCH_mclient.json missing field \"$field\"" >&2
        exit 1
    fi
done
grep -q '"failed": 0' "$MCLIENT_SMOKE" || {
    echo "ci: mclient smoke had failed calls" >&2
    exit 1
}
rm -f "$MCLIENT_SMOKE"

echo "==> load-smoke: xbench xload --quick"
# Rate sweep over all six stacks (open loop), a closed-loop point, and the
# routed topology. The binary asserts goodput is monotone-then-saturating
# per stack and that the parallel fan-out reproduces the sequential reports
# bit for bit, then self-validates the JSON; the grep re-checks from the
# outside.
LOAD_SMOKE=$(mktemp /tmp/BENCH_xload.XXXXXX.json)
cargo run --release -q -p xbench --bin xload -- --quick --out "$LOAD_SMOKE"
for field in schema sweep stack points offered_cps goodput_cps p50_ns \
             p99_ns p999_ns dropped rejected monotone closed routed \
             reports_bit_identical; do
    if ! grep -q "\"$field\"" "$LOAD_SMOKE"; then
        echo "ci: BENCH_xload.json missing field \"$field\"" >&2
        exit 1
    fi
done
grep -q '"reports_bit_identical": true' "$LOAD_SMOKE" || {
    echo "ci: parallel load reports not bit-identical" >&2
    exit 1
}
if grep -q '"monotone": false' "$LOAD_SMOKE"; then
    echo "ci: a stack's goodput curve is not monotone-then-saturating" >&2
    exit 1
fi
rm -f "$LOAD_SMOKE"

echo "==> profile-smoke: xbench xprof --quick"
# Traced rerun of the Table I/II latency experiment. The binary asserts the
# ledger's conservation invariant (client buckets sum to the window to the
# nanosecond) and that tracing leaves the measured latency bit-identical,
# then self-validates the JSON. The checks below re-verify the artifacts
# from the outside: required JSON fields, the conserved flags, and the
# folded-stack grammar ("frame;frame;... <ns>" on every line).
XPROF_DIR=$(mktemp -d /tmp/xprof.XXXXXX)
cargo run --release -q -p xbench --bin xprof -- --quick --out-dir "$XPROF_DIR"
for field in schema quick iters stacks latency_ns window_ns client_sum_ns \
             conserved layers; do
    if ! grep -q "\"$field\"" "$XPROF_DIR/BENCH_xprof.json"; then
        echo "ci: BENCH_xprof.json missing field \"$field\"" >&2
        exit 1
    fi
done
if grep -q '"conserved": false' "$XPROF_DIR/BENCH_xprof.json"; then
    echo "ci: xprof ledger leaked (conserved: false)" >&2
    exit 1
fi
[ "$(grep -c '"conserved": true' "$XPROF_DIR/BENCH_xprof.json")" -eq 5 ] || {
    echo "ci: expected 5 conserved stacks in BENCH_xprof.json" >&2
    exit 1
}
[ -s "$XPROF_DIR/XPROF.folded" ] || {
    echo "ci: XPROF.folded is empty" >&2
    exit 1
}
if grep -qvE '^[^ ;][^ ]*(;[^ ]+)+ [0-9]+$' "$XPROF_DIR/XPROF.folded"; then
    echo "ci: XPROF.folded has malformed lines" >&2
    exit 1
fi
grep -q '^## ' "$XPROF_DIR/XPROF.md" || {
    echo "ci: XPROF.md has no per-stack sections" >&2
    exit 1
}
rm -rf "$XPROF_DIR"

echo "==> trace-overhead smoke: disabled tracing allocates nothing"
cargo test -q -p xkernel --test trace_overhead

echo "==> check-overhead smoke: disabled checking allocates nothing"
cargo test -q -p xkernel --test check_overhead

echo "==> snapshot-smoke: mid-soak save/restore bit-identity + journal replay"
# Saves a warmed chaos scenario at quiescence mid-soak, restores, and
# re-runs the tail: the ChaosReport (including sched_hash) must be
# Eq-equal to the uninterrupted run; a journaled run must replay to the
# identical report after a wire-encoding round trip. The exhaustive
# matrix runs in the chaos suite above; this is the fast named cut.
cargo test -q -p xbench --test snapshot_smoke

echo "==> bisect-smoke: minimize a seeded multi-fault failure to one culprit"
# Records the Blackout profile's injected-fault timeline (the one profile
# guaranteed to defeat the retry budget; deliberately not in the soak
# matrix) and binary-searches the suppression cutoff down to the single
# fault event whose removal makes the invariants pass, with a replayable
# repro; also re-verifies both cutoffs named in the repro string.
cargo test -q -p chaos --test snapshot_replay bisect

echo "==> xcheck-smoke: exhaustive toy exploration"
# Enumerates every interleaving of the concurrency toys under the dynamic
# checker. The handshake must cover its full schedule space cleanly; the
# deadlock toy must produce a DeadlockCycle with a repro on every schedule;
# each summary line is schema-validated by the binary itself, and the greps
# re-check the verdicts from the outside.
XCHECK_OUT=$(mktemp /tmp/xcheck_smoke.XXXXXX)
cargo run --release -q --bin xcheck > "$XCHECK_OUT"
grep -q '"scenario":"handshake","mode":"exhaustive","schedules":6,"complete":true,"distinct_hashes":6,"violations":0' "$XCHECK_OUT" || {
    echo "ci: handshake exploration did not cover all 6 schedules cleanly" >&2
    exit 1
}
grep -q 'DeadlockCycle' "$XCHECK_OUT" || {
    echo "ci: deadlock toy produced no DeadlockCycle" >&2
    exit 1
}
grep -q 'repro: xcheck://seed=' "$XCHECK_OUT" || {
    echo "ci: violations reported without repro strings" >&2
    exit 1
}
[ "$(grep -c '"complete":true' "$XCHECK_OUT")" -eq 3 ] || {
    echo "ci: expected all 3 toy explorations to complete" >&2
    exit 1
}
rm -f "$XCHECK_OUT"

echo "==> xk-lint --xcheck: concurrency rules on the deadlock toy"
cargo build --release -q --bin xk-lint
if target/release/xk-lint --xcheck --quiet specs/bad/deadlock-toy.xk; then
    echo "ci: deadlock-toy.xk unexpectedly passes the concurrency rules" >&2
    exit 1
fi

echo "==> xk-lint: built-in paper stacks"
XK_LINT=target/release/xk-lint
"$XK_LINT" --builtin --warn-as-error

echo "==> xk-lint: specs/good must pass"
"$XK_LINT" --warn-as-error specs/good/*.xk

echo "==> xk-lint: specs/bad must fail"
for spec in specs/bad/*.xk; do
    if "$XK_LINT" --quiet "$spec"; then
        echo "ci: $spec unexpectedly lints clean" >&2
        exit 1
    fi
done

echo "ci: all green"
