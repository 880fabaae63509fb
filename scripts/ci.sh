#!/usr/bin/env bash
# Repository gate: formatting, lints, build, tests. Run from anywhere;
# fails fast on the first broken step. This is the command CI runs and
# the one to run locally before pushing.
set -euo pipefail
cd "$(dirname "$0")/.."

# Not --all: that would also reformat the vendored offline stub crates in
# vendor/, which are deliberately excluded from the workspace.
echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (deny warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
# Bound the randomized property suites (tests/explain_all.rs reads this
# itself — the vendored proptest has no env support): enough cases to
# catch regressions, few enough to keep the gate fast.
PROPTEST_CASES="${PROPTEST_CASES:-8}" cargo test -q

echo "==> observability smoke: explain --trace=json --metrics-out"
OBS_DIR="$(mktemp -d)"
trap 'rm -rf "$OBS_DIR"' EXIT
cat > "$OBS_DIR/spec.txt" <<'EOF'
// @originate P1 200.7.0.0/16
// @originate P2 201.0.0.0/16
// @originate Customer 123.0.1.0/20
dest D1 = 200.7.0.0/16
dest D2 = 201.0.0.0/16
Req1 {
  !(P1 -> ... -> P2)
  !(P2 -> ... -> P1)
}
Connectivity {
  Customer ~> D1
  Customer ~> D2
}
EOF
./target/release/netexpl explain --topology paper --spec "$OBS_DIR/spec.txt" \
    --router R1 --neighbor P1 --dir export \
    --trace=json --metrics-out "$OBS_DIR/metrics.json" --json \
    > "$OBS_DIR/report.json" 2> "$OBS_DIR/trace.jsonl"
# The emitted JSON-lines must parse and contain all four stage spans; the
# metrics file must be a well-formed registry dump.
./target/release/netexpl obs-check \
    --trace-file "$OBS_DIR/trace.jsonl" --metrics-file "$OBS_DIR/metrics.json"

echo "==> robustness smoke: tight budget degrades explain, fails synth with NX501"
# An already-expired deadline must degrade explain to a *partial* result
# (exit 0, verdicts + interrupts in the JSON) — not an error, not a hang.
./target/release/netexpl explain --topology paper --spec "$OBS_DIR/spec.txt" \
    --router R1 --neighbor P1 --dir export --timeout 0 --json \
    > "$OBS_DIR/partial.json" 2> "$OBS_DIR/partial.err"
grep -q '"partial": true' "$OBS_DIR/partial.json"
grep -q '"verdicts"' "$OBS_DIR/partial.json"
grep -q '"exhausted"' "$OBS_DIR/partial.json"
grep -q '"deadline"' "$OBS_DIR/partial.json"
# Synthesis cannot be partial: the same deadline fails it with the budget
# interrupt code and exit 1.
if ./target/release/netexpl synth --topology paper --spec "$OBS_DIR/spec.txt" \
    --timeout 0 > /dev/null 2> "$OBS_DIR/synth.err"; then
  echo "synth --timeout 0 unexpectedly succeeded"; exit 1
fi
grep -q 'error\[NX501\]' "$OBS_DIR/synth.err"

echo "==> fault-injection smoke: every armed site degrades, never panics"
# Unfaulted baseline: a site that is off this pipeline's path must
# reproduce it byte-for-byte.
./target/release/netexpl explain --topology paper --spec "$OBS_DIR/spec.txt" \
    --router R1 --neighbor P1 --dir export --json > "$OBS_DIR/baseline.json"
for site in smt.check sat.search dpll.search encode.paths seed.encode \
            simplify.pass lift.candidate session.query; do
  status=0
  NETEXPL_FAULT="$site" ./target/release/netexpl explain --topology paper \
      --spec "$OBS_DIR/spec.txt" --router R1 --neighbor P1 --dir export --json \
      > "$OBS_DIR/fault.json" 2> "$OBS_DIR/fault.err" || status=$?
  if grep -q 'panicked' "$OBS_DIR/fault.err"; then
    echo "site $site: panicked"; cat "$OBS_DIR/fault.err"; exit 1
  fi
  if [ "$status" -eq 0 ]; then
    # Success is only sound if flagged partial or untouched by the fault.
    grep -q '"partial": true' "$OBS_DIR/fault.json" \
      || cmp -s "$OBS_DIR/fault.json" "$OBS_DIR/baseline.json" \
      || { echo "site $site: exit 0, not partial, diverges from baseline"; exit 1; }
  elif [ "$status" -eq 1 ]; then
    # Classified failure: exactly one error[NXnnn] line, no backtrace.
    grep -q 'error\[NX[0-9]*\]' "$OBS_DIR/fault.err" \
      || { echo "site $site: exit 1 without a classified error"; cat "$OBS_DIR/fault.err"; exit 1; }
  else
    echo "site $site: unexpected exit status $status"; exit 1
  fi
done
# Typos in NETEXPL_FAULT must be rejected, not silently ignored.
status=0
NETEXPL_FAULT="no.such.site" ./target/release/netexpl synth --topology paper \
    --spec "$OBS_DIR/spec.txt" > /dev/null 2> "$OBS_DIR/fault.err" || status=$?
[ "$status" -eq 1 ] && grep -q 'error\[NX001\]' "$OBS_DIR/fault.err" \
  || { echo "unknown fault site was not rejected"; exit 1; }

echo "==> solver differential suite: session vs one-shot solver vs DPLL oracle"
# The incremental sessions must agree with the one-shot solvers and the
# DPLL oracle on randomized query streams.
PROPTEST_CASES="${PROPTEST_CASES:-8}" cargo test -q --test session_differential

echo "==> lift budget suite: conflict caps never flip a verdict"
PROPTEST_CASES="${PROPTEST_CASES:-8}" cargo test -q --test lift_budget

echo "==> delta differential suite: explain_delta vs from-scratch"
# Incremental re-explanation must agree with a from-scratch run on every
# semantic artifact under random edits.
PROPTEST_CASES="${PROPTEST_CASES:-8}" cargo test -q --test explain_delta

echo "==> benchmark suite: every workload's explanations match perfbench/expected.txt"
# The benchmark is a workspace of its own; its tests run the smoke pass of
# each workload with every output check on, and the work-counter
# determinism check. This step only reads perfbench/.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> diff smoke: one-clause cosmetic edit recomputes one router"
# Synthesize the paper configuration, renumber one route-map clause (a
# cosmetic edit dirtying exactly its owner), and check the delta run
# reuses the rest and beats the from-scratch wall.
./target/release/netexpl synth --topology paper --spec "$OBS_DIR/spec.txt" \
    | tail -n +3 > "$OBS_DIR/old.conf"
awk '!done && /^route-map / { sub(/[0-9]+$/, $NF + 1); done = 1 } { print }' \
    "$OBS_DIR/old.conf" > "$OBS_DIR/new.conf"
! cmp -s "$OBS_DIR/old.conf" "$OBS_DIR/new.conf" \
  || { echo "diff smoke: edit produced an identical config"; exit 1; }
./target/release/netexpl diff --topology paper --spec "$OBS_DIR/spec.txt" \
    "$OBS_DIR/old.conf" "$OBS_DIR/new.conf" --json > "$OBS_DIR/diff.json"
grep -q '"reason": "local edit"' "$OBS_DIR/diff.json"
awk '
  /"delta_ms":/    { v = $2; gsub(/[,"]/, "", v); delta = v + 0; seen++ }
  /"full_ms":/     { v = $2; gsub(/[,"]/, "", v); full = v + 0; seen++ }
  /"recomputed":/  { v = $2; gsub(/[,"]/, "", v); rec = v + 0; seen++ }
  /"reused":/      { v = $2; gsub(/[,"]/, "", v); reused = v + 0; seen++ }
  END {
    if (seen != 4) { print "diff --json missing delta/full/reused/recomputed"; exit 1 }
    if (rec != 1) { printf "cosmetic edit recomputed %d routers, want 1\n", rec; exit 1 }
    if (reused < 1) { print "cosmetic edit reused nothing"; exit 1 }
    if (delta >= full) { printf "delta (%.1fms) not faster than full (%.1fms)\n", delta, full; exit 1 }
  }
' "$OBS_DIR/diff.json"

echo "==> bench smoke: lift section present"
# The full report on stdout must carry the lift section's session timing.
./target/release/netexpl bench --json > "$OBS_DIR/bench.json"
grep -q '"incremental_ms"' "$OBS_DIR/bench.json"

echo "==> bench: incremental delta reuses clean routers, agrees, and wins"
# The report's own validation bit (`delta_agrees`) is the correctness
# gate; the dirty-set and wall-clock checks are the performance claim:
# a cosmetic one-clause edit must dirty fewer routers than the network
# holds and re-explain faster than the from-scratch run.
awk '
  /"explain_delta": \{/   { in_d = 1 }
  in_d && /"delta_agrees":/ { agrees = ($0 ~ /true/) }
  in_d && /"delta_faster":/ { faster = ($0 ~ /true/) }
  in_d && /"dirty_count":/  { v = $2; gsub(/[^0-9]/, "", v); dirty = v + 0 }
  in_d && /"routers":/      { v = $2; gsub(/[^0-9]/, "", v); routers = v + 0 }
  in_d && /"workers":/ {
    found = 1
    if (!agrees) { print "explain_delta: delta diverged from from-scratch"; exit 1 }
    if (dirty >= routers) { printf "explain_delta: dirty %d not < routers %d\n", dirty, routers; exit 1 }
    if (!faster) { print "explain_delta: delta not faster than full"; exit 1 }
    exit 0
  }
  END { if (!found) { print "no explain_delta section in bench --json"; exit 1 } }
' "$OBS_DIR/bench.json"

echo "==> network-lint smoke: dataflow pass clean on paper, exit codes honored"
# The paper scenario must come through the network pass with zero errors.
./target/release/netexpl lint --topology paper --spec "$OBS_DIR/spec.txt" \
    --network --json > "$OBS_DIR/netlint.json"
grep -q '"errors": 0' "$OBS_DIR/netlint.json"
# A generated multi-router topology must also lint cleanly end to end.
cat > "$OBS_DIR/ring.txt" <<'EOF'
// @originate Pa 200.7.0.0/16
// @originate Pb 201.0.0.0/16
dest D1 = 200.7.0.0/16
dest D2 = 201.0.0.0/16
Req1 { !(Pa -> ... -> Pb) }
EOF
./target/release/netexpl lint --topology ring:4 --spec "$OBS_DIR/ring.txt" \
    --network --json > "$OBS_DIR/netlint-ring.json"
grep -q '"errors": 0' "$OBS_DIR/netlint-ring.json"
# Exit-code contract: `!(P1 -> Customer)` is unrealizable (NE005, warning)
# — plain lint exits 0, --deny-warnings promotes it to a failure.
cat > "$OBS_DIR/warn.txt" <<'EOF'
// @originate P1 200.7.0.0/16
dest D1 = 200.7.0.0/16
Req1 { !(P1 -> Customer) }
EOF
./target/release/netexpl lint --topology paper --spec "$OBS_DIR/warn.txt" \
    > /dev/null
if ./target/release/netexpl lint --topology paper --spec "$OBS_DIR/warn.txt" \
    --deny-warnings > /dev/null 2>&1; then
  echo "lint --deny-warnings did not fail on a warning"; exit 1
fi

echo "==> bench: SAT pre-filter eliminates a majority of probes"
awk '
  /"lint_network": \{/ { in_nl = 1 }
  in_nl && /"filtered_majority":/ {
    found = 1
    if ($0 !~ /true/) { print "SAT pre-filter did not win a majority"; exit 1 }
    exit 0
  }
  END { if (!found) { print "no lint_network section in bench --json"; exit 1 } }
' "$OBS_DIR/bench.json"

echo "==> profile smoke: attribution report names a dominant router"
./target/release/netexpl profile --topology paper --spec "$OBS_DIR/spec.txt" \
    --all --trace-out "$OBS_DIR/profile_trace.json" > "$OBS_DIR/profile.txt"
grep -Eq 'dominant router: R[0-9]' "$OBS_DIR/profile.txt"
grep -q 'Amdahl:' "$OBS_DIR/profile.txt"
grep -q 'critical path:' "$OBS_DIR/profile.txt"
# The side-channel Chrome trace must be a parseable trace_event document.
grep -q '"traceEvents"' "$OBS_DIR/profile_trace.json"

echo "==> bench regression gate: fresh report vs committed baseline"
# The threshold is deliberately generous (10x): CI machines differ wildly
# from the one that recorded scripts/bench_baseline.json, so only
# order-of-magnitude blowups should gate.
./target/release/netexpl bench --compare scripts/bench_baseline.json \
    --in "$OBS_DIR/bench.json" --threshold 900
# The gate must actually fire: inflate one timing section ~100x and
# expect the NX701 exit.
sed 's/"sequential_ms": /"sequential_ms": 9/' "$OBS_DIR/bench.json" \
    > "$OBS_DIR/bench-regressed.json"
if ./target/release/netexpl bench --compare scripts/bench_baseline.json \
    --in "$OBS_DIR/bench-regressed.json" --threshold 900 \
    > "$OBS_DIR/compare-regressed.txt" 2>&1; then
  echo "bench --compare did not fail on an inflated report"; exit 1
fi
grep -q 'REGRESSED' "$OBS_DIR/compare-regressed.txt"

echo "==> explain-all smoke: every router reported, run bounded"
./target/release/netexpl explain --topology paper --spec "$OBS_DIR/spec.txt" \
    --all --workers 4 --timeout 10 --json > "$OBS_DIR/all.json"
for router in R1 R2 R3 Customer P1 P2; do
  grep -q "\"router\": \"$router\"" "$OBS_DIR/all.json" \
    || { echo "explain --all: $router missing from the aggregate"; exit 1; }
done
grep -q '"cancelled": false' "$OBS_DIR/all.json"

echo "==> serve smoke: warm reuse, fault isolation, clean drain"
./target/release/netexpl serve --workers 2 --queue 8 > "$OBS_DIR/serve.log" 2>&1 &
SERVE_PID=$!
# A crashed smoke step must not leak the background server.
trap 'kill "$SERVE_PID" 2> /dev/null || true; rm -rf "$OBS_DIR"' EXIT
for _ in $(seq 1 100); do
  grep -q 'listening on ' "$OBS_DIR/serve.log" && break
  sleep 0.1
done
ADDR="$(sed -n 's/^listening on //p' "$OBS_DIR/serve.log" | head -1)"
[ -n "$ADDR" ] || { echo "serve printed no listening line"; cat "$OBS_DIR/serve.log"; exit 1; }
# Cold request, then the identical one warm, with the pool hit visible in
# the server's own metrics. In a release build the warm path must also be
# the faster one (the timing half of the bench `serve` section).
./target/release/netexpl request --addr "$ADDR" --op explain --topology paper \
    --spec "$OBS_DIR/spec.txt" --skip-lift > "$OBS_DIR/serve-cold.json"
grep -q '"warm": false' "$OBS_DIR/serve-cold.json"
./target/release/netexpl request --addr "$ADDR" --op explain --topology paper \
    --spec "$OBS_DIR/spec.txt" --skip-lift > "$OBS_DIR/serve-warm.json"
grep -q '"warm": true' "$OBS_DIR/serve-warm.json"
./target/release/netexpl request --addr "$ADDR" --op stats > "$OBS_DIR/serve-stats.json"
grep -q '"serve.pool.hits": 1' "$OBS_DIR/serve-stats.json"
awk '
  /"duration_ms":/ { v = $2; gsub(/,/, "", v); ms[++n] = v + 0 }
  END {
    if (n != 2) { print "expected two serve timings, got " n; exit 1 }
    if (ms[2] >= ms[1]) { printf "warm (%sms) not faster than cold (%sms)\n", ms[2], ms[1]; exit 1 }
  }
' "$OBS_DIR/serve-cold.json" "$OBS_DIR/serve-warm.json"
# One armed worker crash: that request fails with the relayed NX804, the
# next one succeeds on a fresh session.
./target/release/netexpl request --addr "$ADDR" --op arm-fault \
    --site serve.worker --shots 1 > /dev/null
if ./target/release/netexpl request --addr "$ADDR" --op explain --topology paper \
    --spec "$OBS_DIR/spec.txt" --skip-lift > /dev/null 2> "$OBS_DIR/serve-fault.err"; then
  echo "armed serve.worker fault did not fail the request"; exit 1
fi
grep -q 'error\[NX804\]' "$OBS_DIR/serve-fault.err"
./target/release/netexpl request --addr "$ADDR" --op explain --topology paper \
    --spec "$OBS_DIR/spec.txt" --skip-lift > /dev/null
# Drain: the shutdown op is the only stop signal; the server must exit 0.
./target/release/netexpl request --addr "$ADDR" --op shutdown > /dev/null
wait "$SERVE_PID"
grep -q 'drained' "$OBS_DIR/serve.log"

echo "==> OK"
