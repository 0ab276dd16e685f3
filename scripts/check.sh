#!/usr/bin/env bash
# Tier-1 gate: plain build + full ctest (serial and TELEIOS_THREADS=8),
# then a sanitizer build (ASan + UBSan), a TSan build (with the runtime
# deadlock validator compiled in via TELEIOS_DEADLOCK_CHECK) over the
# same test suite, and a static-analysis pass (clang
# -Werror=thread-safety over the thread-safety annotations, the
# teleios_lint ctest target, and the teleios_analyze whole-tree
# lock-order + layering analysis). Run from the repo root.
#
#   scripts/check.sh            # all passes
#   scripts/check.sh --fast     # plain pass only
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="$(nproc 2>/dev/null || echo 4)"

run_pass() {
  local build_dir="$1"
  shift
  cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo "$@"
  cmake --build "${build_dir}" -j "${JOBS}"
  ctest --test-dir "${build_dir}" --output-on-failure -j "${JOBS}"
}

echo "== pass 1/5: plain build + ctest =="
run_pass build

echo "== pass 2/5: ctest again with TELEIOS_THREADS=8 =="
TELEIOS_THREADS=8 ctest --test-dir build --output-on-failure -j "${JOBS}"

if [[ "${1:-}" == "--fast" ]]; then
  echo "check.sh: fast mode, skipping sanitizer passes"
  exit 0
fi

echo "== pass 3/5: ASan + UBSan build + ctest =="
run_pass build-sanitize -DTELEIOS_SANITIZE=address,undefined

echo "== pass 4/5: TSan build + ctest (TELEIOS_THREADS=8, deadlock check on) =="
# TELEIOS_DEADLOCK_CHECK compiles the runtime lock-order validator into
# the Mutex wrappers: one green run proves every acquisition ORDER taken
# by the suite is acyclic (the graph accumulates over the process
# lifetime), not just that no interleaving happened to hang. Paired with
# TSan because both want the maximally-concurrent configuration.
# The suppressions file silences only the deliberate inversion in
# DeadlockGraphTest.RealMutexIntegration; every other TSan report fails.
export TSAN_OPTIONS="suppressions=$(pwd)/scripts/tsan.supp ${TSAN_OPTIONS:-}"
cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DTELEIOS_SANITIZE=thread -DTELEIOS_DEADLOCK_CHECK=ON
cmake --build build-tsan -j "${JOBS}"
TELEIOS_THREADS=8 ctest --test-dir build-tsan --output-on-failure -j "${JOBS}"

echo "== pass 4b/5: overload leg — governor tests under tight budgets =="
# The resource-governor suite again, now with an externally tightened
# process budget and a tiny admission pool, under both sanitizer builds:
# shed paths and refusal paths must stay clean under ASan/UBSan (no
# leak on any error path) and TSan (admission queue + breaker + budget
# locking). Facade-level tests install their own roomy budget via
# ScopedBudget, so a 64m process root only starves what means to be
# starved.
TELEIOS_MEMORY_BUDGET=64m TELEIOS_MAX_CONCURRENT_QUERIES=2 \
  ctest --test-dir build-sanitize --output-on-failure -R "governor_test|GovernedObservatoryTest|MemoryBudgetTest|AdmissionTest|BreakerTest"
TELEIOS_MEMORY_BUDGET=64m TELEIOS_MAX_CONCURRENT_QUERIES=2 TELEIOS_THREADS=8 \
  ctest --test-dir build-tsan --output-on-failure -R "governor_test|GovernedObservatoryTest|MemoryBudgetTest|AdmissionTest|BreakerTest"

echo "== pass 4c/5: introspection leg — every statement traced and flagged =="
# The introspection suite (sys.* tables, KillQuery, query log, event
# ring) plus the obs format/codec tests, with sampling on every
# statement and a zero slow-query threshold: the costliest observability
# configuration must be leak-free under ASan/UBSan and race-free under
# TSan (registry ledger, event ring, and trace buffers are all hit from
# every worker thread).
TELEIOS_TRACE_SAMPLE=1 TELEIOS_SLOW_QUERY_MS=0 \
  ctest --test-dir build-sanitize --output-on-failure -R "IntrospectionTest|Registry\.|EventLog\.|TraceExport\.|Trace\.|ThreadSafety"
TELEIOS_TRACE_SAMPLE=1 TELEIOS_SLOW_QUERY_MS=0 TELEIOS_THREADS=8 \
  ctest --test-dir build-tsan --output-on-failure -R "IntrospectionTest|Registry\.|EventLog\.|TraceExport\.|Trace\.|ThreadSafety"

echo "== pass 4d/5: durability leg — crash sweep with aggressive checkpointing =="
# The recovery sweep and WAL unit tests again under both sanitizer
# builds, with the auto-checkpoint threshold squeezed to 4 KiB so the
# checkpoint protocol (rotate + carry-forward + truncate) fires inside
# the kill window on nearly every workload: every replay, rollover and
# poisoned-segment path must be leak-free under ASan/UBSan and the
# writer/durability-manager locking race-free under TSan.
TELEIOS_WAL_CHECKPOINT_BYTES=4k \
  ctest --test-dir build-sanitize --output-on-failure -R "RecoverySweepTest|WalTest|RetryTest"
TELEIOS_WAL_CHECKPOINT_BYTES=4k TELEIOS_THREADS=8 \
  ctest --test-dir build-tsan --output-on-failure -R "RecoverySweepTest|WalTest|RetryTest"

echo "== pass 4e/5: server leg — wire protocol under tight admission =="
# The network service layer (E2E server suite + wire-protocol
# malformation corpus) under both sanitizer builds, with the admission
# pool squeezed to 2 so concurrent wire statements pile into the queue:
# session teardown, shed paths, and mid-stream disconnects must be
# leak-free under ASan/UBSan, and the session registry / streaming
# backpressure / drain handshake race-free under TSan.
TELEIOS_MAX_CONCURRENT_QUERIES=2 \
  ctest --test-dir build-sanitize --output-on-failure -R "ServerTest|ProtocolTest|WireProtocolFuzz"
TELEIOS_MAX_CONCURRENT_QUERIES=2 TELEIOS_THREADS=8 \
  ctest --test-dir build-tsan --output-on-failure -R "ServerTest|ProtocolTest|WireProtocolFuzz"

echo "== pass 4f/5: chaos leg — transport faults, leases, and the socket sweep =="
# The network fault-tolerance suite under both sanitizer builds: the
# fault-injecting transport unit programs, the dedup window, lease
# expiry, the heartbeat/write-timeout wire tests, the
# kill-at-every-socket-op sweep (every fault point must leave the
# server serviceable, leak-free, and exactly-once on WAL replay), and
# the reconnect storm. The storm is the TSan centerpiece: eight
# resilient clients reconnecting through injected disconnects hammer
# the session registry, dedup window, and accept loop concurrently.
ctest --test-dir build-sanitize --output-on-failure \
  -R "TransportFaultTest|DedupRegistryTest|SessionLeaseTest|ChaosServerTest"
TELEIOS_THREADS=8 ctest --test-dir build-tsan --output-on-failure \
  -R "TransportFaultTest|DedupRegistryTest|SessionLeaseTest|ChaosServerTest"

echo "== pass 5/5: static analysis (thread-safety annotations + lint + analyzer) =="
if command -v clang++ >/dev/null 2>&1; then
  # Compile-time lock-discipline check: the annotated build must be
  # warning-clean under -Werror=thread-safety (clang only).
  cmake -B build-analysis -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_COMPILER=clang++ -DTELEIOS_THREAD_SAFETY_ANALYSIS=ON
  cmake --build build-analysis -j "${JOBS}"
  ctest --test-dir build-analysis --output-on-failure -R "teleios_lint|LintRuleTest|LintScannerTest|LintPathTest"
else
  echo "check.sh: clang++ not found; thread-safety analysis skipped," \
       "running teleios_lint from the plain build"
  ctest --test-dir build --output-on-failure -R "teleios_lint|LintRuleTest|LintScannerTest|LintPathTest"
fi

# Whole-tree cross-file analysis: lock-order cycle detection over every
# TU at once plus the layer-DAG check against layers.txt. ctest covers
# it too; running the binary here prints the edge/statistics summary
# into the check log.
./build/tools/teleios_analyze/teleios_analyze \
  --layers tools/teleios_analyze/layers.txt src
ctest --test-dir build --output-on-failure -R "Analyze|LayerSpec|DeadlockGraphTest"

echo "check.sh: all passes green"
