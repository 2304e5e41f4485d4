#!/usr/bin/env bash
# verify.sh — the full local verification flow.
#
# 1. Configure + build (pass NTCS_SANITIZE=thread in the environment to get
#    a TSan build: the metrics hot paths are relaxed-atomic and must be
#    clean under it).
# 2. Run the whole suite once.
# 3. Re-run the stress and failure suites under --repeat until-fail:3 —
#    these exercise timing-dependent recovery paths (killed channels,
#    partitions, reconnects) where a flake is a bug.
# 4. Build the chaos suite under TSan and run it repeatedly: the
#    fault-injection engine plus every layer's recovery path is the most
#    interleaving-sensitive code in the tree.
# 5. Metrics suite (ctest label `metrics`) repeated under TSan: per-node
#    scopes created, summed and folded while snapshots race them. Then the
#    services suites (label `services`: ComMod::serve, the node-owned
#    service thread and every server on them) in the normal build, then
#    repeated under TSan. Then the reconfiguration suites (label
#    `reconfig`: relocation recovery, leases, replicas, circuit deaths) in
#    the normal build, then repeated under TSan. Then the trace suite
#    (ctest label `trace`) in the normal build, then repeated under TSan:
#    the span ring's lock-free writers vs. snapshot readers.
# 6. Realnet stage: the STD-IF conformance labels (`nd`, `realnet`) plus
#    the realnet half of the parameterized integration suite, normal build
#    and TSan — real listener/reader threads over real loopback sockets.
# 7. Fabric-seed sweep: re-run the pipeline + chaos suites across 10 fixed
#    fabric seeds (NTCS_FABRIC_SEED), normal build and TSan build. Each
#    seed is a different deterministic fault/latency schedule; the
#    pipelined request engine must keep its correlation and window
#    invariants under every one of them.
# 8. Lint gate: scripts/lint.sh (annotated-mutex, trace static-ref and
#    STD-IF isolation grep gates, clang-tidy where available) — run
#    first, cheapest failure.
# 9. ASan/UBSan build (the second sanitizer-matrix axis,
#    NTCS_SANITIZE=address,undefined with -fno-sanitize-recover): full
#    suite plus the analysis-label lock-validator tests.
# 10. Overload stage (ctest label `overload`): bounded-queue shedding,
#    busy-frame back-pressure, admission control, control-plane priority
#    and gateway fairness under storm load — normal build, then ASan.
# 11. Naming stage (ctest label `naming`): the sharded name service —
#    backend-parameterized conformance, ring invariants, seeded churn and
#    the failover chaos regression — normal build, then repeated TSan.
# 12. Health stage (ctest label `health`): the observability plane —
#    gauges, the watchdog's stall/wedge/queue classifications, the
#    flight-recorder ring, and the remote health/journal harvest — in the
#    normal build, then repeated under TSan (the journal's lock-free
#    writers vs. its drain readers reuse the span ring's seqlock
#    discipline and must stay clean). Plus the ntcs_top smoke scrape: the
#    fleet scraper against a live 2-node testbed must exit 0.
# 13. Sched stage (ctest label `sched`): the deterministic schedule
#    explorer — bounded exploration of the known-dangerous interleaving
#    trios, the seeded historical-bug reproductions, the stored minimal
#    replay fixtures, and the clean-fragment zero-race/zero-inversion
#    anchor — normal build, then ASan (the explorer's fibers and the
#    vector-clock bookkeeping under memory checking). The fuzz corpus
#    replay (label `fuzz`) rides along here: wire decoders over the
#    checked-in corpus in both builds.
# 14. Benchmark-configuration stage: a Release tree with the lock-rank
#    validator compiled out (-DNTCS_LOCK_CHECKS=OFF, what perfbench
#    builds) must build and pass the full suite — the `analysis` cases
#    report skipped there — and the allocation-budget suite (label
#    `perf`) must hold its per-round-trip budget in that configuration
#    too.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
SANITIZE="${NTCS_SANITIZE:-}"

./scripts/lint.sh "$BUILD_DIR"

cmake -B "$BUILD_DIR" -S . -DNTCS_SANITIZE="$SANITIZE"
cmake --build "$BUILD_DIR" -j"$(nproc)"

ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure

# Test names come from gtest suites: Stress.*, Failure.*
ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure \
  -R '^(Stress|Failure)\.' --repeat until-fail:3

# Chaos suite under TSan, repeated until-fail. Selected by ctest label.
TSAN_DIR="${TSAN_BUILD_DIR:-build-tsan}"
cmake -B "$TSAN_DIR" -S . -DNTCS_SANITIZE=thread
cmake --build "$TSAN_DIR" -j"$(nproc)" --target chaos_test simnet_test nd_test
ctest --test-dir "$TSAN_DIR" -j"$(nproc)" --output-on-failure \
  -L chaos --repeat until-fail:3
ctest --test-dir "$TSAN_DIR" -j"$(nproc)" --output-on-failure \
  -R '^(FaultPlan|FaultInjection|FabricTopology|NdLayer)\.' \
  --repeat until-fail:3

# Metrics suite (label `metrics`) under TSan, repeated until-fail: the
# per-node scopes are linked into and folded into the process root under
# its lock while pumps bump their counters and snapshots sum them.
cmake --build "$TSAN_DIR" -j"$(nproc)" --target metrics_test
ctest --test-dir "$TSAN_DIR" -j"$(nproc)" --output-on-failure \
  -L metrics --repeat until-fail:3

# Services stage (label `services`): ComMod::serve, Node::run/stop and
# every server built on them — Name Server clients, the DRTS services,
# process control's relocation, the file service and URSA. Once in the
# normal build, then repeated under TSan: each server's handler runs on
# the node's service thread, started by run() and joined by stop() while
# requests are in flight.
cmake --build "$TSAN_DIR" -j"$(nproc)" --target commod_test node_test \
  drts_test file_service_test ursa_test
ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure -L services
ctest --test-dir "$TSAN_DIR" -j"$(nproc)" --output-on-failure \
  -L services --repeat until-fail:3

# Reconfiguration stage (label `reconfig`): the LCM's §3.5 recovery, the
# lease cache and the forwarding query, replicas, circuits dying under
# requests. Once in the normal build, then repeated under TSan: a pump's
# ivc_closed races the sender's decision to ask the naming service first.
cmake --build "$TSAN_DIR" -j"$(nproc)" --target lcm_test nsp_test \
  replica_test failure_test
ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure -L reconfig
ctest --test-dir "$TSAN_DIR" -j"$(nproc)" --output-on-failure \
  -L reconfig --repeat until-fail:3

# Tracing suite (label `trace`): the wire round trip, the span ring, the
# gateway-chain span chain and the chaos-harvest acceptance — once in the
# normal build, then under TSan (the span ring's seqlock writers race its
# snapshot readers by design and must stay clean).
cmake --build "$TSAN_DIR" -j"$(nproc)" --target trace_test
ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure -L trace
ctest --test-dir "$TSAN_DIR" -j"$(nproc)" --output-on-failure \
  -L trace --repeat until-fail:3

# Realnet stage: the backend-parameterized conformance suites prove the
# STD-IF contract over real loopback sockets (labels `nd` + `realnet`:
# conformance over both backends, the realnet-only edge cases, and the
# multi-process bootstrap/exchange/shutdown test), then the same suites
# run under TSan — the TCP backend's listener/reader/reaper threads are
# real OS concurrency, not the fabric's deterministic scheduler.
cmake --build "$TSAN_DIR" -j"$(nproc)" --target realnet_test \
  multiprocess_test multiprocess_peer integration_test
ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure \
  -L 'nd|realnet'
ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure \
  -R '/realnet' # the realnet half of the parameterized suites
ctest --test-dir "$TSAN_DIR" -j"$(nproc)" --output-on-failure \
  -L 'nd|realnet' --repeat until-fail:3
ctest --test-dir "$TSAN_DIR" -j"$(nproc)" --output-on-failure \
  -R '/realnet'

# Pipelined-request seed sweep: the pipeline and chaos labels plus the
# PipelinedChaos property suite, across 10 fixed fabric seeds, first in
# the normal build and then under TSan.
cmake --build "$TSAN_DIR" -j"$(nproc)" --target pipeline_test property_test
SEEDS="1 2 3 5 7 11 13 17 19 23"
for seed in $SEEDS; do
  echo "=== pipeline sweep: fabric seed $seed (normal) ==="
  NTCS_FABRIC_SEED="$seed" ctest --test-dir "$BUILD_DIR" -j"$(nproc)" \
    --output-on-failure -L 'pipeline|chaos'
  NTCS_FABRIC_SEED="$seed" ctest --test-dir "$BUILD_DIR" -j"$(nproc)" \
    --output-on-failure -R 'PipelinedChaos'
done
for seed in $SEEDS; do
  echo "=== pipeline sweep: fabric seed $seed (TSan) ==="
  NTCS_FABRIC_SEED="$seed" ctest --test-dir "$TSAN_DIR" -j"$(nproc)" \
    --output-on-failure -L 'pipeline|chaos'
  NTCS_FABRIC_SEED="$seed" ctest --test-dir "$TSAN_DIR" -j"$(nproc)" \
    --output-on-failure -R 'PipelinedChaos'
done

# ASan/UBSan axis of the sanitizer matrix: memory errors and UB across
# the whole suite (TSan cannot be combined with ASan, hence two trees).
# UBSan runs with -fno-sanitize-recover, so any finding is a test failure,
# and the analysis-label suite re-checks the lock-rank validator with
# ASan watching its thread-local stack bookkeeping.
ASAN_DIR="${ASAN_BUILD_DIR:-build-asan}"
cmake -B "$ASAN_DIR" -S . -DNTCS_SANITIZE=address,undefined
cmake --build "$ASAN_DIR" -j"$(nproc)"
ctest --test-dir "$ASAN_DIR" -j"$(nproc)" --output-on-failure
ctest --test-dir "$ASAN_DIR" -j"$(nproc)" --output-on-failure -L analysis \
  --repeat until-fail:3

# Naming stage (label `naming`): the sharded name service's conformance
# suite (both substrates), the ring invariants, the seeded churn property
# suite and the primary-death chaos regression — once in the normal build,
# then repeated under TSan: the lease cache, the epoch purges and the
# standby promotion are the contended state, and a flake in the failover
# path is a bug.
cmake --build "$TSAN_DIR" -j"$(nproc)" --target naming_scale_test
ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure -L naming
ctest --test-dir "$TSAN_DIR" -j"$(nproc)" --output-on-failure \
  -L naming --repeat until-fail:3

# Overload stage (label `overload`): bounded queues, busy back-pressure,
# deadline-aware admission, control-plane priority and gateway fairness
# under deliberate storms — normal build first (includes the getrusage
# bounded-memory assertion), then under ASan, where every shed path's
# buffer lifetime is checked while the storm is in flight.
ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure -L overload
ctest --test-dir "$ASAN_DIR" -j"$(nproc)" --output-on-failure -L overload

# Health stage (label `health`): the observability plane. The gauge
# arithmetic, the watchdog classifications (seeded stall, wedged window,
# queue-near-bound, counter storm), the journal ring's overwrite-oldest
# seqlock, the chaos-run zero-false-positive anchor and the remote
# health/journal harvest — normal build, then repeated under TSan (the
# journal writers are lock-free against the drain reader by design).
# Finally the ntcs_top smoke scrape: the operator tool must bring up a
# 2-node fleet, discover its monitor through the name service and come
# back with zero scrape errors.
cmake --build "$TSAN_DIR" -j"$(nproc)" --target health_test
ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure -L health
ctest --test-dir "$TSAN_DIR" -j"$(nproc)" --output-on-failure \
  -L health --repeat until-fail:3
cmake --build "$BUILD_DIR" -j"$(nproc)" --target ntcs_top
./scripts/ntcs_top --smoke --build-dir "$BUILD_DIR"

# Sched stage (label `sched`): bounded deterministic exploration. The
# default budgets (NTCS_SCHED_BUDGET / NTCS_SCHED_PREEMPT, see
# analysis/sched.h Options::from_env) are chosen so the stage is minutes,
# not hours: every seeded historical bug must be found and shrunk within
# budget, every stored replay fixture must re-trigger its bug
# byte-for-byte, and the clean fragments must explore to completion with
# zero races and zero rank inversions. Run once in the normal build, then
# under ASan — the explorer's cooperative fibers, the vector-clock maps
# and the shrink loop all allocate on hot paths worth watching. The fuzz
# corpus replay rides along: every wire-decoder harness over its
# checked-in corpus, both builds.
ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure -L sched
ctest --test-dir "$ASAN_DIR" -j"$(nproc)" --output-on-failure -L sched
ctest --test-dir "$BUILD_DIR" -j"$(nproc)" --output-on-failure -L fuzz
ctest --test-dir "$ASAN_DIR" -j"$(nproc)" --output-on-failure -L fuzz

# Benchmark-configuration stage: Release, lock-rank validator compiled out
# — the configuration perfbench measures. Full suite, then the
# allocation-budget suite on its own.
REL_DIR="${REL_BUILD_DIR:-build-release}"
cmake -B "$REL_DIR" -S . -DCMAKE_BUILD_TYPE=Release -DNTCS_LOCK_CHECKS=OFF
cmake --build "$REL_DIR" -j"$(nproc)"
ctest --test-dir "$REL_DIR" -j"$(nproc)" --output-on-failure
ctest --test-dir "$REL_DIR" -j"$(nproc)" --output-on-failure -L perf

echo "verify: OK"
