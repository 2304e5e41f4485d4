// alloc_budget_test.cpp — heap allocations per request round trip, held to
// a budget.
//
// The copy-once message path (DESIGN.md "Copy discipline") copies a
// payload once per direction and encodes every header in place, so a
// steady-state 64 B request round trip over zero-latency simnet costs a
// handful of heap allocations in the whole process — client, pumps, echo
// server and gateway together. This suite counts them with a replaced
// global operator new (hence its own executable) and fails when a change
// pushes the count over the budget. Label `perf`.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <thread>

#include "common/annotated.h"
#include "core/testbed.h"

namespace {

// sync: relaxed; observational counters and an on/off switch read on every
// allocation, never used to order other memory.
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ntcs::core {
namespace {

using namespace std::chrono_literals;
using convert::Arch;

// Budgets per round trip. The copy-once path still allocates, on purpose:
// the request copy its ticket keeps for retries; the ticket and its
// pending-table entry; one frame buffer per substrate hop and direction
// (2 direct, 4 through a gateway); the Incoming and Reply payload slices;
// and the echo server's own reply buffer. That is 8 direct and 10 through
// a gateway, measured 8.25 and 10.25 with the inbound queue's node churn;
// one more allocation per round trip trips the budget.
constexpr double kDirectBudget = 9.0;
constexpr double kGatewayBudget = 11.0;

constexpr int kWarmup = 300;
constexpr int kMeasured = 3000;

/// Replies to every request with its own payload, through the BytesView
/// reply entry point.
std::jthread echo_server(Node& node) {
  return std::jthread([&node](std::stop_token st) {
    while (!st.stop_requested()) {
      auto in = node.commod().receive(50ms);
      if (!in.ok() || !in.value().is_request) continue;
      const Bytes out = in.value().payload;
      (void)node.commod().reply(in.value().reply_ctx, out);
    }
  });
}

/// A client and an echo server, on one LAN or on two LANs joined by one
/// gateway, with the circuit between them established and warmed up.
struct EchoRig {
  Testbed tb;
  std::unique_ptr<Node> echo;
  std::unique_ptr<Node> client;
  std::jthread serve;
  UAdd dst;

  explicit EchoRig(bool through_gateway) {
    if (through_gateway) {
      tb.net("net-a");
      tb.net("net-b");
      tb.machine("ma", Arch::vax780, {"net-a"});
      tb.machine("g1", Arch::vax780, {"net-a", "net-b"});
      tb.machine("mb", Arch::vax780, {"net-b"});
      EXPECT_TRUE(tb.start_name_server("ma", "net-a").ok());
      EXPECT_TRUE(tb.add_gateway("gw-1", "g1", {"net-a", "net-b"}).ok());
    } else {
      tb.net("lan");
      tb.machine("ma", Arch::vax780, {"lan"});
      tb.machine("mb", Arch::vax780, {"lan"});
      EXPECT_TRUE(tb.start_name_server("ma", "lan").ok());
    }
    EXPECT_TRUE(tb.finalize().ok());
    const NetName a = through_gateway ? "net-a" : "lan";
    const NetName b = through_gateway ? "net-b" : "lan";
    echo = tb.spawn_module("echo", "mb", b).value();
    client = tb.spawn_module("client", "ma", a).value();
    serve = echo_server(*echo);
    dst = client->commod().locate("echo").value();
    round_trips(kWarmup);
  }

  /// Synchronous 64 B request round trips; every reply must echo the
  /// request's payload.
  void round_trips(int n) {
    const Bytes payload(64, 0x5A);
    int bad = 0;
    for (int i = 0; i < n; ++i) {
      auto r = client->commod().request(dst, payload, 5s);
      if (!r.ok() || r.value().payload != payload) ++bad;
    }
    EXPECT_EQ(bad, 0);
  }
};

/// Heap allocations per round trip, process-wide.
double allocs_per_round_trip(EchoRig& rig) {
  g_allocs.store(0);
  g_counting.store(true);
  rig.round_trips(kMeasured);
  g_counting.store(false);
  return static_cast<double>(g_allocs.load()) / kMeasured;
}

TEST(AllocBudget, DirectRequestRoundTrip) {
  EchoRig rig(/*through_gateway=*/false);
  const double per_op = allocs_per_round_trip(rig);
  RecordProperty("allocs_per_round_trip", std::to_string(per_op));
  EXPECT_LE(per_op, kDirectBudget);
}

TEST(AllocBudget, RequestRoundTripThroughOneGateway) {
  EchoRig rig(/*through_gateway=*/true);
  const double per_op = allocs_per_round_trip(rig);
  RecordProperty("allocs_per_round_trip", std::to_string(per_op));
  EXPECT_LE(per_op, kGatewayBudget);
}

// ---- lock budget ----------------------------------------------------------
// Ranked-lock acquisitions per round trip, counted process-wide by the
// lock-rank validator (so only in builds that compile it in; a CondVar
// wake counts as an acquisition). A round trip takes a layer-wide lock
// only where a table is read or changed: lcm.state once per step (issue,
// completion, and each inbound message on the two pumps) and nd.state
// once per send and per delivery. Measured 32.0 in total direct (4 of them
// lcm.state, 4 nd.state) and 48.0 through one gateway (4 and 8, the
// gateway's two ND-Layers adding a delivery and a send each way). A lock
// taken only to count, or to re-read a value the caller already has,
// trips the budget.

struct LockCounts {
  double total = 0;
  double lcm_state = 0;
  double nd_state = 0;
};

constexpr LockCounts kDirectLocks{32.75, 4.5, 4.5};
constexpr LockCounts kGatewayLocks{48.75, 4.5, 8.5};

/// The validator's counts so far (exact in a double at these magnitudes).
LockCounts counted_locks() {
  return {static_cast<double>(analysis::lock_acquisitions()),
          static_cast<double>(analysis::lock_acquisitions(lockrank::kLcmState)),
          static_cast<double>(analysis::lock_acquisitions(lockrank::kNdState))};
}

LockCounts locks_per_round_trip(EchoRig& rig) {
  const LockCounts before = counted_locks();
  analysis::count_lock_acquisitions(true);
  rig.round_trips(kMeasured);
  analysis::count_lock_acquisitions(false);
  const LockCounts after = counted_locks();
  return {(after.total - before.total) / kMeasured,
          (after.lcm_state - before.lcm_state) / kMeasured,
          (after.nd_state - before.nd_state) / kMeasured};
}

class LockBudget : public ::testing::Test {
 protected:
  void SetUp() override {
#ifndef NTCS_LOCK_RANK_CHECKS
    GTEST_SKIP() << "lock-rank validator compiled out (NTCS_LOCK_CHECKS=OFF)";
#endif
  }

  void ExpectWithin(const LockCounts& c, const LockCounts& budget) {
    RecordProperty("locks_per_round_trip", std::to_string(c.total));
    RecordProperty("lcm_state_per_round_trip", std::to_string(c.lcm_state));
    RecordProperty("nd_state_per_round_trip", std::to_string(c.nd_state));
    EXPECT_LE(c.total, budget.total);
    EXPECT_LE(c.lcm_state, budget.lcm_state);
    EXPECT_LE(c.nd_state, budget.nd_state);
  }
};

TEST_F(LockBudget, DirectRequestRoundTrip) {
  EchoRig rig(/*through_gateway=*/false);
  ExpectWithin(locks_per_round_trip(rig), kDirectLocks);
}

TEST_F(LockBudget, RequestRoundTripThroughOneGateway) {
  EchoRig rig(/*through_gateway=*/true);
  ExpectWithin(locks_per_round_trip(rig), kGatewayLocks);
}

}  // namespace
}  // namespace ntcs::core
