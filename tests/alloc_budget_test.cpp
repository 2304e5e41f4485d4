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
// the request copy its ticket keeps for retries; the ticket, its condition
// variable's internal mutex and its pending-table entry; one frame buffer
// per substrate hop and direction (2 direct, 4 through a gateway); the
// Incoming and Reply payload slices; and the echo server's own reply
// buffer. That is 9 direct and 11 through a gateway, measured 9.25 and
// 11.25 with the inbound queue's node churn; one more allocation per
// round trip trips the budget.
constexpr double kDirectBudget = 10.0;
constexpr double kGatewayBudget = 12.0;

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

/// Heap allocations per synchronous 64 B request round trip to `dst`,
/// after a warm-up that establishes the circuit and sizes every container.
double allocs_per_round_trip(Node& client, UAdd dst) {
  const Bytes payload(64, 0x5A);
  for (int i = 0; i < kWarmup; ++i) {
    auto r = client.commod().request(dst, payload, 5s);
    EXPECT_TRUE(r.ok() && r.value().payload == payload);
  }
  int bad = 0;
  g_allocs.store(0);
  g_counting.store(true);
  for (int i = 0; i < kMeasured; ++i) {
    auto r = client.commod().request(dst, payload, 5s);
    if (!r.ok() || r.value().payload != payload) ++bad;
  }
  g_counting.store(false);
  EXPECT_EQ(bad, 0);
  return static_cast<double>(g_allocs.load()) / kMeasured;
}

TEST(AllocBudget, DirectRequestRoundTrip) {
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  tb.machine("m2", Arch::vax780, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto echo = tb.spawn_module("echo", "m2", "lan").value();
  auto client = tb.spawn_module("client", "m1", "lan").value();
  std::jthread serve = echo_server(*echo);
  auto dst = client->commod().locate("echo");
  ASSERT_TRUE(dst.ok());
  const double per_op = allocs_per_round_trip(*client, dst.value());
  RecordProperty("allocs_per_round_trip", std::to_string(per_op));
  EXPECT_LE(per_op, kDirectBudget);
  serve.request_stop();
}

TEST(AllocBudget, RequestRoundTripThroughOneGateway) {
  Testbed tb;
  tb.net("net-a");
  tb.net("net-b");
  tb.machine("ma", Arch::vax780, {"net-a"});
  tb.machine("g1", Arch::vax780, {"net-a", "net-b"});
  tb.machine("mb", Arch::vax780, {"net-b"});
  ASSERT_TRUE(tb.start_name_server("ma", "net-a").ok());
  ASSERT_TRUE(tb.add_gateway("gw-1", "g1", {"net-a", "net-b"}).ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto echo = tb.spawn_module("echo", "mb", "net-b").value();
  auto client = tb.spawn_module("client", "ma", "net-a").value();
  std::jthread serve = echo_server(*echo);
  auto dst = client->commod().locate("echo");
  ASSERT_TRUE(dst.ok());
  const double per_op = allocs_per_round_trip(*client, dst.value());
  RecordProperty("allocs_per_round_trip", std::to_string(per_op));
  EXPECT_LE(per_op, kGatewayBudget);
  serve.request_stop();
}

}  // namespace
}  // namespace ntcs::core
