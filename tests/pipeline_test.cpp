// Tests for the pipelined request engine: correlation-ID multiplexing of
// many outstanding requests on one IVC, the per-circuit sliding send
// window (fair FIFO admission, stall accounting, release on every exit
// path), per-request address-fault recovery, and the parallel NSP lookup
// built on top.
//
// The whole suite carries the `pipeline` ctest label; scripts/verify.sh
// re-runs it across a sweep of fabric seeds (NTCS_FABRIC_SEED) and under
// TSan.
#include <gtest/gtest.h>

#include <cstdlib>
#include <thread>

#include "common/metrics.h"
#include "core/testbed.h"
#include "scope_counters.h"

namespace ntcs::core {
namespace {

using namespace std::chrono_literals;
using convert::Arch;

/// Fabric seed for the current run: verify.sh sweeps this environment
/// variable so the same assertions run against many deterministic fault
/// and latency schedules.
std::uint64_t fabric_seed() {
  if (const char* s = std::getenv("NTCS_FABRIC_SEED")) {
    return static_cast<std::uint64_t>(std::strtoull(s, nullptr, 10));
  }
  return 1;
}

struct Rig {
  Testbed tb;
  std::unique_ptr<Node> client;
  std::unique_ptr<Node> server;

  explicit Rig(LcmConfig lcm_cfg = {}) : tb(fabric_seed()) {
    tb.net("lan");
    tb.machine("m1", Arch::vax780, {"lan"});
    tb.machine("m2", Arch::sun3, {"lan"});
    EXPECT_TRUE(tb.start_name_server("m1", "lan").ok());
    EXPECT_TRUE(tb.finalize().ok());
    NodeConfig cfg = tb.node_config("client", "m1", "lan");
    cfg.lcm = lcm_cfg;
    client = std::make_unique<Node>(std::move(cfg));
    EXPECT_TRUE(client->start().ok());
    EXPECT_TRUE(client->commod().register_self().ok());
    server = tb.spawn_module("server", "m2", "lan").value();
  }

  ~Rig() {
    if (client) client->stop();
    if (server) server->stop();
  }
};

/// Echo loop that answers requests with their own payload.
std::jthread echo_loop(Node& n) {
  return std::jthread([&n](std::stop_token st) {
    while (!st.stop_requested()) {
      auto in = n.commod().receive(20ms);
      if (in.ok() && in.value().is_request) {
        (void)n.commod().reply(in.value().reply_ctx, in.value().payload);
      }
    }
  });
}

TEST(Pipeline, ManyOutstandingRequestsOneCircuit) {
  Rig rig;
  auto loop = echo_loop(*rig.server);
  auto addr = rig.client->commod().locate("server").value();
  const std::uint64_t requests_before =
      counter_value(rig.client->metrics(), "lcm.requests");
  constexpr int kN = 24;
  std::vector<RequestTicket> tickets;
  for (int i = 0; i < kN; ++i) {
    auto t = rig.client->commod().request_async(
        addr, to_bytes("req-" + std::to_string(i)));
    ASSERT_TRUE(t.ok()) << t.error().to_string();
    tickets.push_back(t.value());
  }
  for (int i = 0; i < kN; ++i) {
    auto r = rig.client->commod().await(tickets[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(r.ok()) << i << ": " << r.error().to_string();
    EXPECT_EQ(to_string(r.value().payload), "req-" + std::to_string(i));
  }
  // All kN went out (internal requests issued concurrently count under
  // lcm.internal_sends, not here).
  EXPECT_GE(counter_value(rig.client->metrics(), "lcm.requests") -
                requests_before,
            static_cast<std::uint64_t>(kN));
}

TEST(Pipeline, AwaitInAnyOrder) {
  Rig rig;
  auto loop = echo_loop(*rig.server);
  auto addr = rig.client->commod().locate("server").value();
  std::vector<RequestTicket> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(rig.client->commod()
                          .request_async(addr, to_bytes(std::to_string(i)))
                          .value());
  }
  // Redeem newest-first: correlation IDs, not arrival order, pair replies
  // with requests.
  for (int i = 7; i >= 0; --i) {
    auto r = rig.client->commod().await(tickets[static_cast<std::size_t>(i)]);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(to_string(r.value().payload), std::to_string(i));
  }
}

TEST(Pipeline, TicketIsSingleUse) {
  Rig rig;
  auto loop = echo_loop(*rig.server);
  auto addr = rig.client->commod().locate("server").value();
  auto t = rig.client->commod().request_async(addr, to_bytes("once"));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(rig.client->commod().await(t.value()).ok());
  EXPECT_EQ(rig.client->commod().await(t.value()).code(), Errc::bad_argument);
  EXPECT_EQ(rig.client->commod().await(nullptr).code(), Errc::bad_argument);
}

TEST(Pipeline, WindowBlocksAtDepthAndCountsStalls) {
  LcmConfig cfg;
  cfg.window_depth = 2;
  Rig rig(cfg);
  auto addr = rig.client->commod().locate("server").value();

  // The server holds every request until told to answer, so the window
  // fills and stays full.
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<ReplyCtx> held;
  std::jthread srv([&](std::stop_token st) {
    while (!st.stop_requested()) {
      auto in = rig.server->commod().receive(20ms);
      if (in.ok() && in.value().is_request) {
        std::unique_lock lk(mu);
        held.push_back(in.value().reply_ctx);
        cv.wait(lk, [&] { return release; });
        (void)rig.server->commod().reply(held.back(), in.value().payload);
      }
    }
  });

  // Two requests occupy the window; the third must stall in admission.
  auto t0 = rig.client->commod().request_async(addr, to_bytes("a"));
  auto t1 = rig.client->commod().request_async(addr, to_bytes("b"));
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  std::atomic<bool> third_issued{false};
  std::jthread blocked([&] {
    auto t2 = rig.client->commod().request_async(addr, to_bytes("c"));
    third_issued = true;
    if (t2.ok()) (void)rig.client->commod().await(t2.value());
  });
  std::this_thread::sleep_for(100ms);
  EXPECT_FALSE(third_issued.load());  // parked on the full window
  EXPECT_GE(counter_value(rig.client->metrics(), "lcm.window_stalls"), 1u);

  {
    std::lock_guard lk(mu);
    release = true;
  }
  cv.notify_all();
  ASSERT_TRUE(rig.client->commod().await(t0.value()).ok());
  ASSERT_TRUE(rig.client->commod().await(t1.value()).ok());
  blocked.join();
  EXPECT_TRUE(third_issued.load());
  srv.request_stop();
}

TEST(Pipeline, AdmissionRespectsRequestDeadline) {
  // A request that cannot be admitted before its deadline fails with
  // timeout instead of blocking forever — and the window is intact for
  // later traffic.
  LcmConfig cfg;
  cfg.window_depth = 1;
  Rig rig(cfg);
  auto addr = rig.client->commod().locate("server").value();
  // The server is silent: the first request holds the window slot.
  auto t0 = rig.client->commod().request_async(addr, to_bytes("holder"),
                                               5s);
  ASSERT_TRUE(t0.ok());
  auto t1 = rig.client->commod().request_async(addr, to_bytes("late"),
                                               150ms);
  EXPECT_EQ(t1.code(), Errc::timeout);
  // Drain the server and answer the holder; the engine must recover.
  auto in = rig.server->commod().receive(1s);
  ASSERT_TRUE(in.ok());
  ASSERT_TRUE(
      rig.server->commod().reply(in.value().reply_ctx, to_bytes("ok")).ok());
  auto r0 = rig.client->commod().await(t0.value());
  ASSERT_TRUE(r0.ok());
  EXPECT_EQ(to_string(r0.value().payload), "ok");
}

TEST(Pipeline, TimedOutAwaitReleasesWindowSlot) {
  LcmConfig cfg;
  cfg.window_depth = 1;
  Rig rig(cfg);
  auto addr = rig.client->commod().locate("server").value();
  // Silent server: the request times out in await(); the slot must come
  // back so the next request can be admitted immediately.
  auto t0 = rig.client->commod().request_async(addr, to_bytes("lost"),
                                               100ms);
  ASSERT_TRUE(t0.ok());
  EXPECT_EQ(rig.client->commod().await(t0.value()).code(), Errc::timeout);
  auto loop = echo_loop(*rig.server);
  auto t1 = rig.client->commod().request_async(addr, to_bytes("next"), 2s);
  ASSERT_TRUE(t1.ok());
  auto r1 = rig.client->commod().await(t1.value());
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(to_string(r1.value().payload), "next");
}

TEST(Pipeline, FifoAdmissionIsFair) {
  // With a window of 1 and N waiters, every waiter is eventually admitted
  // (no starvation) and completes.
  LcmConfig cfg;
  cfg.window_depth = 1;
  Rig rig(cfg);
  auto loop = echo_loop(*rig.server);
  auto addr = rig.client->commod().locate("server").value();
  constexpr int kThreads = 6;
  constexpr int kPerThread = 5;
  std::atomic<int> ok{0};
  std::vector<std::jthread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string body =
            std::to_string(t) + ":" + std::to_string(i);
        auto r = rig.client->commod().request(addr, to_bytes(body), 10s);
        if (r.ok() && to_string(r.value().payload) == body) ++ok;
      }
    });
  }
  threads.clear();
  EXPECT_EQ(ok.load(), kThreads * kPerThread);
}

TEST(Pipeline, PendingRequestsRetryAcrossRelocation) {
  // Requests in flight when the destination dies are failed per-request by
  // the circuit teardown; each awaiting caller re-runs the §3.5 recovery
  // for its own request and lands on the successor module.
  Rig rig;
  auto addr = rig.client->commod().locate("server").value();
  // Park requests at a server that never answers.
  std::vector<RequestTicket> tickets;
  for (int i = 0; i < 4; ++i) {
    auto t = rig.client->commod().request_async(
        addr, to_bytes("r" + std::to_string(i)), 10s);
    ASSERT_TRUE(t.ok());
    tickets.push_back(t.value());
  }
  // Await on background threads so retries run concurrently.
  std::vector<std::jthread> waiters;
  std::atomic<int> ok{0};
  for (int i = 0; i < 4; ++i) {
    waiters.emplace_back([&, i] {
      auto r = rig.client->commod().await(tickets[static_cast<std::size_t>(i)]);
      if (r.ok() &&
          to_string(r.value().payload) == "r" + std::to_string(i)) {
        ++ok;
      }
    });
  }
  std::this_thread::sleep_for(100ms);
  // The old generation dies without replying; its successor echoes.
  rig.server->stop();
  rig.server.reset();
  auto next_gen = rig.tb.spawn_module("server", "m2", "lan").value();
  auto loop = echo_loop(*next_gen);
  waiters.clear();
  EXPECT_EQ(ok.load(), 4);
  next_gen->stop();
}

TEST(Pipeline, DepthMetricAndStallCounterRecorded) {
  LcmConfig cfg;
  cfg.window_depth = 2;
  Rig rig(cfg);
  auto addr = rig.client->commod().locate("server").value();
  const std::uint64_t stalls_before =
      process_counter_value("lcm.window_stalls");
  // The gate: nothing answers until the echo loop starts, so two requests
  // fill the 2-deep window and a third must stall in admission.
  auto t0 = rig.client->commod().request_async(addr, to_bytes("a"), 10s);
  auto t1 = rig.client->commod().request_async(addr, to_bytes("b"), 10s);
  ASSERT_TRUE(t0.ok());
  ASSERT_TRUE(t1.ok());
  std::atomic<bool> third_ok{false};
  std::jthread third([&] {
    auto r = rig.client->commod().request(addr, to_bytes("c"), 10s);
    third_ok = r.ok() && to_string(r.value().payload) == "c";
  });
  const auto deadline = std::chrono::steady_clock::now() + 10s;
  while (process_counter_value("lcm.window_stalls") == stalls_before &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(1ms);
  }
  EXPECT_GT(process_counter_value("lcm.window_stalls"), stalls_before);
  auto loop = echo_loop(*rig.server);  // open the gate
  ASSERT_TRUE(rig.client->commod().await(t0.value()).ok());
  ASSERT_TRUE(rig.client->commod().await(t1.value()).ok());
  third.join();
  EXPECT_TRUE(third_ok.load());
  const auto snap = metrics::MetricsRegistry::instance().snapshot();
  const metrics::MetricValue* depth = snap.find("lcm.pipeline_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_GT(depth->count, 0u);
}

TEST(Pipeline, ParallelNameLookups) {
  Rig rig;
  auto extra = rig.tb.spawn_module("extra", "m2", "lan").value();
  auto res = rig.client->commod().locate_many(
      {"server", "extra", "no-such-module", "client"});
  ASSERT_TRUE(res.ok());
  const auto& v = res.value();
  ASSERT_EQ(v.size(), 4u);
  ASSERT_TRUE(v[0].ok());
  EXPECT_EQ(v[0].value(), rig.server->identity().uadd());
  ASSERT_TRUE(v[1].ok());
  EXPECT_EQ(v[1].value(), extra->identity().uadd());
  EXPECT_EQ(v[2].code(), Errc::not_found);
  ASSERT_TRUE(v[3].ok());
  EXPECT_EQ(v[3].value(), rig.client->identity().uadd());
  EXPECT_EQ(rig.client->commod().locate_many({}).code(), Errc::bad_argument);
  extra->stop();
}

TEST(Pipeline, ShutdownFailsParkedAdmissionWaiters) {
  LcmConfig cfg;
  cfg.window_depth = 1;
  Rig rig(cfg);
  auto addr = rig.client->commod().locate("server").value();
  // Silent server; one holder fills the window, one waiter parks.
  auto t0 = rig.client->commod().request_async(addr, to_bytes("h"), 10s);
  ASSERT_TRUE(t0.ok());
  std::atomic<bool> done{false};
  std::jthread parked([&] {
    auto t1 = rig.client->commod().request_async(addr, to_bytes("w"), 10s);
    if (t1.ok()) (void)rig.client->commod().await(t1.value());
    done = true;
  });
  std::this_thread::sleep_for(50ms);
  rig.client->stop();
  parked.join();
  EXPECT_TRUE(done.load());
  rig.client.reset();
}

}  // namespace
}  // namespace ntcs::core
