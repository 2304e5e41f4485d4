// Overload tests (`ctest -L overload`): the end-to-end overload-control
// path under deliberately hostile load — bounded inbound queues shedding
// with busy-frame back-pressure, deadline-aware admission control at the
// sender, control-plane priority surviving a data-plane storm, per-peer
// fairness at a gateway relay, and the memory bound the queues exist to
// enforce. Every storm also doubles as a lock-rank probe: the shed and
// back-pressure paths run on pump threads with window locks held, so the
// suite asserts the validator saw zero inversions.
//
// Like the chaos suite, rigs run against a fixed fabric seed
// (NTCS_FABRIC_SEED overrides it for the verify.sh sweep); assertions are
// written against counters and outcome tallies, not exact schedules, so
// they hold under any thread interleaving.
#include <gtest/gtest.h>
#include <sys/resource.h>

// GCC defines __SANITIZE_ADDRESS__; Clang signals ASan via __has_feature.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define NTCS_UNDER_ASAN 1
#endif
#endif

#include <atomic>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/annotated.h"
#include "common/metrics.h"
#include "common/queue.h"
#include "core/testbed.h"
#include "drts/monitor.h"
#include "scope_counters.h"

namespace ntcs::core {
namespace {

using namespace std::chrono_literals;
using convert::Arch;

std::uint64_t fabric_seed() {
  if (const char* s = std::getenv("NTCS_FABRIC_SEED")) {
    return static_cast<std::uint64_t>(std::strtoull(s, nullptr, 10));
  }
  return 1;
}

/// Current high-water RSS in kilobytes (getrusage; Linux reports KiB).
long max_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

/// One LAN, a Name Server on m1, and a hand-built "victim" node on m2
/// whose inbound queue is deliberately tiny — the smallest stack on which
/// an overload storm hits the bound within a handful of messages.
struct OverloadRig {
  Testbed tb;
  std::unique_ptr<Node> sender;
  std::unique_ptr<Node> victim;
  UAdd victim_addr;

  explicit OverloadRig(std::size_t victim_queue, std::size_t reserve,
                       int sender_window_depth = 32)
      : tb(fabric_seed()) {
    tb.net("lan");
    tb.machine("m1", Arch::vax780, {"lan"});
    tb.machine("m2", Arch::sun3, {"lan"});
    EXPECT_TRUE(tb.start_name_server("m1", "lan").ok());
    EXPECT_TRUE(tb.finalize().ok());

    auto scfg = tb.node_config("sender", "m1", "lan");
    scfg.lcm.window_depth = sender_window_depth;
    sender = std::make_unique<Node>(scfg);
    EXPECT_TRUE(sender->start().ok());
    EXPECT_TRUE(sender->commod().register_self().ok());

    auto vcfg = tb.node_config("victim", "m2", "lan");
    vcfg.lcm.max_inbound_queue = victim_queue;
    vcfg.lcm.control_reserve = reserve;
    victim = std::make_unique<Node>(vcfg);
    EXPECT_TRUE(victim->start().ok());
    EXPECT_TRUE(victim->commod().register_self().ok());

    auto addr = sender->commod().locate("victim");
    EXPECT_TRUE(addr.ok());
    victim_addr = addr.value();
  }

  ~OverloadRig() {
    sender->stop();
    victim->stop();
  }
};

TEST(Overload, BlockingQueueReservesControlHeadroom) {
  // capacity 4 with 2 reserved slots: data admission stops at 2, control
  // admission uses the full capacity, and nothing about pop changes.
  ntcs::BlockingQueue<int> q(4, 2);
  EXPECT_TRUE(q.push(1).ok());
  EXPECT_TRUE(q.push(2).ok());
  auto data_full = q.push(3);
  EXPECT_EQ(data_full.code(), ntcs::Errc::no_resource);
  EXPECT_TRUE(q.push_control(3).ok());
  EXPECT_TRUE(q.push_control(4).ok());
  auto truly_full = q.push_control(5);
  EXPECT_EQ(truly_full.code(), ntcs::Errc::no_resource);
  for (int want = 1; want <= 4; ++want) {
    auto got = q.pop_for(100ms);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), want);
  }
  // Draining reopens both classes.
  EXPECT_TRUE(q.push(6).ok());
}

TEST(Overload, SlowConsumerShedsAndBusyPausesTheSender) {
  // The victim never calls receive(): its 4-deep queue (1 slot reserved
  // for control) admits 3 data requests and must shed every further one
  // with a busy frame. The sender sees the shed as a fast retriable
  // overloaded — never a silent drop, never an unbounded queue.
  const std::uint64_t inversions_before = analysis::lock_inversions();
  OverloadRig rig(/*victim_queue=*/4, /*reserve=*/1);

  constexpr int kOffered = 40;
  int ok = 0, overloaded = 0, timeout = 0, other = 0;
  for (int i = 0; i < kOffered; ++i) {
    auto r = rig.sender->commod().request(rig.victim_addr, to_bytes("x"),
                                          250ms);
    if (r.ok()) {
      ++ok;
    } else if (r.code() == ntcs::Errc::overloaded) {
      ++overloaded;
    } else if (r.code() == ntcs::Errc::timeout) {
      ++timeout;
    } else {
      ++other;
    }
  }
  // Outcome reconciliation: every offered request is accounted for.
  EXPECT_EQ(ok + overloaded + timeout + other, kOffered);
  EXPECT_EQ(other, 0);
  // Nothing can complete (no consumer); the queued head-of-line requests
  // time out, everything past the bound is shed fast.
  EXPECT_EQ(ok, 0);
  EXPECT_GE(overloaded, kOffered / 2);
  EXPECT_LE(timeout, 8);

  const metrics::Snapshot vstats = rig.victim->metrics().snapshot();
  EXPECT_GE(counter_value(vstats, "lcm.shed"),
            static_cast<std::uint64_t>(overloaded));
  EXPECT_EQ(counter_value(vstats, "lcm.busy_frames"),
            counter_value(vstats, "lcm.shed"));
  const metrics::Snapshot sstats = rig.sender->metrics().snapshot();
  // Serial resubmission inside the 2ms busy window: the sender paused
  // admission at least once instead of hammering the shedding peer.
  EXPECT_GE(counter_value(sstats, "lcm.busy_pauses") +
                counter_value(sstats, "lcm.admission_rejects"),
            1u);

  EXPECT_EQ(analysis::lock_inversions(), inversions_before)
      << "busy/shed paths took locks against the documented rank order";
}

TEST(Overload, ExpiredWaitersNeverWedgeTheWindow) {
  // Regression for the waiter-queue deadline leak: with a depth-1 window
  // held by a request that will never be answered, callers with short
  // deadlines park, expire, and must leave no residue — once the window
  // frees, a fresh request is admitted and completes immediately.
  OverloadRig rig(/*victim_queue=*/64, /*reserve=*/8,
                  /*sender_window_depth=*/1);

  // Occupy the single window slot (the victim is not consuming yet).
  auto hold = rig.sender->commod().request_async(rig.victim_addr,
                                                 to_bytes("hold"), 700ms);
  ASSERT_TRUE(hold.ok());

  // Pile expired waiters onto the held window, concurrently: all must
  // come back as timeouts, none may be admitted, none may wedge.
  std::vector<std::jthread> parked;
  std::atomic<int> timeouts{0};
  for (int i = 0; i < 6; ++i) {
    parked.emplace_back([&] {
      auto r = rig.sender->commod().request(rig.victim_addr,
                                            to_bytes("late"), 60ms);
      if (!r.ok() && r.code() == ntcs::Errc::timeout) ++timeouts;
    });
  }
  parked.clear();  // join all
  EXPECT_EQ(timeouts.load(), 6);

  // The holder expires too; its release sweeps whatever expired waiters
  // the grant pass finds still queued.
  auto held = rig.sender->commod().await(hold.value());
  EXPECT_FALSE(held.ok());

  // Start consuming and prove the window grants cleanly again.
  std::jthread echo([&](std::stop_token st) {
    while (!st.stop_requested()) {
      auto in = rig.victim->commod().receive(50ms);
      if (in.ok() && in.value().is_request) {
        (void)rig.victim->commod().reply(in.value().reply_ctx,
                                         in.value().payload);
      }
    }
  });
  auto fresh = rig.sender->commod().request(rig.victim_addr,
                                            to_bytes("fresh"), 2s);
  EXPECT_TRUE(fresh.ok()) << fresh.error().what();
  echo.request_stop();
}

TEST(Overload, ControlPlaneSurvivesDataPlaneStorm) {
  // A DRTS monitor with a tiny inbound queue (6, half reserved for
  // control) is stormed with data-plane sends from three threads. The
  // reserve plus the internal-class bypass must keep the control plane
  // fully alive: every locate() and every query_traces() issued during
  // the storm completes, while the data plane is shedding.
  Testbed tb(fabric_seed());
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  tb.machine("m2", Arch::sun3, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());

  auto mcfg = tb.node_config("", "m2", "lan");
  mcfg.lcm.max_inbound_queue = 6;
  mcfg.lcm.control_reserve = 3;
  drts::MonitorServer monitor(mcfg);
  ASSERT_TRUE(monitor.start().ok());

  auto a = tb.spawn_module("a", "m1", "lan").value();
  auto mon_addr = a->commod().locate(drts::kMonitorName);
  ASSERT_TRUE(mon_addr.ok());

  const std::uint64_t shed_before = process_counter_value("lcm.shed");

  std::atomic<bool> storming{true};
  std::vector<std::jthread> storm;
  for (int t = 0; t < 2; ++t) {
    storm.emplace_back([&] {
      const ntcs::Bytes junk = to_bytes(std::string(64, 'x'));
      while (storming.load(std::memory_order_relaxed)) {
        // Burst well past the 6-deep queue bound, then yield the (possibly
        // single) CPU briefly: the test measures queue admission under
        // overflow, not scheduler starvation of the serving loop.
        for (int i = 0; i < 64; ++i) {
          (void)a->commod().send(mon_addr.value(), junk);
        }
        std::this_thread::sleep_for(1ms);
      }
    });
  }

  int control_ok = 0;
  for (int i = 0; i < 5; ++i) {
    auto loc = a->commod().locate(drts::kMonitorName);
    EXPECT_TRUE(loc.ok()) << "locate starved during storm: "
                          << loc.error().what();
    auto traces = drts::query_traces(*a, mon_addr.value());
    EXPECT_TRUE(traces.ok()) << "harvest starved during storm: "
                             << traces.error().what();
    if (loc.ok() && traces.ok()) ++control_ok;
    std::this_thread::sleep_for(20ms);
  }
  storming.store(false);
  storm.clear();  // join

  EXPECT_EQ(control_ok, 5);
  EXPECT_GT(process_counter_value("lcm.shed"), shed_before)
      << "the storm never hit the bound — the test proved nothing";
  a->stop();
}

TEST(Overload, GatewayFairnessMetersDataAndSparesControl) {
  // Two LANs joined by a gateway whose relay is metered to a trickle.
  // A data storm from a to b must be cut down at the relay (counted in
  // gw.fairness_drops, never silently), while control-class traffic —
  // b's naming lookups crossing the same gateway — bypasses the meter.
  const std::uint64_t inversions_before = analysis::lock_inversions();
  Testbed tb(fabric_seed());
  tb.net("lan-a");
  tb.net("lan-b");
  tb.machine("m1", Arch::vax780, {"lan-a"});
  tb.machine("gw1", Arch::apollo_dn330, {"lan-a", "lan-b"});
  tb.machine("m2", Arch::sun3, {"lan-b"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan-a").ok());
  ASSERT_TRUE(tb.add_gateway("gw", "gw1", {"lan-a", "lan-b"}).ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto a = tb.spawn_module("a", "m1", "lan-a").value();
  auto b = tb.spawn_module("b", "m2", "lan-b").value();

  auto addr_b = a->commod().locate("b");
  ASSERT_TRUE(addr_b.ok());
  // Warm the relayed circuit before metering so establishment is not
  // part of the storm.
  ASSERT_TRUE(a->commod().send(addr_b.value(), to_bytes("warm")).ok());
  (void)b->commod().receive(1s);

  Gateway& gw = tb.gateway(0);
  for (std::size_t i = 0; i < gw.attachment_count(); ++i) {
    gw.attachment(i).ip().set_relay_fair_rate(50);
  }

  const std::uint64_t drops_before =
      process_counter_value("gw.fairness_drops");

  constexpr int kStorm = 2000;
  const ntcs::Bytes junk = to_bytes(std::string(32, 'd'));
  for (int i = 0; i < kStorm; ++i) {
    ASSERT_TRUE(a->commod().send(addr_b.value(), junk).ok());
  }
  // send() is asynchronous: wait for the storm to finish traversing the
  // fabric (the drop counter stops moving) before judging the meter.
  std::uint64_t dropped =
      process_counter_value("gw.fairness_drops") - drops_before;
  for (int spin = 0; spin < 100; ++spin) {
    std::this_thread::sleep_for(50ms);
    const std::uint64_t again =
        process_counter_value("gw.fairness_drops") - drops_before;
    if (again == dropped && spin > 2) break;
    dropped = again;
  }
  EXPECT_GT(dropped, static_cast<std::uint64_t>(kStorm / 2))
      << "meter at 50 fps barely engaged against a " << kStorm << " burst";

  // Control class crosses the same saturated relay unmetered: a fresh
  // locate from b rides NSP traffic through the gateway to the Name
  // Server on lan-a.
  auto loc = b->commod().locate("a");
  EXPECT_TRUE(loc.ok()) << "control frame was metered: "
                        << loc.error().what();

  // Some of the burst survived the bucket (at least the initial burst
  // allowance), and nothing downstream broke.
  int delivered = 0;
  while (b->commod().receive(200ms).ok()) ++delivered;
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, kStorm);

  EXPECT_EQ(analysis::lock_inversions(), inversions_before);
  a->stop();
  b->stop();
}

TEST(Overload, BoundedMemoryUnderSustainedStorm) {
  // The point of every bound in this PR: a 4 KiB-payload storm against a
  // non-consuming victim must not grow the process by anything close to
  // the offered volume (~80 MiB). The victim's 64-deep queue pins the
  // buffered high-water mark near 256 KiB; everything else is shed.
  OverloadRig rig(/*victim_queue=*/64, /*reserve=*/8);

  // Touch the path once so steady-state allocations (circuit, buffers)
  // land before the baseline RSS reading.
  (void)rig.sender->commod().send(rig.victim_addr, to_bytes("warm"));
  std::this_thread::sleep_for(50ms);
  const long rss_before = max_rss_kb();

  constexpr int kMsgs = 20000;
  const ntcs::Bytes big = to_bytes(std::string(4096, 'm'));
  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_TRUE(rig.sender->commod().send(rig.victim_addr, big).ok());
  }
  const long rss_growth = max_rss_kb() - rss_before;
  const std::uint64_t shed = counter_value(rig.victim->metrics(), "lcm.shed");

  // Offered ~80 MiB; accept well under half of it as growth (allocator
  // slack, per-thread caches), which still proves the queue bound held.
  // Under ASan the RSS reading measures the sanitizer, not the queues —
  // redzones plus the malloc quarantine (freed shed buffers are kept
  // resident by design) add hundreds of MiB — so there the test's value
  // is the shed-path buffer-lifetime checking and the shed assertion,
  // and the RSS bound is left to the plain build.
#if !defined(__SANITIZE_ADDRESS__) && !defined(NTCS_UNDER_ASAN)
  EXPECT_LT(rss_growth, 32 * 1024)
      << "RSS grew " << rss_growth << " KiB during a bounded-queue storm";
#else
  (void)rss_growth;
#endif
  EXPECT_GT(shed, static_cast<std::uint64_t>(kMsgs / 2));
}

}  // namespace
}  // namespace ntcs::core
