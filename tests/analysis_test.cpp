// Tests for the lock-hierarchy validator (common/annotated.h): the
// thread-local held-lock stack must flag a rank inversion the moment one
// is induced, must count it into `analysis.lock_inversions`, and — just
// as important — must stay silent across a real multi-threaded pipelined
// chaos run, proving the ranks assigned throughout src/ describe the
// system's true acquisition order (zero false positives).
//
// The whole suite carries the `analysis` ctest label. It requires the
// validator to be compiled in (CMake option NTCS_LOCK_CHECKS, default ON)
// and skips when it is not.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "analysis/sched.h"
#include "common/annotated.h"
#include "common/metrics.h"
#include "core/testbed.h"

namespace ntcs {
namespace {

using namespace std::chrono_literals;
using convert::Arch;

#ifdef NTCS_LOCK_RANK_CHECKS
constexpr bool kLockChecks = true;
#else
constexpr bool kLockChecks = false;
#endif

/// Every case needs the validator compiled in; a build configured with
/// NTCS_LOCK_CHECKS=OFF (the benchmark configuration) skips the suite.
class Analysis : public ::testing::Test {
 protected:
  void SetUp() override {
    if (!kLockChecks) {
      GTEST_SKIP() << "lock-rank validator compiled out (NTCS_LOCK_CHECKS=OFF)";
    }
  }
};

std::uint64_t metric_inversions() {
  return metrics::MetricsRegistry::instance()
      .snapshot()
      .value("analysis.lock_inversions");
}

TEST_F(Analysis, InducedRankInversionIsDetected) {
  // fabric (710) is ranked below lcm.state (300) in acquisition order —
  // taking them inner-to-outer must trip the validator exactly once.
  Mutex low{lockrank::kLcmState, "test.outer"};
  Mutex high{lockrank::kSimnetFabric, "test.inner"};
  const std::uint64_t before = analysis::lock_inversions();
  const std::uint64_t metric_before = metric_inversions();
  {
    LockGuard inner_first(high);
    LockGuard outer_second(low);  // rank 300 while holding rank 710: inversion
  }
  EXPECT_EQ(analysis::lock_inversions(), before + 1);
  EXPECT_EQ(metric_inversions(), metric_before + 1);
}

TEST_F(Analysis, CorrectOrderIsSilent) {
  Mutex outer{lockrank::kLcmState, "test.outer2"};
  Mutex inner{lockrank::kSimnetFabric, "test.inner2"};
  const std::uint64_t before = analysis::lock_inversions();
  {
    LockGuard a(outer);
    LockGuard b(inner);
  }
  // Re-taking the same pair in order repeatedly stays clean too.
  for (int i = 0; i < 100; ++i) {
    LockGuard a(outer);
    LockGuard b(inner);
  }
  EXPECT_EQ(analysis::lock_inversions(), before);
}

TEST_F(Analysis, EqualRanksNestedAreAnInversion) {
  // The hierarchy demands *strictly* increasing ranks: two locks of the
  // same rank may never nest (that is exactly the symmetric-deadlock
  // shape: thread 1 takes A then B, thread 2 takes B then A).
  Mutex a{lockrank::kNdState, "test.same_a"};
  Mutex b{lockrank::kNdState, "test.same_b"};
  const std::uint64_t before = analysis::lock_inversions();
  {
    LockGuard la(a);
    LockGuard lb(b);
  }
  EXPECT_EQ(analysis::lock_inversions(), before + 1);
}

TEST_F(Analysis, UnrankedLocksAreExempt) {
  // Four simultaneously-live mutexes, a distinct pair per direction:
  // reusing one pair in both orders would hand ThreadSanitizer's deadlock
  // detector a genuine A<=>B cycle (and scoped pairs recur at the same
  // stack address, which TSan treats as the same mutex).
  Mutex ordered_outer{lockrank::kSimnetFabric, "test.ordered_outer"};
  Mutex exempt_inner;  // kUnranked: test scaffolding opt-out
  Mutex ordered_inner{lockrank::kSimnetFabric, "test.ordered_inner"};
  Mutex exempt_outer;
  const std::uint64_t before = analysis::lock_inversions();
  {
    LockGuard a(ordered_outer);
    LockGuard b(exempt_inner);  // unranked under ranked: fine
  }
  {
    LockGuard a(exempt_outer);
    LockGuard b(ordered_inner);  // ranked under unranked: also fine
  }
  EXPECT_EQ(analysis::lock_inversions(), before);
}

TEST_F(Analysis, ReleaseRestoresTheStack) {
  // Sequential (non-nested) acquisitions in any rank order are legal: the
  // stack must actually pop on unlock, not just grow.
  Mutex low{lockrank::kLcmState, "test.seq_low"};
  Mutex high{lockrank::kSimnetFabric, "test.seq_high"};
  const std::uint64_t before = analysis::lock_inversions();
  EXPECT_EQ(analysis::held_lock_depth(), 0u);
  { LockGuard g(high); }
  { LockGuard g(low); }  // lower rank than the *released* lock: no inversion
  EXPECT_EQ(analysis::lock_inversions(), before);
  EXPECT_EQ(analysis::held_lock_depth(), 0u);
}

TEST_F(Analysis, CondVarWaitKeepsBookkeepingExact) {
  // A CondVar wait notes the lock released for the wait and re-acquired
  // after it, so the held-lock stack must read 0 while parked and 1 again
  // after wakeup — with no spurious inversions.
  Mutex mu{lockrank::kLcmRequest, "test.cv"};
  CondVar cv;
  bool ready = false;
  const std::uint64_t before = analysis::lock_inversions();
  std::size_t depth_after_wait = 99;
  std::thread waiter([&] {
    UniqueLock lk(mu);
    cv.wait(lk, [&] { return ready; });
    depth_after_wait = analysis::held_lock_depth();
  });
  {
    // While the waiter is parked its stack must not pin mu: bookkeeping
    // is per-thread, so this thread's acquisition is a plain depth-1 take.
    LockGuard lk(mu);
    ready = true;
  }
  cv.notify_all();
  waiter.join();
  EXPECT_EQ(depth_after_wait, 1u);
  EXPECT_EQ(analysis::lock_inversions(), before);
}

TEST_F(Analysis, TryLockParticipates) {
  Mutex low{lockrank::kLcmState, "test.try_low"};
  Mutex high{lockrank::kSimnetFabric, "test.try_high"};
  const std::uint64_t before = analysis::lock_inversions();
  {
    LockGuard g(high);
    ASSERT_TRUE(low.try_lock());  // inversion through try_lock
    low.unlock();
  }
  EXPECT_EQ(analysis::lock_inversions(), before + 1);
}

TEST_F(Analysis, NspLeaseRankSitsBetweenNspStateAndNameServerDb) {
  // The lease cache's lock (kNspLease = 205) is deliberately ranked above
  // the NSP-Layer's own state (200) and below the Name Server database
  // (210): the lookup path may take nsp.state -> nsp.lease in order, and a
  // request that reaches the server may take the db lock afterwards — but
  // nothing may hold the lease lock *across* an LCM call, because the call
  // path re-enters nsp.state. The first block is the legal order; the
  // second is exactly the hold-across-call shape, and the validator must
  // flag it.
  Mutex state{lockrank::kNspState, "test.nsp_state"};
  Mutex lease{lockrank::kNspLease, "test.nsp_lease"};
  Mutex db{lockrank::kNameServerDb, "test.ns_db"};
  const std::uint64_t before = analysis::lock_inversions();
  {
    LockGuard a(state);
    LockGuard b(lease);
    LockGuard c(db);
  }
  EXPECT_EQ(analysis::lock_inversions(), before);
  {
    LockGuard held_across_call(lease);
    LockGuard call_path(state);  // rank 200 under rank 205: inversion
  }
  EXPECT_EQ(analysis::lock_inversions(), before + 1);
}

// ---- the clean path -------------------------------------------------------
// A real pipelined chaos run: M client threads pushing overlapping
// request_async/await traffic through the full stack (ALI → LCM windows →
// IP → ND fragmentation → fabric) with duplication + reordering faults
// injected, while the naming service and DRTS machinery run their own
// traffic. Every lock in src/ is rank-checked on every acquisition; the
// run must end with zero inversions — the validator has no false
// positives on the system's actual interleavings.
TEST_F(Analysis, CleanPathPipelinedChaosRunHasZeroInversions) {
  const std::uint64_t before = analysis::lock_inversions();
  {
    core::Testbed tb(1);
    const auto lan = tb.net("lan");
    tb.machine("m1", Arch::vax780, {"lan"});
    tb.machine("m2", Arch::sun3, {"lan"});
    ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
    ASSERT_TRUE(tb.finalize().ok());

    auto server = tb.spawn_module("server", "m2", "lan").value();
    std::jthread echo([&srv = *server](std::stop_token st) {
      while (!st.stop_requested()) {
        auto in = srv.commod().receive(20ms);
        if (in.ok() && in.value().is_request) {
          (void)srv.commod().reply(in.value().reply_ctx, in.value().payload);
        }
      }
    });

    simnet::FaultPlan plan;
    plan.dup_prob = 0.2;
    plan.reorder_prob = 0.2;
    plan.reorder_window = 300us;
    tb.fabric().set_fault_plan(lan, plan);

    constexpr int kThreads = 4;
    constexpr int kRequestsPerThread = 16;
    std::vector<std::jthread> clients;
    for (int c = 0; c < kThreads; ++c) {
      clients.emplace_back([&tb, c] {
        core::Node node(
            tb.node_config("client" + std::to_string(c), "m1", "lan"));
        ASSERT_TRUE(node.start().ok());
        ASSERT_TRUE(node.commod().register_self().ok());
        auto addr = node.commod().locate("server");
        ASSERT_TRUE(addr.ok()) << addr.error().to_string();
        std::vector<core::RequestTicket> tickets;
        for (int i = 0; i < kRequestsPerThread; ++i) {
          auto t = node.commod().request_async(
              addr.value(), to_bytes(std::to_string(c) + ":" +
                                     std::to_string(i)),
              10s);
          if (t.ok()) tickets.push_back(t.value());
        }
        int answered = 0;
        for (auto& t : tickets) {
          if (node.commod().await(t).ok()) ++answered;
        }
        EXPECT_GT(answered, 0) << "client " << c;
        node.stop();
      });
    }
    clients.clear();  // join
    echo.request_stop();
  }
  EXPECT_EQ(analysis::lock_inversions(), before)
      << "rank inversions detected during the chaos run";
}

// The schedule explorer (src/analysis/sched.h) is the validator's
// systematic counterpart: where the chaos run above proves the ranks
// silent on the schedules that happened to occur, the explorer proves a
// fragment silent on *every* schedule within the bound. A clean build
// must come out of an exhaustive exploration with zero happens-before
// races and zero rank inversions — this is the zero-false-positive
// anchor for the `sched` verify stage.
TEST_F(Analysis, ExplorerReportsCleanFragmentRaceAndInversionFree) {
  namespace sc = analysis::sched;
  struct Shared {
    Mutex mu{lockrank::kLcmState, "analysis.frag"};
    int value GUARDED_BY(mu) = 0;
  };
  sc::Report rep = sc::explore(
      [] {
        auto st = std::make_shared<Shared>();
        auto bump = [st] {
          LockGuard lk(st->mu);
          ++st->value;
        };
        sc::spawn(bump);
        sc::spawn(bump);
        sc::spawn([st] {
          LockGuard lk(st->mu);
          sc::check(st->value >= 0, "counter must never go negative");
        });
      },
      sc::Options::from_env());
  EXPECT_FALSE(rep.failed) << rep.failure;
  EXPECT_TRUE(rep.complete) << "exploration budget too small";
  EXPECT_EQ(rep.races, 0);
  EXPECT_EQ(rep.inversions, 0);
}

}  // namespace
}  // namespace ntcs
