// Tests for the per-layer metrics registry (common/metrics.h): counter and
// histogram semantics, snapshot/delta arithmetic, thread safety, per-node
// scopes (disjoint per module, summed and folded into the process root),
// and the end-to-end claims — a 2-hop send bumps ip.hops_forwarded on each
// gateway it traverses, and killed-channel recovery is exactly one
// lcm.reconnect.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "core/testbed.h"
#include "scope_counters.h"

namespace ntcs::core {
namespace {

using namespace std::chrono_literals;
using convert::Arch;

// ------------------------------------------------------------------ units

TEST(Metrics, CounterFetchOrCreateIsStable) {
  metrics::MetricsRegistry reg;
  metrics::Counter& a = reg.counter("layer.events");
  metrics::Counter& b = reg.counter("layer.events");
  EXPECT_EQ(&a, &b);  // call sites may cache the reference
  a.inc();
  a.inc(41);
  EXPECT_EQ(b.value(), 42u);
  EXPECT_EQ(reg.counter("layer.other").value(), 0u);
}

TEST(Metrics, HistogramBucketsArePowersOfTwo) {
  metrics::MetricsRegistry reg;
  metrics::Histogram& h = reg.histogram("layer.lat_ns");
  h.record(std::uint64_t{0});    // bucket 0: exactly zero
  h.record(std::uint64_t{1});    // bucket 1: [1, 2)
  h.record(std::uint64_t{5});    // bucket 3: [4, 8)
  h.record(std::uint64_t{7});    // bucket 3 again
  h.record(~std::uint64_t{0});   // clamped into the last bucket
  EXPECT_EQ(h.count(), 5u);
  EXPECT_EQ(h.sum(), 0u + 1u + 5u + 7u + ~std::uint64_t{0});
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 0u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.bucket(metrics::kHistogramBuckets - 1), 1u);
  h.record(-3ns);  // negative durations clamp to zero, never underflow
  EXPECT_EQ(h.bucket(0), 2u);
}

TEST(Metrics, PercentilesInterpolateWithinBuckets) {
  metrics::MetricsRegistry reg;
  metrics::Histogram& h = reg.histogram("layer.lat_ns");
  EXPECT_EQ(h.percentile(0.50), 0.0);  // empty histogram

  // 100 samples spread over one bucket, [64, 128): ranks interpolate
  // linearly across the bucket's span.
  for (int i = 0; i < 100; ++i) h.record(std::uint64_t{100});
  EXPECT_GE(h.percentile(0.50), 64.0);
  EXPECT_LE(h.percentile(0.50), 128.0);
  EXPECT_LT(h.percentile(0.10), h.percentile(0.90));

  // A distinct tail: 10 samples land in [1024, 2048), so p99 must sit in
  // the tail bucket while p50 stays in the body.
  for (int i = 0; i < 10; ++i) h.record(std::uint64_t{1500});
  EXPECT_LE(h.percentile(0.50), 128.0);
  EXPECT_GE(h.percentile(0.99), 1024.0);
  EXPECT_LE(h.percentile(0.99), 2048.0);

  // Zeros occupy bucket 0 and report exactly zero; out-of-range p clamps.
  metrics::Histogram& z = reg.histogram("layer.zeros");
  for (int i = 0; i < 5; ++i) z.record(std::uint64_t{0});
  EXPECT_EQ(z.percentile(0.99), 0.0);
  EXPECT_EQ(z.percentile(-1.0), 0.0);
  EXPECT_GE(h.percentile(2.0), 1024.0);  // clamps to the max rank

  // The snapshot side agrees with the live histogram, and the JSON dump
  // carries the interpolated keys.
  const metrics::Snapshot snap = reg.snapshot();
  const metrics::MetricValue* v = snap.find("layer.lat_ns");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->percentile(0.99), h.percentile(0.99));
  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"p50_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p90_ns\""), std::string::npos);
  EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
}

TEST(Metrics, UntouchedMetricsNeverAppearInSnapshots) {
  metrics::MetricsRegistry reg;
  reg.counter("touched").inc();
  metrics::Snapshot snap = reg.snapshot();
  EXPECT_EQ(snap.values.size(), 1u);
  EXPECT_NE(snap.find("touched"), nullptr);
  EXPECT_EQ(snap.find("never-touched"), nullptr);
  EXPECT_EQ(snap.value("never-touched"), 0u);
}

TEST(Metrics, SnapshotDeltaSubtractsPerName) {
  metrics::MetricsRegistry reg;
  metrics::Counter& c = reg.counter("layer.sends");
  metrics::Histogram& h = reg.histogram("layer.wait_ns");
  c.inc(10);
  h.record(std::uint64_t{3});
  metrics::Snapshot before = reg.snapshot();

  c.inc(5);
  h.record(std::uint64_t{3});
  h.record(std::uint64_t{100});
  reg.counter("layer.new").inc(7);  // born after `before`
  metrics::Snapshot after = reg.snapshot();

  metrics::Snapshot d = after.delta(before);
  EXPECT_EQ(d.value("layer.sends"), 5u);
  EXPECT_EQ(d.value("layer.new"), 7u);  // missing-from-before keeps its value
  const metrics::MetricValue* hv = d.find("layer.wait_ns");
  ASSERT_NE(hv, nullptr);
  EXPECT_EQ(hv->kind, metrics::MetricKind::histogram);
  EXPECT_EQ(hv->count, 2u);
  EXPECT_EQ(hv->sum, 103u);
  ASSERT_GT(hv->buckets.size(), 2u);
  EXPECT_EQ(hv->buckets[2], 1u);  // the second record(3) survives the delta
}

TEST(Metrics, ToJsonCarriesBothKinds) {
  metrics::MetricsRegistry reg;
  reg.counter("lcm.sends").inc(3);
  reg.histogram("ali.recv_wait_ns").record(std::uint64_t{9});
  const std::string json = reg.snapshot().to_json();
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"lcm.sends\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"ali.recv_wait_ns\""), std::string::npos);
}

TEST(Metrics, ConcurrentIncrementsFromEightThreadsLoseNothing) {
  metrics::MetricsRegistry reg;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::jthread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&reg] {
      // Mix creation races (fetch-or-create under contention) with the
      // hot-path relaxed adds.
      metrics::Counter& c = reg.counter("contended.counter");
      metrics::Histogram& h = reg.histogram("contended.hist");
      for (int i = 0; i < kPerThread; ++i) {
        c.inc();
        h.record(static_cast<std::uint64_t>(i));
      }
    });
  }
  workers.clear();  // join all
  EXPECT_EQ(reg.counter("contended.counter").value(),
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  metrics::Histogram& h = reg.histogram("contended.hist");
  EXPECT_EQ(h.count(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  std::uint64_t bucket_total = 0;
  for (std::size_t i = 0; i < metrics::kHistogramBuckets; ++i) {
    bucket_total += h.bucket(i);
  }
  EXPECT_EQ(bucket_total, h.count());
}

// ------------------------------------------------------------- end-to-end

TEST(Metrics, TwoHopSendBumpsHopsForwardedOnEachGateway) {
  // A chain of three networks joined by two gateways: every message from
  // src to dst is relayed by both, so each send adds exactly 2 to the
  // process-wide ip.hops_forwarded.
  Testbed tb;
  tb.net("net-0");
  tb.net("net-1");
  tb.net("net-2");
  tb.machine("m-src", Arch::vax780, {"net-0"});
  tb.machine("m-gw0", Arch::apollo_dn330, {"net-0", "net-1"});
  tb.machine("m-gw1", Arch::apollo_dn330, {"net-1", "net-2"});
  tb.machine("m-dst", Arch::sun3, {"net-2"});
  ASSERT_TRUE(tb.start_name_server("m-src", "net-0").ok());
  ASSERT_TRUE(tb.add_gateway("gw-0", "m-gw0", {"net-0", "net-1"}).ok());
  ASSERT_TRUE(tb.add_gateway("gw-1", "m-gw1", {"net-1", "net-2"}).ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto src = tb.spawn_module("src", "m-src", "net-0").value();
  auto dst = tb.spawn_module("dst", "m-dst", "net-2").value();
  auto addr = src->commod().locate("dst").value();

  // Warm the circuit so the measured window is pure data relaying.
  ASSERT_TRUE(src->commod().send(addr, to_bytes("warm")).ok());
  ASSERT_TRUE(dst->commod().receive(2s).ok());

  metrics::Snapshot before = metrics::MetricsRegistry::instance().snapshot();
  constexpr std::uint64_t kSends = 3;
  for (std::uint64_t i = 0; i < kSends; ++i) {
    ASSERT_TRUE(src->commod().send(addr, to_bytes("hop-hop")).ok());
    ASSERT_TRUE(dst->commod().receive(2s).ok());
  }
  metrics::Snapshot d =
      metrics::MetricsRegistry::instance().snapshot().delta(before);
  EXPECT_EQ(d.value("ip.hops_forwarded"), 2 * kSends);
  EXPECT_EQ(d.value("lcm.sends"), kSends);
  EXPECT_EQ(d.value("lcm.received"), kSends);
  src->stop();
  dst->stop();
}

TEST(Metrics, KilledChannelRecoveryIsExactlyOneReconnect) {
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  tb.machine("m2", Arch::sun3, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto a = tb.spawn_module("a", "m1", "lan").value();
  auto b = tb.spawn_module("b", "m2", "lan").value();
  auto addr = a->commod().locate("b").value();
  ASSERT_TRUE(a->commod().send(addr, to_bytes("one")).ok());
  ASSERT_TRUE(b->commod().receive(1s).ok());

  // Kill only the newest live channel: channel ids are sequential, and the
  // a<->b circuit was established last (after both Name-Server circuits),
  // so recovery's own naming traffic rides intact circuits and the only
  // reconnect in the window is the one we forced.
  bool killed = false;
  for (simnet::ChannelId c = 63; c >= 1 && !killed; --c) {
    if (tb.fabric().kill_channel(c).ok()) killed = true;
  }
  ASSERT_TRUE(killed);

  metrics::Snapshot before = metrics::MetricsRegistry::instance().snapshot();
  ASSERT_TRUE(a->commod().send(addr, to_bytes("two")).ok());
  auto in = b->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "two");
  metrics::Snapshot d =
      metrics::MetricsRegistry::instance().snapshot().delta(before);
  // Exactly once — whether the send tripped over the dead handle or the
  // closed notification cleaned up first, the re-establishment is counted
  // a single time.
  EXPECT_EQ(d.value("lcm.reconnects"), 1u);
  a->stop();
  b->stop();
}

// ----------------------------------------------------------------- scopes

TEST(MetricsScope, RootSumsLiveScopesAndKeepsWhatTheyFold) {
  metrics::MetricsRegistry root;
  root.counter("layer.events").inc(1);
  root.histogram("layer.lat_ns").record(std::uint64_t{5});
  {
    metrics::MetricsRegistry a(root);
    metrics::MetricsRegistry b(root);
    // A scope's counters exist, at 0, from the lookup on.
    metrics::Counter& a_events = a.counter("layer.events");
    EXPECT_NE(a.snapshot().find("layer.events"), nullptr);
    EXPECT_EQ(a.snapshot().value("layer.events"), 0u);
    a_events.inc(10);
    b.counter("layer.events").inc(100);
    b.counter("layer.scoped_only").inc(7);

    // The root reports its own value plus every live scope's, name by
    // name; each scope reports only its own.
    const metrics::Snapshot r = root.snapshot();
    EXPECT_EQ(r.value("layer.events"), 1u + 10u + 100u);
    EXPECT_EQ(r.value("layer.scoped_only"), 7u);
    const metrics::MetricValue* lat = r.find("layer.lat_ns");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count, 1u);
    EXPECT_EQ(a.snapshot().value("layer.events"), 10u);
    EXPECT_EQ(b.snapshot().value("layer.events"), 100u);
    EXPECT_EQ(a.snapshot().find("layer.scoped_only"), nullptr);
    EXPECT_EQ(a.snapshot().find("layer.lat_ns"), nullptr);
  }
  // Destroyed scopes folded into the root's own counters: same totals.
  const metrics::Snapshot r = root.snapshot();
  EXPECT_EQ(r.value("layer.events"), 111u);
  EXPECT_EQ(r.value("layer.scoped_only"), 7u);
  EXPECT_EQ(root.counter("layer.events").value(), 111u);
}

/// Two modules on one LAN, `a` requesting from `b`'s echo loop.
struct ScopeRig {
  Testbed tb;
  std::unique_ptr<Node> a;
  std::unique_ptr<Node> b;
  UAdd b_addr;

  ScopeRig() {
    tb.net("lan");
    tb.machine("m1", Arch::vax780, {"lan"});
    tb.machine("m2", Arch::sun3, {"lan"});
    EXPECT_TRUE(tb.start_name_server("m1", "lan").ok());
    EXPECT_TRUE(tb.finalize().ok());
    a = tb.spawn_module("a", "m1", "lan").value();
    b = tb.spawn_module("b", "m2", "lan").value();
    b_addr = a->commod().locate("b").value();
  }

  /// `n` requests from a, each answered by b.
  void exchange(int n) {
    std::jthread echo([this, n] {
      for (int served = 0; served < n;) {
        auto in = b->commod().receive(2s);
        if (!in.ok()) return;
        if (!in.value().is_request) continue;
        (void)b->commod().reply(in.value().reply_ctx, in.value().payload);
        ++served;
      }
    });
    for (int i = 0; i < n; ++i) {
      auto r = a->commod().request(b_addr, to_bytes("ping"), 2s);
      EXPECT_TRUE(r.ok());
    }
  }
};

TEST(MetricsScope, TwoNodesCountOnlyTheirOwnTraffic) {
  ScopeRig rig;
  ASSERT_NE(&rig.a->metrics(), &rig.b->metrics());
  const metrics::Snapshot a0 = rig.a->metrics().snapshot();
  const metrics::Snapshot b0 = rig.b->metrics().snapshot();
  constexpr int kRequests = 5;
  rig.exchange(kRequests);
  const metrics::Snapshot a = rig.a->metrics().snapshot().delta(a0);
  const metrics::Snapshot b = rig.b->metrics().snapshot().delta(b0);
  // The requester counts its requests, the server its receptions, and
  // neither scope sees the other's.
  EXPECT_EQ(counter_value(a, "lcm.requests"), std::uint64_t{kRequests});
  EXPECT_EQ(counter_value(b, "lcm.requests"), 0u);
  EXPECT_EQ(counter_value(b, "lcm.received"), std::uint64_t{kRequests});
  EXPECT_EQ(counter_value(a, "lcm.received"), 0u);
  EXPECT_EQ(counter_value(b, "lcm.replies"), std::uint64_t{kRequests});
  EXPECT_EQ(counter_value(a, "lcm.replies"), 0u);
}

TEST(MetricsScope, ProcessTotalsKeepStoppedAndDestroyedNodes) {
  ScopeRig rig;
  auto& root = metrics::MetricsRegistry::instance();
  const std::uint64_t before = root.snapshot().value("lcm.requests");
  constexpr int kRequests = 3;
  rig.exchange(kRequests);
  const std::uint64_t total = root.snapshot().value("lcm.requests");
  EXPECT_EQ(total - before, std::uint64_t{kRequests});
  EXPECT_EQ(counter_value(rig.a->metrics(), "lcm.requests"),
            std::uint64_t{kRequests});

  rig.a->stop();  // the scope outlives stop(): nothing moves
  EXPECT_EQ(root.snapshot().value("lcm.requests"), total);
  EXPECT_EQ(counter_value(rig.a->metrics(), "lcm.requests"),
            std::uint64_t{kRequests});

  rig.a.reset();  // destruction folds the scope into the root
  EXPECT_EQ(root.snapshot().value("lcm.requests"), total);
  rig.b->stop();
}

TEST(MetricsScope, SnapshotsRaceNodeCreationAndDestruction) {
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  std::atomic<bool> done{false};
  std::jthread churn([&] {
    for (int i = 0; i < 20; ++i) {
      auto n = tb.spawn_module("churn-" + std::to_string(i), "m1", "lan");
      EXPECT_TRUE(n.ok());
      if (!n.ok()) break;
      (void)n.value()->commod().locate("churn-0");
      n.value()->stop();
    }  // each node's scope folds into the root as it goes
    done = true;
  });
  // A fold that lost or double-counted a scope's values would show as a
  // counter total moving backwards between two snapshots.
  metrics::Snapshot prev = metrics::MetricsRegistry::instance().snapshot();
  int snapshots = 0;
  while (!done.load()) {
    metrics::Snapshot now = metrics::MetricsRegistry::instance().snapshot();
    for (const auto& [name, v] : prev.values) {
      if (v.kind != metrics::MetricKind::counter) continue;
      EXPECT_GE(now.value(name), v.count) << name;
    }
    prev = std::move(now);
    ++snapshots;
  }
  churn.join();
  EXPECT_GT(snapshots, 0);
}

}  // namespace
}  // namespace ntcs::core
