// Live-health-plane tests (ctest label `health`): gauges and histogram
// maxima in the metrics registry, the flight-recorder journal ring, the
// watchdog's stall / wedged-window / queue-near-bound / storm classifiers
// (each seeded deliberately and checked for the right HealthReport and
// journal events), the zero-false-positive property on a clean pipelined
// chaos run, and the end-to-end harvest: query_health / query_journal over
// the NTCS itself, including the truncated flag.
#include <gtest/gtest.h>

#include <cstdlib>
#include <set>
#include <thread>

#include "common/health.h"
#include "common/metrics.h"
#include "common/trace.h"
#include "core/testbed.h"
#include "drts/monitor.h"

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

// --------------------------------------------------------- gauges and maxima

TEST(HealthGauge, SetAddSubAndPeak) {
  metrics::Gauge g;
  EXPECT_EQ(g.value(), 0);
  EXPECT_EQ(g.peak(), 0);
  g.set(10);
  g.add(5);
  g.sub(3);
  EXPECT_EQ(g.value(), 12);
  EXPECT_EQ(g.peak(), 15);  // the transient 15 survives the sub
  g.set(2);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.peak(), 15);  // peaks never move down
}

TEST(HealthGauge, RegistrySnapshotAndRendering) {
  metrics::MetricsRegistry reg;
  reg.gauge("t.depth").set(7);
  reg.gauge("t.depth").add(2);
  reg.counter("t.events").inc(3);

  const auto snap = reg.snapshot();
  const auto* v = snap.find("t.depth");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->kind, metrics::MetricKind::gauge);
  EXPECT_EQ(v->gauge, 9);
  EXPECT_EQ(v->gauge_peak, 9);
  EXPECT_EQ(snap.gauge_value("t.depth"), 9);
  EXPECT_EQ(snap.gauge_value("t.missing"), 0);

  // Gauges are levels: a delta passes them through unchanged.
  const auto d = snap.delta(snap);
  EXPECT_EQ(d.gauge_value("t.depth"), 9);

  const std::string json = snap.to_json();
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"t.depth\""), std::string::npos);
  EXPECT_NE(json.find("\"peak\""), std::string::npos);
  const std::string prom = snap.to_prometheus();
  EXPECT_NE(prom.find("ntcs_t_depth 9"), std::string::npos);
  EXPECT_NE(prom.find("ntcs_t_depth_peak 9"), std::string::npos);
}

TEST(HealthHistogram, TracksExactMaximum) {
  metrics::MetricsRegistry reg;
  auto& h = reg.histogram("t.lat_ns");
  h.record(std::uint64_t{100});
  h.record(std::uint64_t{5'000'000'000});  // the outlier p99 would hide
  h.record(std::uint64_t{200});
  EXPECT_EQ(h.max(), 5'000'000'000u);

  const auto snap = reg.snapshot();
  const auto* v = snap.find("t.lat_ns");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->max, 5'000'000'000u);
  EXPECT_NE(snap.to_json().find("\"max_ns\": 5000000000"), std::string::npos);
}

// ------------------------------------------------------- the flight recorder

TEST(HealthJournal, RecordSnapshotOverwriteAndClear) {
  health::Journal j(8);
  for (std::uint64_t i = 0; i < 8; ++i) {
    j.record(health::EventKind::shed, "lcm", "shed_data", i, 100 + i, 0, 0);
  }
  EXPECT_EQ(j.dropped(), 0u);
  auto events = j.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);  // ticket order
  }

  // Wrap: the four oldest are overwritten and counted.
  for (std::uint64_t i = 8; i < 12; ++i) {
    j.record(health::EventKind::retry, "nd", "open_retry", i, 0, 0, 0);
  }
  EXPECT_EQ(j.dropped(), 4u);
  events = j.snapshot();
  ASSERT_EQ(events.size(), 8u);
  EXPECT_EQ(events.front().a, 4u);  // events 0..3 lost
  EXPECT_EQ(events.back().kind, health::EventKind::retry);
  EXPECT_EQ(events.back().layer, "nd");
  EXPECT_EQ(events.back().what, "open_retry");

  // Over-long names truncate into the fixed slot fields, no overflow.
  j.record(health::EventKind::transition, "a-layer-name-well-past-twelve",
           "a-what-string-well-past-sixteen", 0, 0, 0, 0);
  events = j.snapshot();
  EXPECT_LE(events.back().layer.size(), 12u);
  EXPECT_LE(events.back().what.size(), 16u);
  EXPECT_EQ(events.back().layer,
            std::string("a-layer-name-well-past-twelve")
                .substr(0, events.back().layer.size()));

  j.clear();
  EXPECT_TRUE(j.snapshot().empty());
  // Clearing forgets events, not drops: the counter is cumulative.
  EXPECT_EQ(j.dropped(), 5u);
}

TEST(HealthJournal, NotesCarryTheActiveTraceContext) {
  health::journal_clear();
  trace::clear_spans();
  trace::set_sampling(trace::SampleMode::always);
  trace::TraceContext seen;
  {
    trace::RootSpan root("ali", "request", "n");
    seen = trace::current();
    ASSERT_TRUE(seen.valid());
    health::journal_note(health::EventKind::failover, "lcm", "addr_fault", 1);
  }
  trace::set_sampling(trace::SampleMode::off);
  health::journal_note(health::EventKind::busy, "lcm", "busy_recv");

  const auto events = health::journal_snapshot();
  ASSERT_GE(events.size(), 2u);
  const auto& traced = events[events.size() - 2];
  EXPECT_EQ(traced.what, "addr_fault");
  EXPECT_EQ(traced.trace_hi, seen.hi);  // correlated with the live trace
  EXPECT_EQ(traced.trace_lo, seen.lo);
  EXPECT_EQ(events.back().trace_hi, 0u);  // untraced note stays zero
}

// ------------------------------------------------------------- the watchdog

TEST(HealthWatchdog, SeededStallIsDetectedAndRecovers) {
  health::journal_clear();
  health::HealthRegistry reg;
  health::Heartbeat& hb = reg.heartbeat("test.pump", 100ms);
  hb.beat();

  auto rep = reg.check_now();
  const auto* l = rep.find("test.pump");
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->state, health::HealthState::ok);

  // Park the "loop": past stall_after with no beat, the layer is stalled
  // within one sample, with evidence naming the silence.
  std::this_thread::sleep_for(300ms);
  rep = reg.check_now();
  l = rep.find("test.pump");
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->state, health::HealthState::stalled);
  EXPECT_NE(l->evidence.find("no heartbeat"), std::string::npos);
  EXPECT_EQ(rep.overall, health::HealthState::stalled);
  EXPECT_NE(rep.to_string().find("test.pump"), std::string::npos);

  // The transition was journaled (ok->stalled), trace-correlated or not.
  bool journaled = false;
  for (const auto& e : health::journal_snapshot()) {
    if (e.kind == health::EventKind::health && e.layer == "test.pump" &&
        e.what == "ok->stalled") {
      journaled = true;
    }
  }
  EXPECT_TRUE(journaled);

  // A beat recovers it; retiring removes it from the report entirely.
  hb.beat();
  rep = reg.check_now();
  EXPECT_EQ(rep.find("test.pump")->state, health::HealthState::ok);
  hb.retire();
  rep = reg.check_now();
  EXPECT_EQ(rep.find("test.pump"), nullptr);
}

TEST(HealthWatchdog, WedgedWindowBeaconIsStalled) {
  health::HealthRegistry reg;
  health::Beacon& bc = reg.beacon("test.window");

  // A future deadline is healthy: waiters are parked but not yet due.
  bc.set(trace::now_ns() + std::chrono::nanoseconds(10s).count());
  auto rep = reg.check_now();
  ASSERT_NE(rep.find("test.window"), nullptr);
  EXPECT_EQ(rep.find("test.window")->state, health::HealthState::ok);

  // A deadline stuck in the past (beyond grace) is a wedge: the sweep that
  // should have granted or timed the waiter out never ran.
  bc.set(trace::now_ns() - std::chrono::nanoseconds(1s).count());
  rep = reg.check_now();
  const auto* l = rep.find("test.window");
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->state, health::HealthState::stalled);
  EXPECT_NE(l->evidence.find("wedged"), std::string::npos);

  bc.clear();
  rep = reg.check_now();
  EXPECT_EQ(rep.find("test.window"), nullptr);  // cleared beacons drop out
}

TEST(HealthWatchdog, QueueNearBoundIsDegraded) {
  health::journal_clear();
  health::HealthRegistry reg;
  // Gauge pairs live in the process metrics registry (check_now snapshots
  // it); unique names keep this test's pair out of other suites' way.
  metrics::Gauge& depth = metrics::gauge("test.hq.depth");
  metrics::Gauge& bound = metrics::gauge("test.hq.bound");
  bound.set(100);
  depth.set(50);
  auto rep = reg.check_now();
  EXPECT_EQ(rep.find("test.hq"), nullptr);  // half full: not reported

  depth.set(95);  // >= 90% of bound
  rep = reg.check_now();
  const auto* l = rep.find("test.hq");
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->state, health::HealthState::degraded);
  EXPECT_NE(l->evidence.find("queue at 95/100"), std::string::npos);
  EXPECT_EQ(rep.overall, health::HealthState::degraded);
  bool journaled = false;
  for (const auto& e : health::journal_snapshot()) {
    if (e.kind == health::EventKind::health && e.layer == "test.hq") {
      journaled = true;
    }
  }
  EXPECT_TRUE(journaled);

  // A depth gauge with no .bound sibling (lcm.window.in_flight,
  // nsp.lease_cache.size) can never trip the rule.
  metrics::gauge("test.unbounded.depth").set(1'000'000);
  depth.set(0);  // drain — and leave the registry clean for later suites
  rep = reg.check_now();
  EXPECT_EQ(rep.find("test.hq"), nullptr);
  EXPECT_EQ(rep.find("test.unbounded"), nullptr);
  EXPECT_EQ(rep.overall, health::HealthState::ok);
}

TEST(HealthWatchdog, CounterStormIsDegradedForOnePeriod) {
  health::HealthRegistry reg;
  metrics::Counter& c = metrics::counter("test.storm.events");
  reg.watch_rate("test.storm.events", "test.storm", 10);

  (void)reg.check_now();  // primes the watch; no verdict yet
  c.inc(50);
  auto rep = reg.check_now();
  const auto* l = rep.find("test.storm");
  ASSERT_NE(l, nullptr);
  EXPECT_EQ(l->state, health::HealthState::degraded);
  EXPECT_NE(l->evidence.find("test.storm.events"), std::string::npos);

  // No further movement: the storm clears at the next sample.
  rep = reg.check_now();
  EXPECT_EQ(rep.find("test.storm"), nullptr);
  c.inc(3);  // below threshold: still quiet
  rep = reg.check_now();
  EXPECT_EQ(rep.find("test.storm"), nullptr);
}

TEST(HealthWatchdog, BackgroundThreadSamplesAndStops) {
  health::HealthRegistry reg;
  health::Heartbeat& hb = reg.heartbeat("test.bg", 10s);
  hb.beat();
  health::WatchdogConfig cfg;
  cfg.period = 20ms;
  reg.start_watchdog(cfg);
  EXPECT_TRUE(reg.watchdog_running());
  std::this_thread::sleep_for(100ms);
  const auto rep = reg.latest();
  EXPECT_NE(rep.ts_ns, 0);  // the thread sampled
  ASSERT_NE(rep.find("test.bg"), nullptr);
  EXPECT_EQ(rep.find("test.bg")->state, health::HealthState::ok);
  reg.stop_watchdog();
  EXPECT_FALSE(reg.watchdog_running());
  reg.stop_watchdog();  // idempotent
}

// ------------------------------------------------- clean run: no false alarms

TEST(HealthWatchdog, CleanPipelinedChaosRunStaysOk) {
  // The zero-false-positive property: a healthy rig under pipelined load
  // and recoverable faults must never read degraded or stalled. The
  // watchdog samples concurrently with the run at a tight period.
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

  health::HealthRegistry reg;  // local: this test owns its verdicts
  health::WatchdogConfig cfg;
  cfg.period = 25ms;
  reg.start_watchdog(cfg);

  std::jthread echo([&b](std::stop_token st) {
    while (!st.stop_requested()) {
      auto in = b->commod().receive(50ms);
      if (in.ok() && in.value().is_request) {
        (void)b->commod().reply(in.value().reply_ctx, in.value().payload);
      }
    }
  });
  auto addr = a->commod().locate("b");
  ASSERT_TRUE(addr.ok());

  simnet::FaultPlan plan;
  plan.dup_prob = 0.03;
  plan.reorder_prob = 0.03;
  plan.reorder_window = 200us;
  tb.fabric().set_fault_plan(tb.fabric().network_by_name("lan-b").value(),
                             plan);

  int delivered = 0;
  for (int batch = 0; batch < 4; ++batch) {
    std::vector<Result<RequestTicket>> tickets;
    for (int i = 0; i < 8; ++i) {
      tickets.push_back(
          a->commod().request_async(addr.value(), to_bytes("req"), 3s));
    }
    for (auto& t : tickets) {
      if (t.ok() && a->commod().await(t.value()).ok()) ++delivered;
    }
  }
  tb.fabric().clear_faults();
  ASSERT_GT(delivered, 0);

  const auto rep = reg.check_now();
  EXPECT_EQ(rep.overall, health::HealthState::ok) << rep.to_string();
  for (const auto& l : rep.layers) {
    EXPECT_EQ(l.state, health::HealthState::ok)
        << l.name << ": " << l.evidence;
  }
  reg.stop_watchdog();

  echo.request_stop();
  a->stop();
  b->stop();
}

// ------------------------------------------------- the recursive harvest path

TEST(HealthHarvest, QueryHealthAndJournalOverTheNtcs) {
  Testbed tb(fabric_seed());
  tb.net("lan-a");
  tb.machine("m1", Arch::vax780, {"lan-a"});
  tb.machine("m-mon", Arch::pdp11_70, {"lan-a"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan-a").ok());
  ASSERT_TRUE(tb.finalize().ok());

  drts::MonitorServer monitor(tb.node_config("", "m-mon", "lan-a"));
  ASSERT_TRUE(monitor.start().ok());
  auto a = tb.spawn_module("a", "m1", "lan-a").value();
  auto mon_addr = a->commod().locate(drts::kMonitorName);
  ASSERT_TRUE(mon_addr.ok());

  // Seed a stall in the process registry: a heartbeat that never beats
  // after registration (registration primes the watchdog's epoch sample).
  // No watchdog thread runs, so the monitor must take a fresh sample —
  // the induced stall is visible within one stall_after window.
  health::Heartbeat& hb = health::heartbeat("test.harvest.loop", 100ms);
  std::this_thread::sleep_for(300ms);

  bool truncated = true;
  auto rep = drts::query_health(*a, mon_addr.value(), &truncated);
  ASSERT_TRUE(rep.ok());
  EXPECT_FALSE(truncated);  // health replies are never clipped
  EXPECT_NE(rep.value().ts_ns, 0);
  const auto* l = rep.value().find("test.harvest.loop");
  ASSERT_NE(l, nullptr) << rep.value().to_string();
  EXPECT_EQ(l->state, health::HealthState::stalled);
  EXPECT_NE(l->evidence.find("no heartbeat"), std::string::npos);
  // The serve loop itself heartbeats and reads healthy in the same report.
  const auto* mon_l = rep.value().find("serve.monitor");
  ASSERT_NE(mon_l, nullptr);
  EXPECT_EQ(mon_l->state, health::HealthState::ok);
  hb.retire();

  // Journal harvest: node lifecycle transitions recorded by the testbed
  // modules come back over the wire, fields intact.
  auto events = drts::query_journal(*a, mon_addr.value());
  ASSERT_TRUE(events.ok());
  ASSERT_FALSE(events.value().empty());
  bool saw_start = false;
  for (const auto& e : events.value()) {
    if (e.kind == health::EventKind::transition && e.layer == "node" &&
        e.what == "start") {
      saw_start = true;
    }
  }
  EXPECT_TRUE(saw_start);
  for (std::size_t i = 1; i < events.value().size(); ++i) {
    EXPECT_LT(events.value()[i - 1].seq, events.value()[i].seq);
  }

  // Forced truncation: a cap of 1 clips to the single newest event and
  // raises the flag the fleet merge surfaces.
  truncated = false;
  auto one = drts::query_journal(*a, mon_addr.value(), 1, &truncated);
  ASSERT_TRUE(one.ok());
  ASSERT_EQ(one.value().size(), 1u);
  EXPECT_TRUE(truncated);
  EXPECT_EQ(one.value().front().seq, events.value().back().seq);

  // Metrics over the same path: gauges round-trip with kind, level, peak
  // and histogram max intact (the wire grew those fields with the plane).
  metrics::gauge("test.harvest.depth").set(41);
  bool m_trunc = true;
  auto snap = drts::query_metrics(*a, mon_addr.value(), &m_trunc);
  ASSERT_TRUE(snap.ok());
  EXPECT_FALSE(m_trunc);
  const auto* v = snap.value().find("test.harvest.depth");
  ASSERT_NE(v, nullptr);
  EXPECT_EQ(v->kind, metrics::MetricKind::gauge);
  EXPECT_EQ(v->gauge, 41);
  EXPECT_GE(v->gauge_peak, 41);
  metrics::gauge("test.harvest.depth").set(0);

  a->stop();
  monitor.stop();
}

}  // namespace
}  // namespace ntcs::core
