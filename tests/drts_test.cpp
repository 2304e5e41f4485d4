// Tests for the DRTS services (S11): time service, monitor, process
// control, error log — including the §6.1 recursion scenario.
#include <gtest/gtest.h>

#include "common/health.h"
#include "common/metrics.h"
#include "core/testbed.h"
#include "drts/error_log.h"
#include "drts/monitor.h"
#include "drts/process_control.h"
#include "drts/time_service.h"
#include "scope_counters.h"

namespace ntcs::drts {
namespace {

using namespace std::chrono_literals;
using convert::Arch;
using core::Testbed;

struct Rig {
  Testbed tb;

  Rig() {
    tb.net("lan");
    tb.machine("vax1", Arch::vax780, {"lan"});
    tb.machine("sun1", Arch::sun3, {"lan"});
    tb.machine("apollo1", Arch::apollo_dn330, {"lan"});
    EXPECT_TRUE(tb.start_name_server("vax1", "lan").ok());
    EXPECT_TRUE(tb.finalize().ok());
  }
};

core::NodeConfig service_cfg(Rig& rig, const std::string& machine) {
  return rig.tb.node_config("", machine, "lan");
}

TEST(TimeService, CorrectsClockSkew) {
  Rig rig;
  // sun1's clock is 2 seconds ahead of vax1's.
  rig.tb.fabric().set_clock_offset(rig.tb.machine_id("sun1"), 2s);

  TimeServer server(service_cfg(rig, "sun1"));
  ASSERT_TRUE(server.start().ok());

  auto client_node = rig.tb.spawn_module("clienty", "vax1", "lan").value();
  TimeClient client(*client_node);
  ASSERT_TRUE(client.sync(5).ok());
  // The estimated offset should be close to +2s (RTT is microseconds).
  EXPECT_NEAR(static_cast<double>(client.offset_ns()), 2e9, 5e7);

  const std::int64_t corrected = client.corrected_now_ns();
  const std::int64_t server_now =
      rig.tb.fabric().machine_now(rig.tb.machine_id("sun1")).count();
  EXPECT_NEAR(static_cast<double>(corrected),
              static_cast<double>(server_now), 5e7);
  EXPECT_GT(server.requests_served(), 0u);
  client_node->stop();
}

TEST(TimeService, LazySyncOnFirstUse) {
  Rig rig;
  TimeServer server(service_cfg(rig, "sun1"));
  ASSERT_TRUE(server.start().ok());
  auto node = rig.tb.spawn_module("lazy", "vax1", "lan").value();
  TimeClient client(*node);
  EXPECT_FALSE(client.synced());
  (void)client.corrected_now_ns();
  EXPECT_TRUE(client.synced());
  EXPECT_EQ(client.syncs_performed(), 1u);
  node->stop();
}

TEST(TimeService, SyncFailsWithoutServer) {
  Rig rig;
  auto node = rig.tb.spawn_module("alone", "vax1", "lan").value();
  TimeClient client(*node);
  EXPECT_EQ(client.sync().code(), Errc::not_found);
  node->stop();
}

TEST(Monitor, CollectsSamplesFromHook) {
  Rig rig;
  MonitorServer monitor(service_cfg(rig, "apollo1"));
  ASSERT_TRUE(monitor.start().ok());

  auto sender = rig.tb.spawn_module("sender", "vax1", "lan").value();
  auto sink = rig.tb.spawn_module("sink", "sun1", "lan").value();
  MonitorClient mc(*sender);
  sender->lcm().set_monitor_hook(mc.hook());

  auto dst = sender->commod().locate("sink").value();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(sender->commod().send(dst, to_bytes("payload")).ok());
  }
  // Datagrams are asynchronous; wait for arrival.
  for (int spin = 0; spin < 100 && monitor.sample_count() < 5; ++spin) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(monitor.sample_count(), 5u);
  EXPECT_EQ(monitor.total_bytes(), 5u * 7);  // "payload" is 7 bytes
  EXPECT_EQ(mc.emitted(), 5u);
  auto samples = monitor.samples();
  ASSERT_EQ(samples.size(), 5u);
  EXPECT_EQ(samples[0].src, sender->identity().uadd().raw());
  EXPECT_EQ(samples[0].dst, dst.raw());
  sender->stop();
  sink->stop();
}

TEST(Monitor, MonitoringIsNotMonitored) {
  // §6.1: "time correction and monitoring are disabled here, to avoid the
  // obvious infinite recursion" — NSP and monitor traffic must not
  // generate further samples.
  Rig rig;
  MonitorServer monitor(service_cfg(rig, "apollo1"));
  ASSERT_TRUE(monitor.start().ok());
  auto sender = rig.tb.spawn_module("s2", "vax1", "lan").value();
  auto sink = rig.tb.spawn_module("k2", "sun1", "lan").value();
  MonitorClient mc(*sender);
  sender->lcm().set_monitor_hook(mc.hook());
  auto dst = sender->commod().locate("k2").value();
  ASSERT_TRUE(sender->commod().send(dst, to_bytes("one")).ok());
  std::this_thread::sleep_for(50ms);
  // Exactly one sample despite the recursive monitor dgram and the NSP
  // locate that preceded it.
  EXPECT_EQ(monitor.sample_count(), 1u);
  sender->stop();
  sink->stop();
}

TEST(Monitor, RemoteQuery) {
  Rig rig;
  MonitorServer monitor(service_cfg(rig, "apollo1"));
  ASSERT_TRUE(monitor.start().ok());
  auto sender = rig.tb.spawn_module("s3", "vax1", "lan").value();
  auto sink = rig.tb.spawn_module("k3", "sun1", "lan").value();
  MonitorClient mc(*sender);
  sender->lcm().set_monitor_hook(mc.hook());
  auto dst = sender->commod().locate("k3").value();
  ASSERT_TRUE(sender->commod().send(dst, to_bytes("x")).ok());
  for (int spin = 0; spin < 100 && monitor.sample_count() < 1; ++spin) {
    std::this_thread::sleep_for(10ms);
  }
  auto mon_addr = sender->commod().locate(kMonitorName).value();
  auto summary = query_monitor(*sender, mon_addr);
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary.value().count, 1u);
  sender->stop();
  sink->stop();
}

TEST(Monitor, MetricsQueryOverNtcsMatchesLocalSnapshot) {
  // The per-layer metrics registry is served through the same statistics
  // protocol as the traffic summary: a remote module's query must see the
  // numbers a local snapshot() sees. Compared on the metrics the query
  // itself cannot perturb — its own traffic is internal end to end, so the
  // monitored-send counters hold still between the two captures.
  Rig rig;
  MonitorServer monitor(service_cfg(rig, "apollo1"));
  ASSERT_TRUE(monitor.start().ok());
  auto sender = rig.tb.spawn_module("mq-s", "vax1", "lan").value();
  auto sink = rig.tb.spawn_module("mq-k", "sun1", "lan").value();
  auto dst = sender->commod().locate("mq-k").value();
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(sender->commod().send(dst, to_bytes("counted")).ok());
    ASSERT_TRUE(sink->commod().receive(1s).ok());
  }
  auto mon_addr = sender->commod().locate(kMonitorName).value();

  metrics::Snapshot local = metrics::MetricsRegistry::instance().snapshot();
  auto remote = query_metrics(*sender, mon_addr);
  ASSERT_TRUE(remote.ok());
  for (const char* name :
       {"lcm.sends", "lcm.dgrams", "lcm.requests", "ip.hops_forwarded"}) {
    EXPECT_EQ(remote.value().value(name), local.value(name)) << name;
  }
  EXPECT_GE(remote.value().value("lcm.sends"), 4u);
  // Histograms round-trip through the wire encoding intact.
  const metrics::MetricValue* lh = local.find("ali.recv_wait_ns");
  const metrics::MetricValue* rh = remote.value().find("ali.recv_wait_ns");
  ASSERT_NE(lh, nullptr);
  ASSERT_NE(rh, nullptr);
  EXPECT_EQ(rh->kind, metrics::MetricKind::histogram);
  EXPECT_EQ(rh->count, lh->count);
  EXPECT_EQ(rh->sum, lh->sum);
  EXPECT_EQ(rh->buckets, lh->buckets);
  sender->stop();
  sink->stop();
}

TEST(Monitor, MonitorTrafficNeverIncrementsMonitoredSendMetrics) {
  // §6.1 extended to metrics: the monitor sample datagram (and the NSP
  // locate it may trigger) is internal traffic, counted under
  // lcm.internal_sends — never under the lcm.sends/dgrams the monitor
  // exists to observe. Otherwise observing traffic would create traffic.
  Rig rig;
  MonitorServer monitor(service_cfg(rig, "apollo1"));
  ASSERT_TRUE(monitor.start().ok());
  auto sender = rig.tb.spawn_module("ng-s", "vax1", "lan").value();
  auto sink = rig.tb.spawn_module("ng-k", "sun1", "lan").value();
  MonitorClient mc(*sender);
  sender->lcm().set_monitor_hook(mc.hook());
  auto dst = sender->commod().locate("ng-k").value();

  metrics::Snapshot before = metrics::MetricsRegistry::instance().snapshot();
  ASSERT_TRUE(sender->commod().send(dst, to_bytes("watched")).ok());
  ASSERT_TRUE(sink->commod().receive(1s).ok());
  for (int spin = 0; spin < 100 && mc.emitted() < 1; ++spin) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(mc.emitted(), 1u);
  metrics::Snapshot d =
      metrics::MetricsRegistry::instance().snapshot().delta(before);
  // One app send was observed; the observation itself (a dgram, plus the
  // monitor-locating NSP request) shows up only in the internal counter.
  EXPECT_EQ(d.value("lcm.sends"), 1u);
  EXPECT_EQ(d.value("lcm.dgrams"), 0u);
  EXPECT_EQ(d.value("lcm.requests"), 0u);
  EXPECT_GE(d.value("lcm.internal_sends"), 1u);
  sender->stop();
  sink->stop();
}

TEST(Monitor, PairStatsAggregatePerConversation) {
  Rig rig;
  MonitorServer monitor(service_cfg(rig, "apollo1"));
  ASSERT_TRUE(monitor.start().ok());
  auto sender = rig.tb.spawn_module("ps", "vax1", "lan").value();
  auto sink1 = rig.tb.spawn_module("sink1", "sun1", "lan").value();
  auto sink2 = rig.tb.spawn_module("sink2", "sun1", "lan").value();
  MonitorClient mc(*sender);
  sender->lcm().set_monitor_hook(mc.hook());
  TimeClient tc(*sender);  // timestamps needed for rate projection
  TimeServer ts(service_cfg(rig, "sun1"));
  ASSERT_TRUE(ts.start().ok());
  sender->lcm().set_time_source(tc.source());

  auto d1 = sender->commod().locate("sink1").value();
  auto d2 = sender->commod().locate("sink2").value();
  for (int i = 0; i < 6; ++i) {
    ASSERT_TRUE(sender->commod().send(d1, to_bytes("xx")).ok());
  }
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(sender->commod().send(d2, to_bytes("yyyy")).ok());
  }
  for (int spin = 0; spin < 100 && monitor.sample_count() < 9; ++spin) {
    std::this_thread::sleep_for(10ms);
  }
  auto p1 = monitor.pair(sender->commod().self().raw(), d1.raw());
  ASSERT_TRUE(p1.has_value());
  EXPECT_EQ(p1->count, 6u);
  EXPECT_EQ(p1->bytes, 12u);
  EXPECT_GT(p1->rate_per_sec(), 0.0);  // projection from timestamps
  auto p2 = monitor.pair(sender->commod().self().raw(), d2.raw());
  ASSERT_TRUE(p2.has_value());
  EXPECT_EQ(p2->count, 3u);
  EXPECT_EQ(p2->bytes, 12u);
  EXPECT_EQ(monitor.pair_stats().size(), 2u);
  // The report names both conversations.
  const std::string report = monitor.report();
  EXPECT_NE(report.find("U#"), std::string::npos);
  sender->stop();
  sink1->stop();
  sink2->stop();
}

TEST(ErrorLog, LcmFaultsReportedAutomatically) {
  // §6.3: the running table of errors, fed by the LCM address-fault
  // handler through the error hook — no manual report() calls.
  Rig rig;
  ErrorLogServer log(service_cfg(rig, "apollo1"));
  ASSERT_TRUE(log.start().ok());
  auto client = rig.tb.spawn_module("hooked", "vax1", "lan").value();
  auto victim = rig.tb.spawn_module("victim", "sun1", "lan").value();
  ErrorLogClient elc(*client);
  client->lcm().set_error_hook(elc.hook());

  auto addr = client->commod().locate("victim").value();
  ASSERT_TRUE(client->commod().send(addr, to_bytes("warm")).ok());
  ASSERT_TRUE(victim->commod().receive(1s).ok());
  victim->stop();  // now every send faults
  (void)client->commod().send(addr, to_bytes("into the void"));

  for (int spin = 0; spin < 100 && log.total() == 0; ++spin) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GE(log.count_for("hooked"), 1u);
  auto table = log.table();
  bool lcm_fault = false;
  for (const auto& [key, n] : table) {
    if (key.module == "hooked" && key.layer == "lcm") lcm_fault = true;
  }
  EXPECT_TRUE(lcm_fault);
  client->stop();
}

TEST(Recursion, FirstMonitoredSendTriggersNestedCalls) {
  // The full §6.1 scenario: monitoring + time correction enabled, first
  // send to a new destination. The send must (1) lazily sync time — which
  // locates the time service and runs request/reply exchanges — and
  // (2) emit a monitor sample — which locates the monitor — all
  // recursively through the same stack, all before/after the actual send.
  Rig rig;
  TimeServer time_server(service_cfg(rig, "sun1"));
  ASSERT_TRUE(time_server.start().ok());
  MonitorServer monitor(service_cfg(rig, "apollo1"));
  ASSERT_TRUE(monitor.start().ok());

  auto app = rig.tb.spawn_module("app", "vax1", "lan").value();
  auto dest = rig.tb.spawn_module("dest", "sun1", "lan").value();
  TimeClient tc(*app);
  MonitorClient mc(*app);
  app->lcm().set_time_source(tc.source());
  app->lcm().set_monitor_hook(mc.hook());

  auto dst = app->commod().locate("dest").value();
  ASSERT_TRUE(app->commod().send(dst, to_bytes("the send")).ok());

  EXPECT_TRUE(tc.synced());  // the time correction happened en route
  for (int spin = 0; spin < 100 && monitor.sample_count() < 1; ++spin) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(monitor.sample_count(), 1u);
  EXPECT_GT(time_server.requests_served(), 0u);
  // No recursion-limit trips: the guard exists, the depth stays bounded.
  EXPECT_EQ(counter_value(app->metrics(), "lcm.recursion_trips"), 0u);
  // The sample's timestamp is in the *time server's* frame.
  auto samples = monitor.samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_NE(samples[0].timestamp_ns, 0);
  app->stop();
  dest->stop();
}

TEST(ProcessControl, SpawnKillLifecycle) {
  Rig rig;
  ProcessController pc(rig.tb);
  auto uadd = pc.spawn("echoer", "sun1", "lan", {}, make_echo_service());
  ASSERT_TRUE(uadd.ok());
  EXPECT_EQ(pc.module_count(), 1u);
  EXPECT_NE(pc.find("echoer"), nullptr);

  auto client = rig.tb.spawn_module("cli", "vax1", "lan").value();
  auto reply = client->commod().request(uadd.value(), to_bytes("hi"), 2s);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(reply.value().payload), "echo:hi");

  ASSERT_TRUE(pc.kill("echoer").ok());
  EXPECT_EQ(pc.module_count(), 0u);
  EXPECT_EQ(pc.kill("echoer").code(), Errc::not_found);
  client->stop();
}

TEST(ProcessControl, DuplicateSpawnRejected) {
  Rig rig;
  ProcessController pc(rig.tb);
  ASSERT_TRUE(pc.spawn("solo", "sun1", "lan", {}, make_echo_service()).ok());
  EXPECT_EQ(
      pc.spawn("solo", "vax1", "lan", {}, make_echo_service()).code(),
      Errc::already_exists);
}

TEST(ProcessControl, RelocationIsTransparentToClients) {
  // The headline URSA requirement: move a server to another machine while
  // a client keeps talking to the UAdd it resolved once.
  Rig rig;
  ProcessController pc(rig.tb);
  auto orig = pc.spawn("svc", "sun1", "lan", {}, make_echo_service());
  ASSERT_TRUE(orig.ok());

  auto client = rig.tb.spawn_module("c", "vax1", "lan").value();
  auto addr = client->commod().locate("svc").value();
  ASSERT_TRUE(client->commod().request(addr, to_bytes("one"), 2s).ok());

  auto relocated = pc.relocate("svc", "apollo1", "lan");
  ASSERT_TRUE(relocated.ok());
  EXPECT_NE(relocated.value(), orig.value());

  // Same old UAdd; the LCM address-fault handler re-resolves under the
  // hood (§3.5).
  auto reply = client->commod().request(addr, to_bytes("two"), 2s);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(reply.value().payload), "echo:two");
  EXPECT_GE(counter_value(client->metrics(), "lcm.relocations"), 1u);
  // And the relocated module really is on the other machine.
  auto* be = dynamic_cast<simnet::SimnetBackend*>(
      &pc.find("svc")->backend());
  ASSERT_NE(be, nullptr);
  EXPECT_EQ(be->machine(), rig.tb.machine_id("apollo1"));
  client->stop();
}

TEST(ProcessControl, RelocationPreservesArchSensitivity) {
  // Relocating from a Sun (big-endian) to a VAX (little-endian) must flip
  // the conversion mode chosen for subsequent traffic.
  Rig rig;
  ProcessController pc(rig.tb);
  ASSERT_TRUE(pc.spawn("svc2", "apollo1", "lan", {}, make_echo_service()).ok());
  auto client = rig.tb.spawn_module("c2", "sun1", "lan").value();  // big
  auto addr = client->commod().locate("svc2").value();
  ASSERT_TRUE(client->commod().request(addr, to_bytes("a"), 2s).ok());
  ASSERT_TRUE(pc.relocate("svc2", "vax1", "lan").ok());  // now little
  auto reply = client->commod().request(addr, to_bytes("b"), 2s);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(reply.value().payload), "echo:b");
  client->stop();
}

TEST(ProcessControl, FailedRelocationLeavesServiceRunning) {
  // The replacement is started before the original is killed: a
  // relocation that cannot place the module must not take it down.
  Rig rig;
  ProcessController pc(rig.tb);
  auto orig = pc.spawn("svc", "sun1", "lan", {}, make_echo_service());
  ASSERT_TRUE(orig.ok());
  auto client = rig.tb.spawn_module("c", "vax1", "lan").value();
  auto addr = client->commod().locate("svc").value();

  EXPECT_FALSE(pc.relocate("svc", "no-such-machine", "lan").ok());
  EXPECT_NE(pc.find("svc"), nullptr);
  EXPECT_EQ(pc.module_count(), 1u);
  auto reply = client->commod().request(addr, to_bytes("still"), 2s);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(to_string(reply.value().payload), "echo:still");
  EXPECT_EQ(client->commod().locate("svc").value(), orig.value());
  client->stop();
}

TEST(ProcessControl, RelocationRegistersTheSuccessorBeforeStoppingTheOriginal) {
  // Make before break: by the time the original's service returns, the
  // naming service already holds its successor, so a forwarding query
  // never lands in a window where the name has no live module.
  Rig rig;
  ProcessController pc(rig.tb);
  std::atomic<int> incarnation{0};
  std::atomic<std::size_t> records_at_stop{0};
  ASSERT_TRUE(pc.spawn("svc", "sun1", "lan", {},
                       [&](core::Node& node, std::stop_token st) {
                         const bool original = incarnation.fetch_add(1) == 0;
                         make_echo_service()(node, std::move(st));
                         if (original) {
                           records_at_stop.store(
                               rig.tb.name_server().record_count());
                         }
                       })
                  .ok());
  const std::size_t before = rig.tb.name_server().record_count();
  ASSERT_TRUE(pc.relocate("svc", "apollo1", "lan").ok());
  EXPECT_EQ(records_at_stop.load(), before + 1);
}

TEST(ProcessControl, RelocatedModulesPumpStaysWatched) {
  // The replacement's pump starts before the original stops, and both
  // beat the same `pump.<name>` heartbeat: the original's clean stop must
  // not leave the new pump unwatched.
  Rig rig;
  ProcessController pc(rig.tb);
  ASSERT_TRUE(pc.spawn("svc", "sun1", "lan", {}, make_echo_service()).ok());
  ASSERT_TRUE(pc.relocate("svc", "apollo1", "lan").ok());
  std::this_thread::sleep_for(200ms);  // a few pump iterations
  const auto rep = health::HealthRegistry::instance().check_now();
  for (const char* name : {"pump.svc", "serve.svc"}) {
    const auto* l = rep.find(name);
    ASSERT_NE(l, nullptr) << name << " is not watched: " << rep.to_string();
    EXPECT_EQ(l->state, health::HealthState::ok) << l->evidence;
  }
}

TEST(ErrorLog, AccumulatesReports) {
  Rig rig;
  ErrorLogServer log(service_cfg(rig, "apollo1"));
  ASSERT_TRUE(log.start().ok());
  auto node = rig.tb.spawn_module("reporter", "vax1", "lan").value();
  ErrorLogClient client(*node);
  client.report("lcm", Errc::address_fault, "circuit died");
  client.report("lcm", Errc::address_fault, "again");
  client.report("nd", Errc::timeout, "open ack late");
  for (int spin = 0; spin < 100 && log.total() < 3; ++spin) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(log.total(), 3u);
  EXPECT_EQ(log.count_for("reporter"), 3u);
  auto table = log.table();
  ErrorKey key{"reporter", "lcm", Errc::address_fault};
  EXPECT_EQ(table[key], 2u);
  node->stop();
}

TEST(ErrorLog, ReportWithoutServerIsSilent) {
  Rig rig;
  auto node = rig.tb.spawn_module("quiet", "vax1", "lan").value();
  ErrorLogClient client(*node);
  client.report("nd", Errc::timeout, "nobody listens");
  EXPECT_EQ(client.reported(), 0u);
  node->stop();
}

}  // namespace
}  // namespace ntcs::drts
