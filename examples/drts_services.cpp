// drts_services — the distributed run-time support layer in action
// (paper §1.2, §6.1) plus the §7 replication extension.
//
// Brings up: Name Server + replica, time service, monitor, error log.
// Shows: (1) the §6.1 recursion scenario — a first monitored+timed send
// triggers nested NTCS traffic; (2) clock-skew correction; (3) monitor
// aggregation; (4) transparent naming-service failover when the primary
// Name Server dies.
//
// Build & run:  ./examples/drts_services
#include <cstdio>
#include <thread>

#include "core/testbed.h"
#include "drts/error_log.h"
#include "drts/monitor.h"
#include "drts/time_service.h"

using namespace std::chrono_literals;
using ntcs::convert::Arch;

int main() {
  ntcs::core::Testbed tb;
  tb.net("lan");
  tb.machine("vax1", Arch::vax780, {"lan"});
  tb.machine("sun1", Arch::sun3, {"lan"});
  tb.machine("apollo1", Arch::apollo_dn330, {"lan"});
  // sun1's clock runs 3 seconds ahead — the time service will hide this.
  if (!tb.start_name_server("vax1", "lan").ok()) return 1;
  if (!tb.add_name_server_replica("apollo1", "lan").ok()) return 1;
  if (!tb.finalize().ok()) return 1;
  tb.fabric().set_clock_offset(tb.machine_id("sun1"), 3s);

  ntcs::drts::TimeServer time_server(tb.node_config("", "sun1", "lan"));
  if (!time_server.start().ok()) return 1;
  ntcs::drts::MonitorServer monitor(tb.node_config("", "sun1", "lan"));
  if (!monitor.start().ok()) return 1;
  ntcs::drts::ErrorLogServer errlog(tb.node_config("", "apollo1", "lan"));
  if (!errlog.start().ok()) return 1;
  std::printf("DRTS up: time-service, monitor, error-log (+ NS replica)\n");

  auto app = tb.spawn_module("app", "vax1", "lan").value();
  auto sink = tb.spawn_module("sink", "sun1", "lan").value();
  ntcs::drts::TimeClient tc(*app);
  ntcs::drts::MonitorClient mc(*app);
  app->lcm().set_time_source(tc.source());
  app->lcm().set_monitor_hook(mc.hook());

  // The §6.1 walkthrough: the first send locates + syncs the time service,
  // locates the monitor, and establishes every circuit — recursively.
  auto dst = app->commod().locate("sink").value();
  (void)app->commod().send(dst, ntcs::to_bytes("first monitored send"));
  std::printf("first send done: time synced=%s (offset %+.3f s), "
              "nested NSP queries so far: %llu\n",
              tc.synced() ? "yes" : "no",
              static_cast<double>(tc.offset_ns()) / 1e9,
              static_cast<unsigned long long>(
                  app->metrics().snapshot().value("nsp.queries")));

  for (int i = 0; i < 9; ++i) {
    (void)app->commod().send(dst, ntcs::to_bytes("steady"));
  }
  for (int spin = 0; spin < 100 && monitor.sample_count() < 10; ++spin) {
    std::this_thread::sleep_for(10ms);
  }
  std::printf("monitor collected %llu samples, %llu payload bytes\n",
              static_cast<unsigned long long>(monitor.sample_count()),
              static_cast<unsigned long long>(monitor.total_bytes()));

  // Error log: report a synthetic exception table entry.
  ntcs::drts::ErrorLogClient elc(*app);
  elc.report("lcm", ntcs::Errc::address_fault, "synthetic demo fault");
  std::this_thread::sleep_for(50ms);
  std::printf("error-log running table holds %llu entr(ies)\n",
              static_cast<unsigned long long>(errlog.total()));

  // Replication failover: kill the primary; resolution keeps working.
  tb.name_server().stop();
  auto again = app->commod().locate("sink");
  std::printf("primary name server killed; locate(\"sink\") via replica: %s\n",
              again.ok() ? "OK" : again.error().to_string().c_str());

  app->stop();
  sink->stop();
  std::printf("drts_services OK\n");
  return 0;
}
