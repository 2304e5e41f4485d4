// The grand integration test: EVERYTHING at once — the deployment shape of
// the paper's §7 "three generations" systems. Three networks, two chained
// gateways, a replicated Name Server, all four DRTS services, the URSA
// application, heterogeneous machines with skewed clocks, monitoring and
// time correction enabled on the host — then dynamic reconfiguration and a
// primary Name-Server failure, with the application still answering.
#include <gtest/gtest.h>

#include <thread>

#include "core/testbed.h"
#include "drts/error_log.h"
#include "drts/file_service.h"
#include "drts/monitor.h"
#include "drts/process_control.h"
#include "drts/time_service.h"
#include "ursa/query.h"
#include "ursa/servers.h"
#include "scope_counters.h"

namespace ntcs::core {
namespace {

using namespace std::chrono_literals;
using convert::Arch;

TEST(GrandIntegration, FullSystemEndToEnd) {
  // --- environment: 3 networks in a chain, 6 machines, skewed clocks ----
  Testbed tb(20260707);
  tb.net("office");
  tb.net("backbone");
  tb.net("backend");
  tb.machine("vax-host", Arch::vax780, {"office"});
  tb.machine("gw1", Arch::apollo_dn330, {"office", "backbone"});
  tb.machine("mv-mid", Arch::microvax, {"backbone"});
  tb.machine("gw2", Arch::apollo_dn330, {"backbone", "backend"});
  tb.machine("sun-be", Arch::sun3, {"backend"});
  tb.machine("pdp-be", Arch::pdp11_70, {"backend"});
  ASSERT_TRUE(tb.start_name_server("mv-mid", "backbone").ok());
  ASSERT_TRUE(tb.add_gateway("gw-ob", "gw1", {"office", "backbone"}).ok());
  ASSERT_TRUE(tb.add_gateway("gw-bb", "gw2", {"backbone", "backend"}).ok());
  ASSERT_TRUE(tb.add_name_server_replica("sun-be", "backend").ok());
  ASSERT_TRUE(tb.finalize().ok());
  tb.fabric().set_clock_offset(tb.machine_id("sun-be"), 2s);

  // --- DRTS: time, monitor, error log, file service ----------------------
  ntcs::drts::TimeServer time_server(tb.node_config("", "sun-be", "backend"));
  ASSERT_TRUE(time_server.start().ok());
  ntcs::drts::MonitorServer monitor(tb.node_config("", "mv-mid", "backbone"));
  ASSERT_TRUE(monitor.start().ok());
  ntcs::drts::ErrorLogServer errlog(tb.node_config("", "mv-mid", "backbone"));
  ASSERT_TRUE(errlog.start().ok());
  ntcs::drts::FileServer files(tb.node_config("", "sun-be", "backend"));
  ASSERT_TRUE(files.start().ok());

  // --- the application: URSA backends on the backend network -------------
  ntcs::drts::ProcessController pc(tb);
  ursa::UrsaPlacement placement;
  placement.index_machine = "sun-be";
  placement.index_net = "backend";
  placement.doc_machine = "pdp-be";
  placement.doc_net = "backend";
  placement.search_machine = "pdp-be";
  placement.search_net = "backend";
  auto corpus = ursa::spawn_ursa(pc, placement, 150, 5);
  ASSERT_TRUE(corpus.ok());

  // --- the host workstation, fully instrumented --------------------------
  auto host = tb.spawn_module("workstation", "vax-host", "office").value();
  ntcs::drts::TimeClient tc(*host);
  ntcs::drts::MonitorClient mc(*host);
  ntcs::drts::ErrorLogClient elc(*host);
  host->lcm().set_time_source(tc.source());
  host->lcm().set_monitor_hook(mc.hook());
  host->lcm().set_error_hook(elc.hook());

  ursa::UrsaHost ursa_host(*host);
  ASSERT_TRUE(ursa_host.connect().ok());

  // --- phase 1: normal operation across two gateways ---------------------
  const std::string q1 = corpus.value()->vocabulary()[0] + " or " +
                         corpus.value()->vocabulary()[7];
  auto hits = ursa_host.search(q1, 5);
  ASSERT_TRUE(hits.ok());
  ASSERT_FALSE(hits.value().empty());
  auto doc = ursa_host.fetch(hits.value()[0].doc);
  ASSERT_TRUE(doc.ok());
  // Archive the top document on the (cross-network) file service.
  ntcs::drts::FileClient fc(*host);
  ASSERT_TRUE(fc.connect().ok());
  ASSERT_TRUE(fc.write("/archive/top", to_bytes(doc.value().text)).ok());
  EXPECT_EQ(to_string(fc.read("/archive/top").value()), doc.value().text);

  // The time correction really ran (the clock skew is hidden).
  EXPECT_TRUE(tc.synced());
  EXPECT_NEAR(static_cast<double>(tc.offset_ns()), 2e9, 1e8);

  // --- phase 2: dynamic reconfiguration mid-session -----------------------
  ASSERT_TRUE(pc.relocate(std::string(ursa::kIndexServerName), "pdp-be",
                          "backend")
                  .ok());
  auto hits2 = ursa_host.search(q1, 5);
  ASSERT_TRUE(hits2.ok());
  EXPECT_EQ(hits.value(), hits2.value());  // identical answers after the move

  // --- phase 3: primary Name-Server death ---------------------------------
  for (int spin = 0; spin < 400 && tb.replica(0).record_count() < 8; ++spin) {
    std::this_thread::sleep_for(5ms);
  }
  tb.name_server().stop();
  // Resolution fails over to the replica; warm paths never notice.
  auto hits3 = ursa_host.search(q1, 5);
  ASSERT_TRUE(hits3.ok());
  EXPECT_EQ(hits.value(), hits3.value());
  EXPECT_TRUE(host->commod().locate(ursa::kDocServerName).ok());

  // --- the observability record -------------------------------------------
  for (int spin = 0; spin < 100 && monitor.sample_count() < 1; ++spin) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_GT(monitor.sample_count(), 0u);
  EXPECT_FALSE(monitor.report().empty());
  EXPECT_EQ(counter_value(host->metrics(), "lcm.recursion_trips"), 0u);

  host->stop();
}

}  // namespace
}  // namespace ntcs::core
