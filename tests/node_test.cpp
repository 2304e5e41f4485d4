// Tests for Node assembly/lifecycle (S10 glue) and Testbed misuse paths.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "core/testbed.h"

namespace ntcs::core {
namespace {

using namespace std::chrono_literals;
using convert::Arch;

TEST(Node, StartIsIdempotent) {
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto node = tb.make_node("n", "m1", "lan").value();
  EXPECT_TRUE(node->running());
  EXPECT_TRUE(node->start().ok());  // second start: no-op success
  node->stop();
  EXPECT_FALSE(node->running());
  node->stop();  // second stop: no-op
}

TEST(Node, StopJoinsAServiceBlockedInANestedRequest) {
  // The URSA search shape: a handler blocked in a nested request with a
  // long timeout. stop() must fail that wait, not sit it out.
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  tb.machine("m2", Arch::sun3, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto srv = tb.spawn_module("srv", "m1", "lan").value();
  auto mute = tb.spawn_module("mute", "m2", "lan").value();  // never replies
  auto cli = tb.spawn_module("cli", "m2", "lan").value();
  const UAdd mute_addr = srv->commod().locate("mute").value();

  std::atomic<bool> entered{false};
  Errc nested = Errc::ok;  // written by the service thread, read after join
  srv->run([&](std::stop_token st) {
    srv->commod().serve(st, [&](const Incoming&) {
      entered = true;
      auto r = srv->commod().request(mute_addr, to_bytes("wait"), 10s);
      nested = r.code();
      return Bytes{};
    });
  });
  auto ticket = cli->commod().request_async(
      cli->commod().locate("srv").value(), to_bytes("go"), 15s);
  ASSERT_TRUE(ticket.ok());
  for (int spin = 0; spin < 200 && !entered; ++spin) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_TRUE(entered);

  const auto t0 = std::chrono::steady_clock::now();
  srv->stop();
  EXPECT_LT(std::chrono::steady_clock::now() - t0, 1s);
  EXPECT_NE(nested, Errc::ok);
  cli->stop();
  mute->stop();
}

TEST(Node, IdentityStartsTemporary) {
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::sun3, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto node = tb.make_node("fresh", "m1", "lan").value();
  EXPECT_TRUE(node->identity().uadd().is_temporary());
  EXPECT_EQ(node->identity().name(), "fresh");
  EXPECT_EQ(node->identity().arch(), Arch::sun3);
  EXPECT_EQ(node->identity().net(), "lan");
  EXPECT_TRUE(node->phys().valid());
  auto uadd = node->commod().register_self();
  ASSERT_TRUE(uadd.ok());
  EXPECT_FALSE(node->identity().uadd().is_temporary());
  node->stop();
}

TEST(Node, DistinctTAddsAcrossModules) {
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto n1 = tb.make_node("n1", "m1", "lan").value();
  auto n2 = tb.make_node("n2", "m1", "lan").value();
  // In-process TAdds are distinct (a convenience; the protocol would
  // tolerate collisions, which is the whole point of §3.4).
  EXPECT_NE(n1->identity().uadd(), n2->identity().uadd());
  n1->stop();
  n2->stop();
}

TEST(Node, LateWellKnownInstallEnablesNaming) {
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  // Build a node with an EMPTY well-known table, then install late.
  NodeConfig cfg;
  cfg.name = "late";
  cfg.backend = tb.backend("m1");
  cfg.net = "lan";
  Node node(std::move(cfg));
  ASSERT_TRUE(node.start().ok());
  EXPECT_FALSE(node.commod().register_self().ok());  // cannot find the NS
  node.install_well_known(tb.well_known());
  EXPECT_TRUE(node.commod().register_self().ok());
  node.stop();
}

TEST(Node, UadToStringFormats) {
  EXPECT_EQ(UAdd::permanent(17).to_string(), "U#17");
  EXPECT_EQ(UAdd::temporary(4).to_string(), "T#4");
  EXPECT_EQ(UAdd{}.to_string(), "U#invalid");
}

TEST(Testbed, UnknownMachineRejected) {
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto bad = tb.make_node("x", "marsrover", "lan");
  EXPECT_EQ(bad.code(), Errc::bad_argument);
}

TEST(Testbed, FinalizeWithoutNameServerRejected) {
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  EXPECT_EQ(tb.finalize().code(), Errc::bad_argument);
}

TEST(Testbed, NetAndMachineAreIdempotent) {
  Testbed tb;
  auto n1 = tb.net("lan");
  auto n2 = tb.net("lan");
  EXPECT_EQ(n1, n2);
  auto m1 = tb.machine("m", Arch::sun2, {"lan"});
  auto m2 = tb.machine("m", Arch::sun3, {"lan"});  // second arch ignored
  EXPECT_EQ(m1, m2);
  EXPECT_EQ(tb.fabric().machine_arch(m1), Arch::sun2);
}

TEST(Testbed, ReplicaBeforePrimaryRejected) {
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  EXPECT_EQ(tb.add_name_server_replica("m1", "lan").code(),
            Errc::bad_argument);
}

}  // namespace
}  // namespace ntcs::core
