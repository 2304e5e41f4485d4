// Tests for the replicated naming service (§7: "replicated for failure
// resiliency") — snapshot + incremental replication over the NTCS itself,
// read-only replicas, and transparent client failover.
#include <gtest/gtest.h>

#include <thread>

#include "core/testbed.h"
#include "scope_counters.h"

namespace ntcs::core {
namespace {

using namespace std::chrono_literals;
using convert::Arch;

struct Rig {
  Testbed tb;

  Rig() {
    tb.net("lan");
    tb.machine("m1", Arch::vax780, {"lan"});
    tb.machine("m2", Arch::sun3, {"lan"});
    tb.machine("m3", Arch::apollo_dn330, {"lan"});
    EXPECT_TRUE(tb.start_name_server("m1", "lan").ok());
    EXPECT_TRUE(tb.add_name_server_replica("m3", "lan").ok());
    EXPECT_TRUE(tb.finalize().ok());
  }

  void wait_replicated(std::size_t min_records) {
    for (int spin = 0; spin < 200; ++spin) {
      if (tb.replica(0).record_count() >= min_records) return;
      std::this_thread::sleep_for(5ms);
    }
  }
};

TEST(Replica, SnapshotArrives) {
  Rig rig;
  rig.wait_replicated(1);  // at least the primary's self entry
  EXPECT_GE(rig.tb.replica(0).record_count(), 1u);
  auto self = rig.tb.replica(0).db_lookup(kNameServerUAdd);
  ASSERT_TRUE(self.has_value());
  EXPECT_EQ(self->name, "name-server");
  EXPECT_GE(counter_value(rig.tb.name_server().node().metrics(),
                          "ns.replications_sent"),
            1u);
  EXPECT_GE(counter_value(rig.tb.replica(0).node().metrics(),
                          "ns.replications_applied"),
            1u);
}

TEST(Replica, IncrementalUpdatesFlow) {
  Rig rig;
  auto mod = rig.tb.spawn_module("mod", "m2", "lan").value();
  rig.wait_replicated(2);
  auto rec = rig.tb.replica(0).db_lookup(mod->identity().uadd());
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->name, "mod");
  EXPECT_EQ(rec->phys, mod->phys());
  mod->stop();
}

TEST(Replica, DeadReplicaDoesNotStallPrimaryWrites) {
  // The primary addresses its replica by a pinned physical address. When
  // the replica dies, the replication datagram's fault must not ask the
  // naming service — the primary itself, from its own service thread —
  // where the replica went (§6.3): that stalled every write for the full
  // request timeout.
  Rig rig;
  rig.wait_replicated(1);
  rig.tb.replica(0).stop();
  const metrics::MetricsRegistry& primary =
      rig.tb.name_server().node().metrics();
  const std::uint64_t queries = counter_value(primary, "nsp.queries");
  for (int i = 0; i < 3; ++i) {
    const auto start = std::chrono::steady_clock::now();
    auto mod = rig.tb.spawn_module("late-" + std::to_string(i), "m2", "lan");
    ASSERT_TRUE(mod.ok()) << mod.error().to_string();
    EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
    mod.value()->stop();
  }
  EXPECT_EQ(counter_value(primary, "nsp.queries"), queries);
}

TEST(Replica, LookupsServedAfterPrimaryDeath) {
  Rig rig;
  auto target = rig.tb.spawn_module("target", "m2", "lan").value();
  rig.wait_replicated(2);

  rig.tb.name_server().stop();

  // A fresh module cannot register (writes need the primary) …
  auto late = rig.tb.make_node("late", "m2", "lan").value();
  EXPECT_FALSE(late->commod().register_self().ok());
  // … but resolution fails over to the replica transparently: the same
  // ComMod call, no application involvement.
  auto located = late->commod().locate("target");
  ASSERT_TRUE(located.ok()) << located.error().to_string();
  EXPECT_EQ(located.value(), target->identity().uadd());
  // And communication to the located module works (resolve also served by
  // the replica).
  ASSERT_TRUE(late->commod().send(located.value(), to_bytes("hi")).ok());
  auto in = target->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "hi");
  late->stop();
  target->stop();
}

TEST(Replica, ForwardingServedByReplica) {
  // Relocation recovery keeps working when only the replica survives: the
  // forwarding determination is a read-plus-probe the replica can do.
  Rig rig;
  auto gen1 = rig.tb.spawn_module("svc", "m2", "lan").value();
  auto client = rig.tb.spawn_module("client", "m1", "lan").value();
  auto addr = client->commod().locate("svc").value();
  ASSERT_TRUE(client->commod().send(addr, to_bytes("one")).ok());
  ASSERT_TRUE(gen1->commod().receive(2s).ok());

  // New generation registers while the primary is still up...
  gen1->stop();
  auto gen2 = rig.tb.spawn_module("svc", "m3", "lan").value();
  rig.wait_replicated(4);
  // ...then the primary dies. The client's next send faults; the
  // forwarding query fails over to the replica.
  rig.tb.name_server().stop();
  ASSERT_TRUE(client->commod().send(addr, to_bytes("two")).ok());
  auto in = gen2->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "two");
  client->stop();
  gen2->stop();
}

TEST(Replica, WritesRejectedWithClearError) {
  Rig rig;
  rig.wait_replicated(1);
  rig.tb.name_server().stop();
  auto node = rig.tb.make_node("writer", "m2", "lan").value();
  auto uadd = node->commod().register_self();
  EXPECT_FALSE(uadd.ok());
  EXPECT_EQ(uadd.code(), Errc::unsupported);  // replica's read-only answer
  EXPECT_GE(counter_value(rig.tb.replica(0).node().metrics(),
                          "ns.writes_rejected"),
            1u);
  node->stop();
}

TEST(Replica, FailoverAcrossNetworks) {
  // The replica lives on another network, behind a gateway: replication
  // traffic and the failover reconnect both traverse the chain.
  Testbed tb;
  tb.net("lan-a");
  tb.net("lan-b");
  tb.machine("m1", Arch::vax780, {"lan-a"});
  tb.machine("gwm", Arch::apollo_dn330, {"lan-a", "lan-b"});
  tb.machine("m2", Arch::sun3, {"lan-b"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan-a").ok());
  ASSERT_TRUE(tb.add_gateway("gw", "gwm", {"lan-a", "lan-b"}).ok());
  ASSERT_TRUE(tb.add_name_server_replica("m2", "lan-b").ok());
  ASSERT_TRUE(tb.finalize().ok());

  auto target = tb.spawn_module("target", "m1", "lan-a").value();
  auto client = tb.spawn_module("client", "m1", "lan-a").value();
  for (int spin = 0; spin < 200 && tb.replica(0).record_count() < 3; ++spin) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_GE(tb.replica(0).record_count(), 3u);

  tb.name_server().stop();
  auto located = client->commod().locate("target");
  ASSERT_TRUE(located.ok()) << located.error().to_string();
  EXPECT_EQ(located.value(), target->identity().uadd());
  client->stop();
  target->stop();
}

TEST(Replica, PrimaryAloneStillWorks) {
  // A system without replicas must be unaffected by the failover logic.
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto a = tb.spawn_module("a", "m1", "lan").value();
  EXPECT_TRUE(a->commod().ping_name_server().ok());
  a->stop();
}

TEST(Replica, DeregistrationReplicates) {
  Rig rig;
  auto mod = rig.tb.spawn_module("gone-soon", "m2", "lan").value();
  rig.wait_replicated(2);
  ASSERT_TRUE(mod->commod().deregister().ok());
  // The replica must converge to the deregistered state.
  bool converged = false;
  for (int spin = 0; spin < 200; ++spin) {
    if (!rig.tb.replica(0).db_lookup(mod->identity().uadd()).has_value()) {
      converged = true;
      break;
    }
    std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(converged);
  mod->stop();
}

}  // namespace
}  // namespace ntcs::core
