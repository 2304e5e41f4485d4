// End-to-end integration tests: full NTCS stacks (Name Server, gateways,
// application modules) on simulated topologies — and, value-parameterized
// through Testbed's substrate knob, on real loopback TCP sockets. Every
// fixture below runs twice: once over simnet, once over realnet. Cases
// that need the simulated fabric itself (fault injection, heterogeneous
// architectures) stay in *Simnet suites.
#include <gtest/gtest.h>

#include <thread>

#include "core/testbed.h"
#include "scope_counters.h"

namespace ntcs::core {
namespace {

using namespace std::chrono_literals;
using convert::Arch;
using simnet::IpcsKind;

std::string substrate_param_name(
    const ::testing::TestParamInfo<Substrate>& info) {
  return info.param == Substrate::simnet ? "simnet" : "realnet";
}

/// One LAN, three machines, Name Server + two modules.
struct SingleLan {
  Testbed tb;
  std::unique_ptr<Node> alice;
  std::unique_ptr<Node> bob;

  explicit SingleLan(Substrate substrate = Substrate::simnet)
      : tb(1, substrate) {
    tb.net("lan");
    tb.machine("vax1", Arch::vax780, {"lan"});
    tb.machine("sun1", Arch::sun3, {"lan"});
    tb.machine("apollo1", Arch::apollo_dn330, {"lan"});
    EXPECT_TRUE(tb.start_name_server("vax1", "lan").ok());
    EXPECT_TRUE(tb.finalize().ok());
    alice = tb.spawn_module("alice", "sun1", "lan").value();
    bob = tb.spawn_module("bob", "apollo1", "lan").value();
  }
  ~SingleLan() {
    if (alice) alice->stop();
    if (bob) bob->stop();
  }
};

class SingleLanTest : public ::testing::TestWithParam<Substrate> {};

INSTANTIATE_TEST_SUITE_P(Backends, SingleLanTest,
                         ::testing::Values(Substrate::simnet,
                                           Substrate::realnet),
                         substrate_param_name);

TEST_P(SingleLanTest, RegistrationAssignsPermanentUAdds) {
  SingleLan rig(GetParam());
  EXPECT_TRUE(rig.alice->identity().uadd().valid());
  EXPECT_FALSE(rig.alice->identity().uadd().is_temporary());
  EXPECT_NE(rig.alice->identity().uadd(), rig.bob->identity().uadd());
  EXPECT_GE(rig.alice->identity().uadd().raw(), kFirstDynamicUAdd);
}

TEST_P(SingleLanTest, LocateByName) {
  SingleLan rig(GetParam());
  auto bob_addr = rig.alice->commod().locate("bob");
  ASSERT_TRUE(bob_addr.ok());
  EXPECT_EQ(bob_addr.value(), rig.bob->identity().uadd());
  EXPECT_EQ(rig.alice->commod().locate("nobody").code(), Errc::not_found);
}

TEST_P(SingleLanTest, SendAndReceive) {
  SingleLan rig(GetParam());
  auto bob_addr = rig.alice->commod().locate("bob").value();
  ASSERT_TRUE(rig.alice->commod().send(bob_addr, to_bytes("hello bob")).ok());
  auto in = rig.bob->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "hello bob");
  EXPECT_EQ(in.value().src, rig.alice->identity().uadd());
  EXPECT_FALSE(in.value().is_request);
}

TEST_P(SingleLanTest, RequestReply) {
  SingleLan rig(GetParam());
  std::jthread server([&](std::stop_token st) {
    while (!st.stop_requested()) {
      auto in = rig.bob->commod().receive(100ms);
      if (!in.ok()) continue;
      if (in.value().is_request) {
        std::string text = to_string(in.value().payload);
        (void)rig.bob->commod().reply(in.value().reply_ctx,
                                      to_bytes("echo:" + text));
      }
    }
  });
  auto bob_addr = rig.alice->commod().locate("bob").value();
  auto reply = rig.alice->commod().request(bob_addr, to_bytes("marco"), 2s);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(reply.value().payload), "echo:marco");
  server.request_stop();
}

TEST_P(SingleLanTest, LocateAttrs) {
  SingleLan rig(GetParam());
  auto carol =
      rig.tb.spawn_module("carol", "sun1", "lan", {{"role", "search"}})
          .value();
  auto dave =
      rig.tb.spawn_module("dave", "apollo1", "lan", {{"role", "search"}})
          .value();
  auto hits = rig.alice->commod().locate_attrs({{"role", "search"}});
  ASSERT_TRUE(hits.ok());
  EXPECT_EQ(hits.value().size(), 2u);
  carol->stop();
  dave->stop();
}

TEST_P(SingleLanTest, TAddsPurgedAfterRegistration) {
  SingleLan rig(GetParam());
  // Registration itself ran over the Nucleus with a TAdd source; the
  // Name-Server side must have promoted it by now (within two exchanges,
  // §3.4). One extra ping forces the second exchange.
  ASSERT_TRUE(rig.alice->commod().ping_name_server().ok());
  const auto promoted = counter_value(rig.tb.name_server().node().metrics(),
                                      "lcm.tadds_promoted");
  EXPECT_GE(promoted, 1u);
}

TEST_P(SingleLanTest, LargeMessageIsFragmented) {
  SingleLan rig(GetParam());
  auto bob_addr = rig.alice->commod().locate("bob").value();
  Bytes big(100 * 1024, 0);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31);
  }
  ASSERT_TRUE(rig.alice->commod().send(bob_addr, big).ok());
  auto in = rig.bob->commod().receive(5s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in.value().payload, big);
}

TEST_P(SingleLanTest, OversizeMessageRejected) {
  SingleLan rig(GetParam());
  auto bob_addr = rig.alice->commod().locate("bob").value();
  Bytes huge(kMaxAppMessage + 1, 1);
  EXPECT_EQ(rig.alice->commod().send(bob_addr, huge).code(), Errc::too_big);
}

TEST_P(SingleLanTest, NameServerRemovableAfterWarmup) {
  // §3.3: "once all necessary addresses have been resolved ... the Name
  // Server can be removed with no consequence, unless the system is
  // reconfigured."
  SingleLan rig(GetParam());
  auto bob_addr = rig.alice->commod().locate("bob").value();
  ASSERT_TRUE(rig.alice->commod().send(bob_addr, to_bytes("warm")).ok());
  (void)rig.bob->commod().receive(2s);

  rig.tb.name_server().stop();

  ASSERT_TRUE(rig.alice->commod().send(bob_addr, to_bytes("still works")).ok());
  auto in = rig.bob->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "still works");
  // A leased name still answers from the cache (that is the point of the
  // lease), but once the lease is gone, new resolutions fail.
  rig.alice->nsp().debug_force_expire("bob");
  EXPECT_FALSE(rig.alice->commod().locate("bob").ok());
}

/// Two LANs joined by one gateway machine; NS on LAN A.
struct TwoLans {
  Testbed tb;
  std::unique_ptr<Node> host;    // on lan-a (VAX)
  std::unique_ptr<Node> server;  // on lan-b (Sun)

  explicit TwoLans(Substrate substrate = Substrate::simnet)
      : tb(1, substrate) {
    tb.net("lan-a");
    tb.net("lan-b");
    tb.machine("vax1", Arch::vax780, {"lan-a"});
    tb.machine("gwbox", Arch::apollo_dn330, {"lan-a", "lan-b"});
    tb.machine("sun1", Arch::sun3, {"lan-b"});
    EXPECT_TRUE(tb.start_name_server("vax1", "lan-a").ok());
    EXPECT_TRUE(
        tb.add_gateway("gw-ab", "gwbox", {"lan-a", "lan-b"}).ok());
    EXPECT_TRUE(tb.finalize().ok());
    host = tb.spawn_module("host", "vax1", "lan-a").value();
    server = tb.spawn_module("server", "sun1", "lan-b").value();
  }
  ~TwoLans() {
    if (host) host->stop();
    if (server) server->stop();
  }
};

class TwoLansTest : public ::testing::TestWithParam<Substrate> {};

INSTANTIATE_TEST_SUITE_P(Backends, TwoLansTest,
                         ::testing::Values(Substrate::simnet,
                                           Substrate::realnet),
                         substrate_param_name);

TEST_P(TwoLansTest, CrossNetworkRegistrationWorks) {
  // `server` is on lan-b; its registration had to traverse the prime
  // gateway to reach the Name Server on lan-a.
  TwoLans rig(GetParam());
  EXPECT_FALSE(rig.server->identity().uadd().is_temporary());
}

TEST_P(TwoLansTest, CrossNetworkSend) {
  TwoLans rig(GetParam());
  auto addr = rig.host->commod().locate("server").value();
  ASSERT_TRUE(rig.host->commod().send(addr, to_bytes("over the hill")).ok());
  auto in = rig.server->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "over the hill");
}

TEST_P(TwoLansTest, CrossNetworkRequestReply) {
  TwoLans rig(GetParam());
  std::jthread srv([&](std::stop_token st) {
    while (!st.stop_requested()) {
      auto in = rig.server->commod().receive(100ms);
      if (in.ok() && in.value().is_request) {
        (void)rig.server->commod().reply(in.value().reply_ctx,
                                         to_bytes("ack"));
      }
    }
  });
  auto addr = rig.host->commod().locate("server").value();
  auto reply = rig.host->commod().request(addr, to_bytes("syn"), 2s);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(reply.value().payload), "ack");
  srv.request_stop();
}

TEST_P(TwoLansTest, GatewayRelaysData) {
  TwoLans rig(GetParam());
  auto addr = rig.host->commod().locate("server").value();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(
        rig.host->commod().send(addr, to_bytes(std::to_string(i))).ok());
  }
  for (int i = 0; i < 10; ++i) {
    auto in = rig.server->commod().receive(2s);
    ASSERT_TRUE(in.ok());
    EXPECT_EQ(to_string(in.value().payload), std::to_string(i));
  }
  // The relay fast path ran in the gateway's attachment IP-Layers.
  std::uint64_t relayed = 0;
  for (std::size_t i = 0; i < rig.tb.gateway(0).attachment_count(); ++i) {
    relayed += counter_value(rig.tb.gateway(0).attachment(i).metrics(),
                             "ip.messages_relayed");
  }
  EXPECT_GT(relayed, 0u);
}

TEST(TwoLansSimnet, HeterogeneousConversionAppliedAutomatically) {
  // host is a VAX (little-endian), server a Sun (big-endian): a schema
  // message must arrive intact because the Nucleus switches to packed mode.
  // Simnet-only: over realnet every process reports the one real
  // architecture, so heterogeneity cannot arise (tcp_backend.h).
  TwoLans rig;
  convert::MessageSchema schema(
      "probe", {{"id", convert::FieldType::u32},
                {"value", convert::FieldType::i64},
                {"label", convert::FieldType::chars, 8}});
  auto rec = schema.make_record();
  ASSERT_TRUE(rec.set_u64("id", 0xDEADBEEF).ok());
  ASSERT_TRUE(rec.set_i64("value", -123456789).ok());
  ASSERT_TRUE(rec.set_string("label", "ursa").ok());

  auto addr = rig.host->commod().locate("server").value();
  auto payload = rig.host->commod().payload_for(rec);
  ASSERT_TRUE(payload.ok());
  ASSERT_TRUE(rig.host->commod().send(addr, payload.value()).ok());

  auto in = rig.server->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in.value().mode, convert::XferMode::packed);
  auto decoded = rig.server->commod().decode(in.value(), schema);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().get_u64("id").value(), 0xDEADBEEFu);
  EXPECT_EQ(decoded.value().get_i64("value").value(), -123456789);
  EXPECT_EQ(decoded.value().get_string("label").value(), "ursa");
}

TEST(TwoLansSimnet, SameArchUsesImageMode) {
  TwoLans rig;
  auto peer = rig.tb.spawn_module("peer", "vax1", "lan-a").value();
  convert::MessageSchema schema("probe", {{"id", convert::FieldType::u32}});
  auto rec = schema.make_record();
  ASSERT_TRUE(rec.set_u64("id", 7).ok());
  auto addr = rig.host->commod().locate("peer").value();
  auto payload = rig.host->commod().payload_for(rec);
  ASSERT_TRUE(payload.ok());
  ASSERT_TRUE(rig.host->commod().send(addr, payload.value()).ok());
  auto in = peer->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(in.value().mode, convert::XferMode::image);
  auto decoded = peer->commod().decode(in.value(), schema);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().get_u64("id").value(), 7u);
  peer->stop();
}

/// Three LANs in a chain: a - b - c, two gateways, NS on b (the middle).
struct ThreeLans {
  Testbed tb;
  std::unique_ptr<Node> left;
  std::unique_ptr<Node> right;

  explicit ThreeLans(Substrate substrate = Substrate::simnet)
      : tb(1, substrate) {
    tb.net("lan-a");
    tb.net("lan-b");
    tb.net("lan-c");
    tb.machine("ma", Arch::vax780, {"lan-a"});
    tb.machine("gw1", Arch::apollo_dn330, {"lan-a", "lan-b"});
    tb.machine("mb", Arch::sun3, {"lan-b"});
    tb.machine("gw2", Arch::apollo_dn330, {"lan-b", "lan-c"});
    tb.machine("mc", Arch::sun2, {"lan-c"});
    EXPECT_TRUE(tb.start_name_server("mb", "lan-b").ok());
    EXPECT_TRUE(tb.add_gateway("gw-ab", "gw1", {"lan-a", "lan-b"}).ok());
    EXPECT_TRUE(tb.add_gateway("gw-bc", "gw2", {"lan-b", "lan-c"}).ok());
    EXPECT_TRUE(tb.finalize().ok());
    left = tb.spawn_module("left", "ma", "lan-a").value();
    right = tb.spawn_module("right", "mc", "lan-c").value();
  }
  ~ThreeLans() {
    if (left) left->stop();
    if (right) right->stop();
  }
};

class ThreeLansTest : public ::testing::TestWithParam<Substrate> {};

INSTANTIATE_TEST_SUITE_P(Backends, ThreeLansTest,
                         ::testing::Values(Substrate::simnet,
                                           Substrate::realnet),
                         substrate_param_name);

TEST_P(ThreeLansTest, TwoHopChainedCircuit) {
  ThreeLans rig(GetParam());
  auto addr = rig.left->commod().locate("right").value();
  ASSERT_TRUE(rig.left->commod().send(addr, to_bytes("across 2 gws")).ok());
  auto in = rig.right->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "across 2 gws");
}

TEST_P(ThreeLansTest, RouteComputationFindsChain) {
  ThreeLans rig(GetParam());
  ResolvedDest dst;
  dst.uadd = rig.right->identity().uadd();
  dst.phys = rig.right->phys();
  dst.net = "lan-c";
  auto route = rig.left->ip().compute_route(dst);
  ASSERT_TRUE(route.ok());
  ASSERT_EQ(route.value().size(), 3u);  // gw1 on lan-a, gw2 on lan-b, dst
  EXPECT_EQ(route.value()[0].net, "lan-a");
  EXPECT_EQ(route.value()[1].net, "lan-b");
  EXPECT_EQ(route.value()[2].net, "lan-c");
  EXPECT_EQ(route.value()[2].phys, rig.right->phys().blob);
}

TEST_P(ThreeLansTest, NoRouteToUnknownNetwork) {
  ThreeLans rig(GetParam());
  ResolvedDest dst;
  dst.uadd = UAdd::permanent(424242);
  dst.phys = PhysAddr{"tcp:nowhere:1"};
  dst.net = "lan-z";
  auto route = rig.left->ip().compute_route(dst);
  EXPECT_EQ(route.code(), Errc::no_route);
}

TEST_P(ThreeLansTest, ReplyTraversesChainBackwards) {
  ThreeLans rig(GetParam());
  std::jthread srv([&](std::stop_token st) {
    while (!st.stop_requested()) {
      auto in = rig.right->commod().receive(100ms);
      if (in.ok() && in.value().is_request) {
        (void)rig.right->commod().reply(in.value().reply_ctx,
                                        to_bytes("pong from lan-c"));
      }
    }
  });
  auto addr = rig.left->commod().locate("right").value();
  auto reply = rig.left->commod().request(addr, to_bytes("ping"), 3s);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(to_string(reply.value().payload), "pong from lan-c");
  srv.request_stop();
}

class ReconfigTest : public ::testing::TestWithParam<Substrate> {};

INSTANTIATE_TEST_SUITE_P(Backends, ReconfigTest,
                         ::testing::Values(Substrate::simnet,
                                           Substrate::realnet),
                         substrate_param_name);

TEST_P(ReconfigTest, RelocatedModuleIsFoundTransparently) {
  // §3.5: after an address fault the LCM-Layer obtains a forwarding UAdd
  // and re-establishes the connection; the application keeps using the
  // address it first obtained.
  SingleLan rig(GetParam());
  auto bob_addr = rig.alice->commod().locate("bob").value();
  ASSERT_TRUE(rig.alice->commod().send(bob_addr, to_bytes("gen1")).ok());
  ASSERT_TRUE(rig.bob->commod().receive(2s).ok());

  // Move bob: kill the old module, bring up a new generation elsewhere.
  rig.bob->stop();
  auto bob2 = rig.tb.spawn_module("bob", "sun1", "lan").value();

  ASSERT_TRUE(rig.alice->commod().send(bob_addr, to_bytes("gen2")).ok());
  auto in = bob2->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "gen2");
  // The LCM installed a forwarding entry old -> new.
  EXPECT_EQ(rig.alice->lcm().current_target(bob_addr),
            bob2->identity().uadd());
  EXPECT_GE(counter_value(rig.alice->metrics(), "lcm.relocations"), 1u);
  bob2->stop();
}

TEST_P(ReconfigTest, DeadModuleWithoutReplacementFails) {
  SingleLan rig(GetParam());
  auto bob_addr = rig.alice->commod().locate("bob").value();
  ASSERT_TRUE(rig.alice->commod().send(bob_addr, to_bytes("hi")).ok());
  ASSERT_TRUE(rig.bob->commod().receive(2s).ok());
  rig.bob->stop();
  // Peer death is observed synchronously over simnet but asynchronously
  // over real TCP (EOF/RST races the first send, which may be accepted
  // locally); the contract is that sends *eventually* fail.
  auto st = ntcs::Status::success();
  for (int i = 0; i < 100 && st.ok(); ++i) {
    st = rig.alice->commod().send(bob_addr, to_bytes("to the void"));
    if (st.ok()) std::this_thread::sleep_for(20ms);
  }
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Errc::not_found);  // "no replacement module located"
}

TEST(ReconfigSimnet, NameServerCircuitBreakRecovers) {
  // The §6.3 scenario, patched: the virtual circuit between a module and
  // the Name Server breaks; the next naming-service call must recover via
  // the well-known address instead of recursing to death. Simnet-only:
  // uses fabric partition injection.
  SingleLan rig;
  ASSERT_TRUE(rig.alice->commod().ping_name_server().ok());
  auto lan = rig.tb.fabric().network_by_name("lan").value();
  rig.tb.fabric().set_partitioned(lan, true);
  auto st = rig.alice->commod().ping_name_server();
  rig.tb.fabric().set_partitioned(lan, false);
  // After healing, the naming service is reachable again.
  EXPECT_TRUE(rig.alice->commod().ping_name_server().ok());
  (void)st;  // during the partition the call may fail — that is fine
  EXPECT_EQ(counter_value(rig.alice->metrics(), "lcm.recursion_trips"), 0u);
}

}  // namespace
}  // namespace ntcs::core
