// Tests for the static naming-service implementation (S9 alternative):
// the NSP isolation claim of §3 — the whole Nucleus runs with a different
// naming service and NO Name Server module anywhere.
#include <gtest/gtest.h>

#include <thread>

#include "core/nsp/static_resolver.h"
#include "core/testbed.h"
#include "simnet/backend.h"

namespace ntcs::core {
namespace {

using namespace std::chrono_literals;
using convert::Arch;

TEST(StaticNaming, TableBasics) {
  StaticNameService svc;
  svc.add("alpha", UAdd::permanent(2001), PhysAddr{"tcp:m:1"}, "lan");
  EXPECT_EQ(svc.size(), 1u);
  EXPECT_EQ(svc.lookup("alpha").value(), UAdd::permanent(2001));
  EXPECT_EQ(svc.lookup("beta").code(), Errc::not_found);
  auto dest = svc.resolve(UAdd::permanent(2001));
  ASSERT_TRUE(dest.ok());
  EXPECT_EQ(dest.value().phys.blob, "tcp:m:1");
  EXPECT_EQ(dest.value().net, "lan");
  EXPECT_EQ(svc.resolve(UAdd::permanent(9)).code(), Errc::not_found);
  EXPECT_EQ(svc.forward(UAdd::permanent(2001)).code(), Errc::not_found);
}

TEST(StaticNaming, FullSystemWithoutNameServer) {
  // No NameServer module exists anywhere in this system. Identities and
  // the name table are configured by the deployer.
  simnet::Fabric fabric{1};
  auto lan = fabric.add_network("lan");
  auto vax = fabric.add_machine("vax1", Arch::vax780, {lan});
  auto sun = fabric.add_machine("sun1", Arch::sun3, {lan});

  NodeConfig cfg_a;
  cfg_a.name = "a";
  cfg_a.backend = std::make_shared<simnet::SimnetBackend>(
      fabric, vax, simnet::IpcsKind::tcp);
  cfg_a.net = "lan";
  Node a(std::move(cfg_a));
  ASSERT_TRUE(a.start().ok());
  a.identity().set_uadd(UAdd::permanent(2001));

  NodeConfig cfg_b;
  cfg_b.name = "b";
  cfg_b.backend = std::make_shared<simnet::SimnetBackend>(
      fabric, sun, simnet::IpcsKind::tcp);
  cfg_b.net = "lan";
  Node b(std::move(cfg_b));
  ASSERT_TRUE(b.start().ok());
  b.identity().set_uadd(UAdd::permanent(2002));

  StaticNameService svc;
  svc.add("a", UAdd::permanent(2001), a.phys(), "lan");
  svc.add("b", UAdd::permanent(2002), b.phys(), "lan");
  use_static_naming(a, svc);
  use_static_naming(b, svc);

  // Name resolution is a local call; communication runs the full stack.
  auto b_addr = svc.lookup("b").value();
  ASSERT_TRUE(a.commod().send(b_addr, to_bytes("statically named")).ok());
  auto in = b.commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "statically named");
  EXPECT_EQ(in.value().src, UAdd::permanent(2001));
  // Heterogeneous conversion still applies (it is below naming).
  EXPECT_EQ(in.value().mode, convert::XferMode::image);  // raw bytes

  a.stop();
  b.stop();
}

TEST(StaticNaming, CrossNetworkViaStaticGatewayRecord) {
  simnet::Fabric fabric{1};
  auto na = fabric.add_network("net-a");
  auto nb = fabric.add_network("net-b");
  auto m1 = fabric.add_machine("m1", Arch::vax780, {na});
  auto gm = fabric.add_machine("gm", Arch::apollo_dn330, {na, nb});
  auto m2 = fabric.add_machine("m2", Arch::sun3, {nb});

  // A gateway still works — its record simply comes from the static table.
  auto gw_backend = [&] {
    return std::make_shared<simnet::SimnetBackend>(fabric, gm,
                                                   simnet::IpcsKind::tcp);
  };
  Gateway gw("gw", {{gw_backend(), "net-a"}, {gw_backend(), "net-b"}},
             UAdd::permanent(2));
  ASSERT_TRUE(gw.start().ok());

  NodeConfig cfg_a;
  cfg_a.name = "a";
  cfg_a.backend = std::make_shared<simnet::SimnetBackend>(
      fabric, m1, simnet::IpcsKind::tcp);
  cfg_a.net = "net-a";
  Node a(std::move(cfg_a));
  ASSERT_TRUE(a.start().ok());
  a.identity().set_uadd(UAdd::permanent(2001));

  NodeConfig cfg_b;
  cfg_b.name = "b";
  cfg_b.backend = std::make_shared<simnet::SimnetBackend>(
      fabric, m2, simnet::IpcsKind::tcp);
  cfg_b.net = "net-b";
  Node b(std::move(cfg_b));
  ASSERT_TRUE(b.start().ok());
  b.identity().set_uadd(UAdd::permanent(2002));

  StaticNameService svc;
  svc.add("a", UAdd::permanent(2001), a.phys(), "net-a");
  svc.add("b", UAdd::permanent(2002), b.phys(), "net-b");
  svc.add_gateway(gw.record());
  use_static_naming(a, svc);
  use_static_naming(b, svc);

  ASSERT_TRUE(a.commod().send(UAdd::permanent(2002),
                              to_bytes("static internetting")).ok());
  auto in = b.commod().receive(3s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "static internetting");

  a.stop();
  b.stop();
  gw.stop();
}

TEST(StaticNaming, NoForwardingMeansCleanFailureOnDeath) {
  simnet::Fabric fabric{1};
  auto lan = fabric.add_network("lan");
  auto m = fabric.add_machine("m", Arch::vax780, {lan});
  NodeConfig cfg_a;
  cfg_a.name = "a";
  cfg_a.backend = std::make_shared<simnet::SimnetBackend>(
      fabric, m, simnet::IpcsKind::tcp);
  cfg_a.net = "lan";
  NodeConfig cfg_b = cfg_a;
  Node a(std::move(cfg_a));
  ASSERT_TRUE(a.start().ok());
  a.identity().set_uadd(UAdd::permanent(2001));
  cfg_b.name = "b";
  auto b = std::make_unique<Node>(std::move(cfg_b));
  ASSERT_TRUE(b->start().ok());
  b->identity().set_uadd(UAdd::permanent(2002));
  StaticNameService svc;
  svc.add("a", UAdd::permanent(2001), a.phys(), "lan");
  svc.add("b", UAdd::permanent(2002), b->phys(), "lan");
  use_static_naming(a, svc);
  use_static_naming(*b, svc);
  ASSERT_TRUE(a.commod().send(UAdd::permanent(2002), to_bytes("1")).ok());
  ASSERT_TRUE(b->commod().receive(2s).ok());
  b->stop();
  b.reset();
  auto st = a.commod().send(UAdd::permanent(2002), to_bytes("2"));
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), Errc::not_found);  // forward() had nothing to offer
  a.stop();
}

TEST(StaticNaming, KilledCircuitToALivePeerReopens) {
  // A closed circuit asks forward() first, and a static table answers
  // not_found for every UAdd: that must reopen the live peer's address,
  // not fail the send.
  simnet::Fabric fabric{1};
  auto lan = fabric.add_network("lan");
  auto m = fabric.add_machine("m", Arch::vax780, {lan});
  NodeConfig cfg_a;
  cfg_a.name = "a";
  cfg_a.backend = std::make_shared<simnet::SimnetBackend>(
      fabric, m, simnet::IpcsKind::tcp);
  cfg_a.net = "lan";
  NodeConfig cfg_b = cfg_a;
  Node a(std::move(cfg_a));
  ASSERT_TRUE(a.start().ok());
  a.identity().set_uadd(UAdd::permanent(2001));
  cfg_b.name = "b";
  Node b(std::move(cfg_b));
  ASSERT_TRUE(b.start().ok());
  b.identity().set_uadd(UAdd::permanent(2002));
  StaticNameService svc;
  svc.add("a", UAdd::permanent(2001), a.phys(), "lan");
  svc.add("b", UAdd::permanent(2002), b.phys(), "lan");
  use_static_naming(a, svc);
  use_static_naming(b, svc);
  ASSERT_TRUE(a.commod().send(UAdd::permanent(2002), to_bytes("1")).ok());
  ASSERT_TRUE(b.commod().receive(2s).ok());

  const std::uint64_t closed = a.ip().stats().ivcs_closed;
  bool killed = false;
  for (simnet::ChannelId c = 63; c >= 1 && !killed; --c) {
    killed = fabric.kill_channel(c).ok();  // the a<->b channel, the only one
  }
  ASSERT_TRUE(killed);
  const auto until = std::chrono::steady_clock::now() + 2s;
  while (a.ip().stats().ivcs_closed == closed &&
         std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(1ms);
  }
  ASSERT_TRUE(a.commod().send(UAdd::permanent(2002), to_bytes("2")).ok());
  auto in = b.commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "2");
  a.stop();
  b.stop();
}

}  // namespace
}  // namespace ntcs::core
