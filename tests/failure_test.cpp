// Failure-injection tests: partitions, lossy links, killed channels, dead
// gateways, and a dead Name Server — the "unlikely exceptional conditions"
// of §6.3 made likely.
#include <gtest/gtest.h>

#include <thread>

#include "core/testbed.h"
#include "drts/process_control.h"
#include "scope_counters.h"

namespace ntcs::core {
namespace {

using namespace std::chrono_literals;
using convert::Arch;

TEST(Failure, KilledChannelMidConversationRecovers) {
  // §3.5: "the original module is still alive" — after the circuit is cut
  // the LCM-Layer reconnects "exactly ... as during an initial connection".
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

  // Sever every live channel in the fabric that connects the two (we can
  // kill by id: channel ids are small and sequential; kill until none).
  std::uint64_t killed = 0;
  for (simnet::ChannelId c = 1; c < 64; ++c) {
    if (tb.fabric().kill_channel(c).ok()) ++killed;
  }
  EXPECT_GT(killed, 0u);
  std::this_thread::sleep_for(20ms);  // let closed notifications land

  const auto opened_before = counter_value(a->metrics(), "ip.ivcs_opened");
  ASSERT_TRUE(a->commod().send(addr, to_bytes("two")).ok());
  auto in = b->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "two");
  // The old circuit died and a new one was established for the resend.
  EXPECT_GE(counter_value(a->metrics(), "ip.ivcs_closed"), 1u);
  EXPECT_GT(counter_value(a->metrics(), "ip.ivcs_opened"), opened_before);
  a->stop();
  b->stop();
}

TEST(Failure, ParallelGatewayFailover) {
  // Two gateways bridge the same pair of networks; one dies mid-session.
  // The IP-Layer blacklists the dead attachment, refreshes the registry
  // (where the Name Server has probed it dead), and routes around it.
  Testbed tb;
  tb.net("lan-a");
  tb.net("lan-b");
  tb.machine("m1", Arch::vax780, {"lan-a"});
  tb.machine("gw1", Arch::apollo_dn330, {"lan-a", "lan-b"});
  tb.machine("gw2", Arch::apollo_dn330, {"lan-a", "lan-b"});
  tb.machine("m2", Arch::sun3, {"lan-b"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan-a").ok());
  ASSERT_TRUE(tb.add_gateway("gw-primary", "gw1", {"lan-a", "lan-b"}).ok());
  ASSERT_TRUE(tb.add_gateway("gw-backup", "gw2", {"lan-a", "lan-b"}).ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto a = tb.spawn_module("a", "m1", "lan-a").value();
  auto b = tb.spawn_module("b", "m2", "lan-b").value();
  auto addr = a->commod().locate("b").value();
  ASSERT_TRUE(a->commod().send(addr, to_bytes("via primary")).ok());
  ASSERT_TRUE(b->commod().receive(2s).ok());

  tb.gateway(0).stop();  // the primary dies
  std::this_thread::sleep_for(20ms);

  ASSERT_TRUE(a->commod().send(addr, to_bytes("via backup")).ok());
  auto in = b->commod().receive(3s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "via backup");
  // The backup did the relaying.
  std::uint64_t backup_relayed = 0;
  for (std::size_t i = 0; i < tb.gateway(1).attachment_count(); ++i) {
    backup_relayed += counter_value(tb.gateway(1).attachment(i).metrics(),
                                    "ip.messages_relayed");
  }
  EXPECT_GT(backup_relayed, 0u);
  a->stop();
  b->stop();
}

TEST(Failure, GatewayDeathWithoutBackupFailsCleanly) {
  Testbed tb;
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
  auto addr = a->commod().locate("b").value();
  ASSERT_TRUE(a->commod().send(addr, to_bytes("ok")).ok());
  ASSERT_TRUE(b->commod().receive(2s).ok());

  tb.gateway(0).stop();
  std::this_thread::sleep_for(20ms);
  auto st = a->commod().send(addr, to_bytes("stranded"));
  EXPECT_FALSE(st.ok());  // no route — surfaced, not hidden
  a->stop();
  b->stop();
}

TEST(Failure, RequestInFlightWhenCircuitDiesFailsFastAndRecovers) {
  // The reply slot is failed by the ivc_closed event — the requester does
  // not sit out its full timeout, and the LCM retries through recovery.
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  tb.machine("m2", Arch::sun3, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  ntcs::drts::ProcessController pc(tb);
  ASSERT_TRUE(
      pc.spawn("svc", "m2", "lan", {}, ntcs::drts::make_echo_service()).ok());
  auto a = tb.spawn_module("a", "m1", "lan").value();
  auto addr = a->commod().locate("svc").value();
  ASSERT_TRUE(a->commod().request(addr, to_bytes("warm"), 2s).ok());

  std::jthread killer([&] {
    std::this_thread::sleep_for(30ms);
    (void)pc.relocate("svc", "m1", "lan");
  });
  // Issue requests while the relocation happens; generous timeout, but the
  // failure path is the fast ivc_closed signal, not the timeout.
  int ok = 0;
  for (int i = 0; i < 20; ++i) {
    auto reply = a->commod().request(addr, to_bytes("r"), 10s);
    if (reply.ok()) ++ok;
    std::this_thread::sleep_for(5ms);
  }
  killer.join();
  EXPECT_EQ(ok, 20);  // every request eventually answered
  a->stop();
}

TEST(Failure, PartitionDropsThenHeals) {
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  tb.machine("m2", Arch::sun3, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto a = tb.spawn_module("a", "m1", "lan").value();
  auto b = tb.spawn_module("b", "m2", "lan").value();
  auto addr = a->commod().locate("b").value();
  ASSERT_TRUE(a->commod().send(addr, to_bytes("pre")).ok());
  ASSERT_TRUE(b->commod().receive(1s).ok());

  auto lan = tb.fabric().network_by_name("lan").value();
  tb.fabric().set_partitioned(lan, true);
  EXPECT_FALSE(a->commod().send(addr, to_bytes("during")).ok());
  tb.fabric().set_partitioned(lan, false);

  ASSERT_TRUE(a->commod().send(addr, to_bytes("post")).ok());
  auto in = b->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "post");
  a->stop();
  b->stop();
}

TEST(Failure, LossyNetworkLosesDataNotSanity) {
  // §3.5: "While the NTCS can not lose messages in a static environment,
  // they can be dropped due to ... reconfiguration" — and under injected
  // frame loss the system must degrade (messages missing) without hanging
  // or corrupting anything.
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  tb.machine("m2", Arch::sun3, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto a = tb.spawn_module("a", "m1", "lan").value();
  auto b = tb.spawn_module("b", "m2", "lan").value();
  auto addr = a->commod().locate("b").value();
  ASSERT_TRUE(a->commod().send(addr, to_bytes("warm")).ok());
  ASSERT_TRUE(b->commod().receive(1s).ok());

  auto lan = tb.fabric().network_by_name("lan").value();
  tb.fabric().set_loss(lan, 0.5);
  constexpr int kSent = 60;
  for (int i = 0; i < kSent; ++i) {
    ASSERT_TRUE(a->commod().send(addr, to_bytes(std::to_string(i))).ok());
  }
  tb.fabric().set_loss(lan, 0.0);
  int received = 0;
  while (b->commod().receive(100ms).ok()) ++received;
  EXPECT_LT(received, kSent);  // some frames really were lost
  EXPECT_GT(received, 0);      // and some got through
  EXPECT_GT(counter_value(tb.fabric().metrics(), "simnet.frames_dropped"), 0u);
  a->stop();
  b->stop();
}

TEST(Failure, LostFragmentCorruptsOneMessageThenHeals) {
  // A mid-message fragment lost on the wire desynchronises the peer's
  // reassembler for at most the current message: the mangled accumulation
  // is rejected at decode (bad magic / bad layout) and dropped, and the
  // following messages flow again. Degradation without corruption.
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  tb.machine("m2", Arch::sun3, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto a = tb.spawn_module("a", "m1", "lan").value();
  auto b = tb.spawn_module("b", "m2", "lan").value();
  auto addr = a->commod().locate("b").value();
  ASSERT_TRUE(a->commod().send(addr, to_bytes("warm")).ok());
  ASSERT_TRUE(b->commod().receive(1s).ok());

  auto lan = tb.fabric().network_by_name("lan").value();
  // ~30% frame loss while we push fragmented (64 KiB) messages.
  tb.fabric().set_loss(lan, 0.3);
  Bytes big(64 * 1024, 0xAB);
  for (int i = 0; i < 10; ++i) {
    (void)a->commod().send(addr, big);
  }
  tb.fabric().set_loss(lan, 0.0);

  // Drain whatever survived; every delivered message must be intact.
  int intact = 0;
  while (true) {
    auto in = b->commod().receive(200ms);
    if (!in.ok()) break;
    if (in.value().payload == big) ++intact;
  }
  EXPECT_LE(intact, 10);  // at 30% frame loss, most messages died
  // After the lossy window the channel works again, fragmentation and all.
  ASSERT_TRUE(a->commod().send(addr, big).ok());
  auto healed = b->commod().receive(2s);
  ASSERT_TRUE(healed.ok());
  EXPECT_EQ(healed.value().payload, big);
  EXPECT_GT(counter_value(tb.fabric().metrics(), "simnet.frames_dropped"), 0u);
  a->stop();
  b->stop();
}

TEST(Failure, NameServerDeadNewModulesCannotRegister) {
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  tb.machine("m2", Arch::sun3, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  tb.name_server().stop();
  auto node = tb.make_node("late", "m2", "lan").value();
  auto uadd = node->commod().register_self();
  EXPECT_FALSE(uadd.ok());
  EXPECT_TRUE(node->identity().uadd().is_temporary());  // stuck on its TAdd
  node->stop();
}

TEST(Failure, MbxFlavourRunsTheSamePortableStack) {
  // F1 (DESIGN.md): everything above the ND-Layer is portable — the same
  // system runs when every module binds MBX endpoints instead of TCP.
  Testbed tb;
  tb.net("ring");
  tb.machine("ap1", Arch::apollo_dn330, {"ring"});
  tb.machine("ap2", Arch::apollo_dn330, {"ring"});
  ASSERT_TRUE(
      tb.start_name_server("ap1", "ring", simnet::IpcsKind::mbx).ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto a = tb.spawn_module("a", "ap1", "ring", {}, simnet::IpcsKind::mbx)
               .value();
  auto b = tb.spawn_module("b", "ap2", "ring", {}, simnet::IpcsKind::mbx)
               .value();
  auto addr = a->commod().locate("b").value();
  ASSERT_TRUE(a->commod().send(addr, to_bytes("over mbx")).ok());
  auto in = b->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "over mbx");
  a->stop();
  b->stop();
}

TEST(Failure, MixedIpcsGatewayBridgesTcpAndMbx) {
  // The strongest portability statement: a gateway whose attachments use
  // *different native IPCSs* — the same Gateway code relays between a TCP
  // network and an MBX network (paper §4.1: "the same Gateway module ...
  // used for all networks and machines").
  Testbed tb;
  tb.net("tcp-lan");
  tb.net("mbx-ring");
  tb.machine("vax1", Arch::vax780, {"tcp-lan"});
  tb.machine("bridge", Arch::apollo_dn330, {"tcp-lan", "mbx-ring"});
  tb.machine("ap1", Arch::apollo_dn330, {"mbx-ring"});
  ASSERT_TRUE(tb.start_name_server("vax1", "tcp-lan").ok());
  std::vector<Gateway::Attachment> atts(2);
  atts[0].backend = tb.backend("bridge", simnet::IpcsKind::tcp);
  atts[0].net = "tcp-lan";
  atts[1].backend = tb.backend("bridge", simnet::IpcsKind::mbx);
  atts[1].net = "mbx-ring";
  ASSERT_TRUE(tb.add_gateway("bridge-gw", atts).ok());
  ASSERT_TRUE(tb.finalize().ok());

  auto tcp_mod = tb.spawn_module("tcp-mod", "vax1", "tcp-lan").value();
  auto mbx_mod = tb.spawn_module("mbx-mod", "ap1", "mbx-ring", {},
                                 simnet::IpcsKind::mbx)
                     .value();
  auto addr = tcp_mod->commod().locate("mbx-mod").value();
  ASSERT_TRUE(tcp_mod->commod().send(addr, to_bytes("cross-ipcs")).ok());
  auto in = mbx_mod->commod().receive(3s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "cross-ipcs");
  tcp_mod->stop();
  mbx_mod->stop();
}

}  // namespace
}  // namespace ntcs::core
