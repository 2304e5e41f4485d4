// Unit tests for the simulated fabric (S2): topology, endpoints, channels,
// latency, loss, partitions, clocks, probes.
#include <gtest/gtest.h>

#include <set>
#include <thread>

#include "convert/machine.h"
#include "simnet/fabric.h"
#include "simnet/phys.h"
#include "scope_counters.h"

namespace ntcs::simnet {
namespace {

using namespace std::chrono_literals;
using convert::Arch;

struct Rig {
  Fabric fabric{1};
  NetworkId lan;
  MachineId vax;
  MachineId sun;

  Rig() {
    lan = fabric.add_network("lan-a");
    vax = fabric.add_machine("vax1", Arch::vax780, {lan});
    sun = fabric.add_machine("sun1", Arch::sun3, {lan});
  }
};

TEST(PhysFormat, TcpRoundTrip) {
  const std::string addr = format_tcp_addr("vax1", 5001);
  auto p = parse_phys(addr);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, IpcsKind::tcp);
  EXPECT_EQ(p->machine, "vax1");
  EXPECT_EQ(p->local, "5001");
}

TEST(PhysFormat, MbxRoundTrip) {
  const std::string addr = format_mbx_addr("apollo1", "server-mbx");
  auto p = parse_phys(addr);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->kind, IpcsKind::mbx);
  EXPECT_EQ(p->machine, "apollo1");
  EXPECT_EQ(p->local, "server-mbx");
}

TEST(PhysFormat, RejectsGarbage) {
  EXPECT_FALSE(parse_phys("").has_value());
  EXPECT_FALSE(parse_phys("bogus").has_value());
  EXPECT_FALSE(parse_phys("tcp:").has_value());
  EXPECT_FALSE(parse_phys("tcp:host:notaport").has_value());
  EXPECT_FALSE(parse_phys("mbx:/nopath").has_value());
  EXPECT_FALSE(parse_phys("mbx://x").has_value());
}

TEST(PhysFormat, MtuDiffersByKind) {
  EXPECT_GT(ipcs_mtu(IpcsKind::tcp), ipcs_mtu(IpcsKind::mbx));
}

TEST(FabricTopology, NamesResolve) {
  Rig rig;
  EXPECT_EQ(rig.fabric.machine_by_name("vax1"), rig.vax);
  EXPECT_EQ(rig.fabric.network_by_name("lan-a"), rig.lan);
  EXPECT_FALSE(rig.fabric.machine_by_name("nope").has_value());
  EXPECT_EQ(rig.fabric.machine_arch(rig.vax), Arch::vax780);
  EXPECT_EQ(rig.fabric.machine_count(), 2u);
  EXPECT_EQ(rig.fabric.network_count(), 1u);
}

TEST(FabricTopology, AttachIsIdempotent) {
  Rig rig;
  rig.fabric.attach_machine(rig.vax, rig.lan);
  EXPECT_EQ(rig.fabric.machine_networks(rig.vax).size(), 1u);
}

TEST(Endpoint, BindAssignsDistinctTcpPorts) {
  Rig rig;
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a");
  auto b = rig.fabric.bind(rig.vax, IpcsKind::tcp, "b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(a.value()->phys(), b.value()->phys());
}

TEST(Endpoint, MbxNamesMustBeUniquePerMachine) {
  Rig rig;
  auto a = rig.fabric.bind(rig.vax, IpcsKind::mbx, "box");
  ASSERT_TRUE(a.ok());
  auto b = rig.fabric.bind(rig.vax, IpcsKind::mbx, "box");
  EXPECT_EQ(b.code(), ntcs::Errc::already_exists);
  // Same name on another machine is a different pathname.
  auto c = rig.fabric.bind(rig.sun, IpcsKind::mbx, "box");
  EXPECT_TRUE(c.ok());
}

TEST(Endpoint, ConnectAndExchange) {
  Rig rig;
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::tcp, "b").value();

  auto chan = a->connect(b->phys());
  ASSERT_TRUE(chan.ok());

  auto opened = b->recv_for(1s);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(opened.value().kind, DeliveryKind::opened);
  EXPECT_EQ(opened.value().peer_phys, a->phys());
  EXPECT_EQ(opened.value().chan, chan.value());

  Bytes msg = to_bytes("ping");
  ASSERT_TRUE(a->send(chan.value(), msg).ok());
  auto got = b->recv_for(1s);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().kind, DeliveryKind::data);
  EXPECT_EQ(to_string(got.value().payload), "ping");

  // And back.
  ASSERT_TRUE(b->send(chan.value(), to_bytes("pong")).ok());
  auto back = a->recv_for(1s);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(to_string(back.value().payload), "pong");
}

TEST(Endpoint, ConnectToUnboundTcpIsRefused) {
  Rig rig;
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto r = a->connect("tcp:sun1:9999");
  EXPECT_EQ(r.code(), ntcs::Errc::refused);
}

TEST(Endpoint, ConnectToUnboundMbxIsAddressFault) {
  Rig rig;
  auto a = rig.fabric.bind(rig.vax, IpcsKind::mbx, "a").value();
  auto r = a->connect("mbx:/sun1/nothing");
  EXPECT_EQ(r.code(), ntcs::Errc::address_fault);
}

TEST(Endpoint, CrossIpcsConnectIsUnsupported) {
  Rig rig;
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::mbx, "b").value();
  auto r = a->connect(b->phys());
  EXPECT_EQ(r.code(), ntcs::Errc::unsupported);
}

TEST(Endpoint, NoSharedNetworkIsUnreachable) {
  Fabric fabric{1};
  auto na = fabric.add_network("net-a");
  auto nb = fabric.add_network("net-b");
  auto m1 = fabric.add_machine("m1", Arch::vax780, {na});
  auto m2 = fabric.add_machine("m2", Arch::sun3, {nb});
  auto a = fabric.bind(m1, IpcsKind::tcp, "a").value();
  auto b = fabric.bind(m2, IpcsKind::tcp, "b").value();
  auto r = a->connect(b->phys());
  EXPECT_EQ(r.code(), ntcs::Errc::address_fault);
}

TEST(Endpoint, SameMachineNeedsNoNetwork) {
  Fabric fabric{1};
  auto m = fabric.add_machine("lonely", Arch::sun3, {});
  auto a = fabric.bind(m, IpcsKind::tcp, "a").value();
  auto b = fabric.bind(m, IpcsKind::tcp, "b").value();
  auto chan = a->connect(b->phys());
  ASSERT_TRUE(chan.ok());
  ASSERT_TRUE(a->send(chan.value(), to_bytes("x")).ok());
  (void)b->recv_for(1s);  // opened
  auto got = b->recv_for(1s);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(to_string(got.value().payload), "x");
}

TEST(Endpoint, MtuEnforced) {
  Rig rig;
  auto a = rig.fabric.bind(rig.vax, IpcsKind::mbx, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::mbx, "b").value();
  auto chan = a->connect(b->phys()).value();
  Bytes big(ipcs_mtu(IpcsKind::mbx) + 1, 0x7);
  EXPECT_EQ(a->send(chan, big).code(), ntcs::Errc::too_big);
}

TEST(Endpoint, CloseChannelNotifiesPeer) {
  Rig rig;
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::tcp, "b").value();
  auto chan = a->connect(b->phys()).value();
  (void)b->recv_for(1s);  // opened
  ASSERT_TRUE(a->close_channel(chan).ok());
  auto got = b->recv_for(1s);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got.value().kind, DeliveryKind::closed);
  // Sending on the dead channel faults.
  EXPECT_EQ(b->send(chan, to_bytes("late")).code(),
            ntcs::Errc::address_fault);
}

TEST(Endpoint, EndpointCloseKillsAllChannels) {
  Rig rig;
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::tcp, "b").value();
  auto c = rig.fabric.bind(rig.sun, IpcsKind::tcp, "c").value();
  auto ab = a->connect(b->phys()).value();
  auto ac = a->connect(c->phys()).value();
  (void)ab;
  (void)ac;
  a->close();
  EXPECT_TRUE(a->is_closed());
  auto evb = b->recv_for(1s);
  ASSERT_TRUE(evb.ok());
  // b sees opened then closed (order preserved per channel).
  if (evb.value().kind == DeliveryKind::opened) {
    evb = b->recv_for(1s);
    ASSERT_TRUE(evb.ok());
  }
  EXPECT_EQ(evb.value().kind, DeliveryKind::closed);
}

TEST(Endpoint, RecvAfterCloseDrainsThenCloses) {
  Rig rig;
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto r = a->recv_for(5ms);
  EXPECT_EQ(r.code(), ntcs::Errc::timeout);
  a->close();
  r = a->recv_for(5ms);
  EXPECT_EQ(r.code(), ntcs::Errc::closed);
}

TEST(Endpoint, ProbeSeesBindings) {
  Rig rig;
  EXPECT_FALSE(rig.fabric.probe("tcp:vax1:5000"));
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  EXPECT_TRUE(rig.fabric.probe(a->phys()));
  a->close();
  EXPECT_FALSE(rig.fabric.probe(a->phys()));
}

TEST(FaultInjection, PartitionBlocksTraffic) {
  Rig rig;
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::tcp, "b").value();
  auto chan = a->connect(b->phys()).value();
  rig.fabric.set_partitioned(rig.lan, true);
  EXPECT_EQ(a->send(chan, to_bytes("x")).code(), ntcs::Errc::partitioned);
  EXPECT_EQ(a->connect(b->phys()).code(), ntcs::Errc::partitioned);
  rig.fabric.set_partitioned(rig.lan, false);
  EXPECT_TRUE(a->send(chan, to_bytes("x")).ok());
}

TEST(FaultInjection, LossDropsFramesSilently) {
  Rig rig;
  rig.fabric.set_loss(rig.lan, 1.0);
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::tcp, "b").value();
  auto chan = a->connect(b->phys()).value();
  (void)b->recv_for(1s);  // opened (control, not lossy)
  EXPECT_TRUE(a->send(chan, to_bytes("gone")).ok());
  EXPECT_EQ(b->recv_for(20ms).code(), ntcs::Errc::timeout);
  EXPECT_EQ(counter_value(rig.fabric.metrics(), "simnet.frames_dropped"), 1u);
}

TEST(FaultInjection, KillChannelNotifiesBothEnds) {
  Rig rig;
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::tcp, "b").value();
  auto chan = a->connect(b->phys()).value();
  (void)b->recv_for(1s);  // opened
  ASSERT_TRUE(rig.fabric.kill_channel(chan).ok());
  EXPECT_EQ(a->recv_for(1s).value().kind, DeliveryKind::closed);
  EXPECT_EQ(b->recv_for(1s).value().kind, DeliveryKind::closed);
  EXPECT_EQ(rig.fabric.kill_channel(chan).code(), ntcs::Errc::not_found);
}

TEST(Latency, DelaysDelivery) {
  Rig rig;
  rig.fabric.set_latency(rig.lan, 20ms, 20ms);
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::tcp, "b").value();
  const auto t0 = std::chrono::steady_clock::now();
  auto chan = a->connect(b->phys()).value();
  ASSERT_TRUE(a->send(chan, to_bytes("slow")).ok());
  (void)b->recv_for(1s);  // opened (delayed too)
  auto got = b->recv_for(1s);
  ASSERT_TRUE(got.ok());
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(elapsed, 20ms);
}

TEST(Latency, FifoPreservedPerChannel) {
  Rig rig;
  rig.fabric.set_latency(rig.lan, 0ms, 5ms);  // jitter
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::tcp, "b").value();
  auto chan = a->connect(b->phys()).value();
  (void)b->recv_for(1s);  // opened
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(a->send(chan, to_bytes(std::to_string(i))).ok());
  }
  for (int i = 0; i < 50; ++i) {
    auto got = b->recv_for(1s);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(to_string(got.value().payload), std::to_string(i));
  }
}

TEST(Latency, BandwidthSerialisesFrames) {
  // 1 MB/s link: a 10 KiB frame takes ~10 ms on the wire, and back-to-back
  // frames queue (~20 ms for two).
  Rig rig;
  rig.fabric.set_bandwidth(rig.lan, 1'000'000);
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::tcp, "b").value();
  auto chan = a->connect(b->phys()).value();
  (void)b->recv_for(1s);  // opened
  Bytes frame(10 * 1024, 0x1);
  const auto t0 = std::chrono::steady_clock::now();
  ASSERT_TRUE(a->send(chan, frame).ok());
  ASSERT_TRUE(a->send(chan, frame).ok());
  ASSERT_TRUE(b->recv_for(2s).ok());
  const auto first = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(b->recv_for(2s).ok());
  const auto second = std::chrono::steady_clock::now() - t0;
  EXPECT_GE(first, 9ms);
  EXPECT_GE(second, 19ms);  // queued behind the first
}

TEST(Clocks, SkewIsVisible) {
  Rig rig;
  rig.fabric.set_clock_offset(rig.vax, 1h);
  const auto vax_now = rig.fabric.machine_now(rig.vax);
  const auto sun_now = rig.fabric.machine_now(rig.sun);
  EXPECT_GT(vax_now - sun_now, 59min);
}

TEST(Stats, CountsTraffic) {
  Rig rig;
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::tcp, "b").value();
  auto chan = a->connect(b->phys()).value();
  ASSERT_TRUE(a->send(chan, to_bytes("12345")).ok());
  const metrics::Snapshot s = rig.fabric.metrics().snapshot();
  EXPECT_EQ(counter_value(s, "simnet.connects_ok"), 1u);
  EXPECT_EQ(counter_value(s, "simnet.frames_sent"), 1u);
  EXPECT_EQ(counter_value(s, "simnet.bytes_sent"), 5u);
}

TEST(FabricTopology, NameLookupsReturnDurableValues) {
  // machine_name/network_name return copies: the values must stay intact
  // even when topology growth reallocates the underlying vectors.
  Rig rig;
  const std::string m = rig.fabric.machine_name(rig.vax);
  const std::string n = rig.fabric.network_name(rig.lan);
  for (int i = 0; i < 200; ++i) {
    rig.fabric.add_machine("extra-" + std::to_string(i), Arch::apollo_dn330,
                           {rig.lan});
    rig.fabric.add_network("net-" + std::to_string(i));
  }
  EXPECT_EQ(m, "vax1");
  EXPECT_EQ(n, "lan-a");
  EXPECT_EQ(rig.fabric.machine_name(rig.vax), "vax1");
  EXPECT_EQ(rig.fabric.network_name(rig.lan), "lan-a");
}

TEST(FabricTopology, NameLookupRacesTopologyGrowth) {
  // Regression for the dangling-reference bug: under TSan this test is the
  // tripwire — reading a returned reference into machines_ while
  // add_machine reallocates the vector was a use-after-free.
  Rig rig;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      if (rig.fabric.machine_name(rig.vax) != "vax1") break;
      if (rig.fabric.network_name(rig.lan) != "lan-a") break;
    }
  });
  for (int i = 0; i < 2000; ++i) {
    rig.fabric.add_machine("m-" + std::to_string(i), Arch::sun3, {rig.lan});
    if (i % 4 == 0) rig.fabric.add_network("n-" + std::to_string(i));
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(rig.fabric.machine_name(rig.vax), "vax1");
}

TEST(FaultInjection, KillDuringBurstCloseDoesNotOvertake) {
  // Regression for kill_channel enqueuing `closed` at `now`: with frames
  // still in flight on a slow link, the close must queue behind them, not
  // overtake (the ordering contract of close_channel_impl).
  Rig rig;
  rig.fabric.set_latency(rig.lan, 5ms, 10ms);
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::tcp, "b").value();
  auto chan = a->connect(b->phys()).value();
  (void)b->recv_for(1s);  // opened
  constexpr int kBurst = 30;
  for (int i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(a->send(chan, to_bytes(std::to_string(i))).ok());
  }
  ASSERT_TRUE(rig.fabric.kill_channel(chan).ok());
  int data_seen = 0;
  bool closed_seen = false;
  for (;;) {
    auto got = b->recv_for(1s);
    if (!got.ok()) break;
    if (got.value().kind == DeliveryKind::closed) {
      closed_seen = true;
      break;
    }
    ASSERT_FALSE(closed_seen);
    EXPECT_EQ(to_string(got.value().payload), std::to_string(data_seen));
    ++data_seen;
  }
  EXPECT_TRUE(closed_seen);
  EXPECT_EQ(data_seen, kBurst);  // every in-flight frame beat the close
}

TEST(FaultInjection, ChannelCountTracksLifecycles) {
  Rig rig;
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::tcp, "b").value();
  EXPECT_EQ(rig.fabric.channel_count(), 0u);
  auto c1 = a->connect(b->phys()).value();
  auto c2 = a->connect(b->phys()).value();
  EXPECT_EQ(rig.fabric.channel_count(), 2u);
  ASSERT_TRUE(a->close_channel(c1).ok());
  EXPECT_EQ(rig.fabric.channel_count(), 1u);
  ASSERT_TRUE(rig.fabric.kill_channel(c2).ok());
  EXPECT_EQ(rig.fabric.channel_count(), 0u);
}

TEST(FaultPlan, DuplicationDeliversCopies) {
  Rig rig;
  FaultPlan plan;
  plan.dup_prob = 1.0;
  rig.fabric.set_fault_plan(rig.lan, plan);
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::tcp, "b").value();
  auto chan = a->connect(b->phys()).value();
  (void)b->recv_for(1s);  // opened
  ASSERT_TRUE(a->send(chan, to_bytes("echo")).ok());
  auto first = b->recv_for(1s);
  auto second = b->recv_for(1s);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first.value().payload, second.value().payload);
  EXPECT_EQ(counter_value(rig.fabric.metrics(), "simnet.dup"), 1u);
  rig.fabric.clear_faults();
  ASSERT_TRUE(a->send(chan, to_bytes("solo")).ok());
  ASSERT_TRUE(b->recv_for(1s).ok());
  EXPECT_EQ(b->pending(), 0u);  // no trailing copy once cleared
}

TEST(FaultPlan, ReorderingLetsLaterFramesOvertake) {
  Rig rig;
  FaultPlan plan;
  plan.reorder_prob = 0.5;
  plan.reorder_window = 2ms;
  rig.fabric.set_fault_plan(rig.lan, plan);
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::tcp, "b").value();
  auto chan = a->connect(b->phys()).value();
  (void)b->recv_for(1s);  // opened
  constexpr int kFrames = 200;
  for (int i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(a->send(chan, to_bytes(std::to_string(i))).ok());
  }
  std::vector<int> order;
  for (int i = 0; i < kFrames; ++i) {
    auto got = b->recv_for(1s);
    ASSERT_TRUE(got.ok());
    order.push_back(std::stoi(to_string(got.value().payload)));
  }
  // Everything arrives exactly once...
  std::set<int> uniq(order.begin(), order.end());
  EXPECT_EQ(uniq.size(), order.size());
  // ...but not in send order, and the fabric counted what it did.
  EXPECT_FALSE(std::is_sorted(order.begin(), order.end()));
  EXPECT_GT(counter_value(rig.fabric.metrics(), "simnet.reordered"), 0u);
}

TEST(FaultPlan, FlappingLinkDropsAndRecovers) {
  Rig rig;
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::tcp, "b").value();
  auto chan = a->connect(b->phys()).value();
  (void)b->recv_for(1s);  // opened
  FaultPlan plan;
  plan.flap_period = 40ms;
  plan.flap_down = 20ms;  // cycle starts down
  rig.fabric.set_fault_plan(rig.lan, plan);
  // Down phase: connects are refused with the transient face of failure,
  // data frames vanish silently.
  EXPECT_EQ(a->connect(b->phys()).code(), ntcs::Errc::timeout);
  ASSERT_TRUE(a->send(chan, to_bytes("lost")).ok());
  const metrics::Snapshot down = rig.fabric.metrics().snapshot();
  EXPECT_EQ(counter_value(down, "simnet.flap_dropped"), 1u);
  EXPECT_GE(counter_value(down, "simnet.flaps"), 1u);
  // Up phase: traffic flows again.
  std::this_thread::sleep_for(25ms);
  EXPECT_TRUE(a->connect(b->phys()).ok());
  (void)b->recv_for(1s);  // opened (the up-phase probe connect)
  ASSERT_TRUE(a->send(chan, to_bytes("through")).ok());
  auto got = b->recv_for(1s);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(to_string(got.value().payload), "through");
}

TEST(FaultPlan, CorruptionFlipsBytesPerDirection) {
  Rig rig;
  FaultPlan plan;
  plan.corrupt_prob = 1.0;
  plan.corrupt_to_b = true;
  plan.corrupt_to_a = false;
  rig.fabric.set_fault_plan(rig.lan, plan);
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::tcp, "b").value();
  auto chan = a->connect(b->phys()).value();
  (void)b->recv_for(1s);  // opened
  const Bytes msg = to_bytes("pristine");
  ASSERT_TRUE(a->send(chan, msg).ok());
  auto to_b_got = b->recv_for(1s);
  ASSERT_TRUE(to_b_got.ok());
  EXPECT_NE(to_b_got.value().payload, msg);  // a -> b corrupted
  EXPECT_EQ(to_b_got.value().payload.size(), msg.size());
  ASSERT_TRUE(b->send(chan, msg).ok());
  auto to_a_got = a->recv_for(1s);
  ASSERT_TRUE(to_a_got.ok());
  EXPECT_EQ(to_a_got.value().payload, msg);  // b -> a untouched
  EXPECT_EQ(counter_value(rig.fabric.metrics(), "simnet.frames_corrupted"),
            1u);
}

TEST(FaultPlan, JitterDelaysButPreservesFifo) {
  Rig rig;
  FaultPlan plan;
  plan.jitter = 3ms;
  rig.fabric.set_fault_plan(rig.lan, plan);
  auto a = rig.fabric.bind(rig.vax, IpcsKind::tcp, "a").value();
  auto b = rig.fabric.bind(rig.sun, IpcsKind::tcp, "b").value();
  auto chan = a->connect(b->phys()).value();
  (void)b->recv_for(1s);  // opened
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(a->send(chan, to_bytes(std::to_string(i))).ok());
  }
  for (int i = 0; i < 40; ++i) {
    auto got = b->recv_for(1s);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(to_string(got.value().payload), std::to_string(i));
  }
}

TEST(FaultPlan, DeterministicForFixedSeed) {
  // Two fabrics with the same seed and workload inject identical faults.
  auto run = [] {
    Fabric fabric{77};
    auto lan = fabric.add_network("lan");
    auto m1 = fabric.add_machine("m1", Arch::vax780, {lan});
    auto m2 = fabric.add_machine("m2", Arch::sun3, {lan});
    FaultPlan plan;
    plan.dup_prob = 0.3;
    plan.reorder_prob = 0.3;
    plan.corrupt_prob = 0.1;
    fabric.set_fault_plan(lan, plan);
    auto a = fabric.bind(m1, IpcsKind::tcp, "a").value();
    auto b = fabric.bind(m2, IpcsKind::tcp, "b").value();
    auto chan = a->connect(b->phys()).value();
    (void)b->recv_for(1s);
    for (int i = 0; i < 100; ++i) {
      (void)a->send(chan, to_bytes(std::to_string(i)));
    }
    const metrics::Snapshot s = fabric.metrics().snapshot();
    return std::tuple{counter_value(s, "simnet.dup"),
                      counter_value(s, "simnet.reordered"),
                      counter_value(s, "simnet.frames_corrupted")};
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
}  // namespace ntcs::simnet
