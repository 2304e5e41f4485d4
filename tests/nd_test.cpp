// Unit tests for the ND-Layer (S5): STD-IF semantics, the channel-open
// exchange, retry-on-open, fragmentation, TAdd promotion, the phys cache.
//
// The contract cases (NdConformance) are value-parameterized over the
// substrate: every assertion must hold over the simulated fabric and over
// real loopback TCP sockets, because the STD-IF is the paper's portability
// boundary — nothing above the ND-Layer may care which one is underneath.
// Fault-injection and fabric-accounting cases (NdSimnet) stay simnet-only;
// their real-socket counterparts live in realnet_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "backend_harness.h"
#include "common/queue.h"
#include "core/nd/nd_layer.h"
#include "scope_counters.h"

namespace ntcs::core {
namespace {

using namespace std::chrono_literals;
using convert::Arch;
using harness::BackendKind;
using simnet::IpcsKind;

/// The IP envelope an ND message event carries, as an owned buffer.
Bytes envelope_of(const NdEvent& ev) {
  const BytesView m = ev.message();
  return Bytes(m.begin(), m.end());
}

/// A bare two-endpoint rig: no Nucleus above, just two ND-Layers over a
/// BackendPair. Both sides are pumped continuously (as a Node would) with
/// the upward events collected into queues the tests pop from.
struct NdRig {
  harness::BackendPair pair;
  std::shared_ptr<Identity> id_a, id_b;
  // Each layer's counters: a scope per side, as a Node would give it.
  metrics::MetricsRegistry metrics_a{metrics::MetricsRegistry::instance()};
  metrics::MetricsRegistry metrics_b{metrics::MetricsRegistry::instance()};
  std::unique_ptr<NdLayer> a, b;
  BlockingQueue<NdEvent> events_a, events_b;
  std::jthread pump_a, pump_b;

  explicit NdRig(BackendKind kind, NdConfig cfg = {},
                 IpcsKind ipcs = IpcsKind::tcp)
      : pair(kind, ipcs) {
    id_a = std::make_shared<Identity>("mod-a", pair.a->arch(), "lan");
    id_b = std::make_shared<Identity>("mod-b", pair.b->arch(), "lan");
    a = std::make_unique<NdLayer>(*pair.a, "mod-a", id_a, metrics_a, cfg);
    b = std::make_unique<NdLayer>(*pair.b, "mod-b", id_b, metrics_b, cfg);
    EXPECT_TRUE(a->bind().ok());
    EXPECT_TRUE(b->bind().ok());
    pump_a = start_pump(*a, events_a);
    pump_b = start_pump(*b, events_b);
  }

  ~NdRig() {
    pump_a.request_stop();
    pump_b.request_stop();
  }

  static std::jthread start_pump(NdLayer& nd, BlockingQueue<NdEvent>& out) {
    return std::jthread([&nd, &out](std::stop_token st) {
      while (!st.stop_requested()) {
        auto ev = nd.pump(20ms);
        if (!ev) {
          if (ev.code() == Errc::timeout) continue;
          break;
        }
        if (ev.value()) (void)out.push(std::move(*ev.value()));
      }
    });
  }

  Result<NdEvent> next_a() { return events_a.pop_for(2s); }
  Result<NdEvent> next_b() { return events_b.pop_for(2s); }
};

class NdConformance : public ::testing::TestWithParam<BackendKind> {};

INSTANTIATE_TEST_SUITE_P(
    Backends, NdConformance,
    ::testing::Values(BackendKind::simnet, BackendKind::realnet),
    [](const ::testing::TestParamInfo<BackendKind>& info) {
      return harness::backend_param_name(info.param);
    });

TEST_P(NdConformance, BindPublishesPhys) {
  NdRig rig(GetParam());
  EXPECT_TRUE(rig.a->local_phys().valid());
  EXPECT_EQ(rig.id_a->phys(), rig.a->local_phys());
  EXPECT_TRUE(rig.pair.a->probe(rig.a->local_phys().blob));
}

TEST_P(NdConformance, OpenExchangesIdentity) {
  NdRig rig(GetParam());
  rig.id_a->set_uadd(UAdd::permanent(1001));
  rig.id_b->set_uadd(UAdd::permanent(1002));

  auto lvc = rig.a->open(rig.b->local_phys());
  ASSERT_TRUE(lvc.ok());
  // b's side: pump until the opened event, then check what b learned.
  auto ev = rig.next_b();
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().kind, NdEvent::Kind::opened);
  auto peer_at_b = rig.b->peer(ev.value().lvc);
  ASSERT_TRUE(peer_at_b.has_value());
  EXPECT_EQ(peer_at_b->uadd, UAdd::permanent(1001));
  EXPECT_EQ(peer_at_b->arch, Arch::vax780);
  EXPECT_EQ(peer_at_b->phys, rig.a->local_phys());
  // a's side learned b's identity from the ack.
  auto peer_at_a = rig.a->peer(lvc.value());
  ASSERT_TRUE(peer_at_a.has_value());
  EXPECT_EQ(peer_at_a->uadd, UAdd::permanent(1002));
  EXPECT_EQ(peer_at_a->arch, Arch::sun3);
  // The open exchange populated both phys caches (§3.3).
  EXPECT_EQ(rig.a->cached_phys(UAdd::permanent(1002)), rig.b->local_phys());
  EXPECT_EQ(rig.b->cached_phys(UAdd::permanent(1001)), rig.a->local_phys());
}

TEST_P(NdConformance, TAddNotCached) {
  // TAdds "are of no use in locating objects" (§3.4): never cached.
  NdRig rig(GetParam());
  auto lvc = rig.a->open(rig.b->local_phys());
  ASSERT_TRUE(lvc.ok());
  auto ev = rig.next_b();
  ASSERT_TRUE(ev.ok());
  auto peer_at_b = rig.b->peer(ev.value().lvc);
  ASSERT_TRUE(peer_at_b.has_value());
  EXPECT_TRUE(peer_at_b->uadd.is_temporary());
  EXPECT_FALSE(rig.b->cached_phys(peer_at_b->uadd).has_value());
}

TEST_P(NdConformance, PromotePeerReplacesTAdd) {
  NdRig rig(GetParam());
  auto lvc = rig.a->open(rig.b->local_phys());
  ASSERT_TRUE(lvc.ok());
  auto ev = rig.next_b();
  const LvcId at_b = ev.value().lvc;
  rig.b->promote_peer(at_b, UAdd::permanent(5000));
  auto peer = rig.b->peer(at_b);
  ASSERT_TRUE(peer.has_value());
  EXPECT_EQ(peer->uadd, UAdd::permanent(5000));
  // Promotion also installs the phys cache entry.
  EXPECT_EQ(rig.b->cached_phys(UAdd::permanent(5000)), rig.a->local_phys());
  EXPECT_EQ(counter_value(rig.metrics_b, "nd.tadds_promoted"), 1u);
  // Promoting again (or to a TAdd) is a no-op.
  rig.b->promote_peer(at_b, UAdd::permanent(6000));
  EXPECT_EQ(rig.b->peer(at_b)->uadd, UAdd::permanent(5000));
}

TEST_P(NdConformance, MessagesRoundTrip) {
  NdRig rig(GetParam());
  auto lvc = rig.a->open(rig.b->local_phys());
  ASSERT_TRUE(lvc.ok());
  Bytes msg = to_bytes("the ip envelope");
  ASSERT_TRUE(rig.a->send(lvc.value(), msg).ok());
  // b: first event is `opened`, second is the message.
  auto ev = rig.next_b();
  ASSERT_TRUE(ev.ok());
  ASSERT_EQ(ev.value().kind, NdEvent::Kind::opened);
  ev = rig.next_b();
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().kind, NdEvent::Kind::message);
  EXPECT_EQ(envelope_of(ev.value()), msg);
}

TEST_P(NdConformance, FragmentationOverTcpMtu) {
  // Both TCP IPCSs (simulated and real) share the 16 KiB MTU, so the same
  // message produces the same fragment train on either substrate.
  NdRig rig(GetParam());
  ASSERT_EQ(realnet::tcp_mtu(), simnet::ipcs_mtu(IpcsKind::tcp));
  auto lvc = rig.a->open(rig.b->local_phys());
  ASSERT_TRUE(lvc.ok());
  Bytes big(3 * realnet::tcp_mtu() + 17);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_TRUE(rig.a->send(lvc.value(), big).ok());
  (void)rig.next_b();  // opened
  auto ev = rig.next_b();
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().kind, NdEvent::Kind::message);
  EXPECT_EQ(envelope_of(ev.value()), big);
}

TEST_P(NdConformance, RetryOnOpenOutwaitsLateBinder) {
  // §2.2: the only ND-Layer recovery is "retry on open". The destination
  // binds a moment after the first attempt, on an address the opener can
  // know in advance: an MBX pathname over simnet, a well-known port
  // (TcpConfig::fixed_ports — the multi-process bootstrap mechanism)
  // over realnet.
  NdRig rig(GetParam());
  auto lb = rig.pair.late_binder();
  NdConfig cfg;
  cfg.open_attempts = 40;
  cfg.open_backoff = BackoffPolicy{2ms, 8ms, 2.0, 0.5};
  metrics::MetricsRegistry opener_metrics{metrics::MetricsRegistry::instance()};
  NdLayer opener(*lb.opener, "op-late", rig.id_a, opener_metrics, cfg);
  ASSERT_TRUE(opener.bind().ok());
  BlockingQueue<NdEvent> scratch;
  auto pump_o = NdRig::start_pump(opener, scratch);

  auto late_id =
      std::make_shared<Identity>(lb.binder_name, lb.binder->arch(), "lan");
  metrics::MetricsRegistry late_metrics{metrics::MetricsRegistry::instance()};
  NdLayer late(*lb.binder, lb.binder_name, late_id, late_metrics);
  std::jthread late_pump;
  std::jthread binder([&] {
    std::this_thread::sleep_for(30ms);
    ASSERT_TRUE(late.bind().ok());
    late_pump = std::jthread([&late](std::stop_token st) {
      while (!st.stop_requested()) (void)late.pump(20ms);
    });
  });
  auto lvc = opener.open(PhysAddr{lb.known_phys});
  EXPECT_TRUE(lvc.ok());
  EXPECT_GT(counter_value(opener_metrics, "nd.open_retries"), 0u);
  binder.join();
  late_pump.request_stop();
  pump_o.request_stop();
}

TEST_P(NdConformance, OpenToNothingFailsAfterRetries) {
  NdConfig cfg;
  cfg.open_attempts = 3;
  cfg.open_backoff = BackoffPolicy{1ms, 2ms, 2.0, 0.5};
  NdRig rig(GetParam(), cfg);
  auto r = rig.a->open(PhysAddr{rig.pair.unreachable_phys()});
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(counter_value(rig.metrics_a, "nd.open_retries"), 2u);
}

TEST_P(NdConformance, MalformedAddressFailsFast) {
  NdRig rig(GetParam());
  auto r = rig.a->open(PhysAddr{"total garbage"});
  EXPECT_EQ(r.code(), Errc::bad_argument);
  // No pointless retries.
  EXPECT_EQ(counter_value(rig.metrics_a, "nd.open_retries"), 0u);
}

TEST_P(NdConformance, PeerCloseSurfacesAsEvent) {
  NdRig rig(GetParam());
  auto lvc = rig.a->open(rig.b->local_phys());
  ASSERT_TRUE(lvc.ok());
  auto ev = rig.next_b();  // opened
  const LvcId at_b = ev.value().lvc;
  ASSERT_TRUE(rig.a->close(lvc.value()).ok());
  ev = rig.next_b();
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().kind, NdEvent::Kind::closed);
  EXPECT_EQ(ev.value().lvc, at_b);
  // Sending on the dead LVC is an address fault; "notification is simply
  // passed upward" — no recovery here.
  EXPECT_EQ(rig.b->send(at_b, to_bytes("x")).code(), Errc::address_fault);
}

TEST_P(NdConformance, SendOnUnknownLvcFaults) {
  NdRig rig(GetParam());
  EXPECT_EQ(rig.a->send(424242, to_bytes("x")).code(), Errc::address_fault);
}

TEST_P(NdConformance, PhysCacheBasics) {
  NdRig rig(GetParam());
  rig.a->cache_phys(UAdd::permanent(7), PhysAddr{"tcp:x:1"});
  EXPECT_EQ(rig.a->cached_phys(UAdd::permanent(7))->blob, "tcp:x:1");
  rig.a->uncache_phys(UAdd::permanent(7));
  EXPECT_FALSE(rig.a->cached_phys(UAdd::permanent(7)).has_value());
  // Temporary addresses are rejected by the cache.
  rig.a->cache_phys(UAdd::temporary(7), PhysAddr{"tcp:y:2"});
  EXPECT_FALSE(rig.a->cached_phys(UAdd::temporary(7)).has_value());
}

TEST_P(NdConformance, ShutdownStopsPump) {
  NdRig rig(GetParam());
  rig.a->shutdown();
  auto ev = rig.a->pump(50ms);
  EXPECT_EQ(ev.code(), Errc::closed);
}

TEST_P(NdConformance, StatsCountTraffic) {
  NdRig rig(GetParam());
  auto lvc = rig.a->open(rig.b->local_phys());
  ASSERT_TRUE(lvc.ok());
  ASSERT_TRUE(rig.a->send(lvc.value(), to_bytes("m")).ok());
  (void)rig.next_b();
  (void)rig.next_b();
  EXPECT_EQ(counter_value(rig.metrics_a, "nd.opens"), 1u);
  EXPECT_EQ(counter_value(rig.metrics_a, "nd.msgs_sent"), 1u);
  EXPECT_EQ(counter_value(rig.metrics_b, "nd.opens_accepted"), 1u);
  EXPECT_EQ(counter_value(rig.metrics_b, "nd.msgs_received"), 1u);
}

// ---- simnet-only cases: fault injection and fabric accounting -------------

TEST(NdSimnet, FragmentationOverMbxMtu) {
  NdRig rig(BackendKind::simnet, {}, IpcsKind::mbx);
  auto lvc = rig.a->open(rig.b->local_phys());
  ASSERT_TRUE(lvc.ok());
  Bytes big(3 * simnet::ipcs_mtu(IpcsKind::mbx) + 17);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i);
  }
  ASSERT_TRUE(rig.a->send(lvc.value(), big).ok());
  (void)rig.next_b();  // opened
  auto ev = rig.next_b();
  ASSERT_TRUE(ev.ok());
  EXPECT_EQ(ev.value().kind, NdEvent::Kind::message);
  EXPECT_EQ(envelope_of(ev.value()), big);
}

TEST(NdSimnet, FailedOpenLeaksNoChannels_AckTimeout) {
  // A peer that accepts the IPCS connection but never answers the NdOpen:
  // every attempt must tear its channel down, not strand it in the fabric.
  NdConfig cfg;
  cfg.open_attempts = 2;
  cfg.open_backoff = BackoffPolicy{1ms, 2ms, 2.0, 0.5};
  cfg.open_ack_timeout = 30ms;
  NdRig rig(BackendKind::simnet, cfg);
  auto& fabric = *rig.pair.fabric;
  auto mute = fabric.bind(rig.pair.m_b, IpcsKind::tcp, "mute").value();
  auto r = rig.a->open(PhysAddr{mute->phys()});
  EXPECT_EQ(r.code(), Errc::timeout);
  EXPECT_EQ(fabric.channel_count(), 0u);
}

TEST(NdSimnet, FailedOpenLeaksNoChannels_KilledDuringOpen) {
  // The fabric kills the channel mid-handshake (the nacked-open path: the
  // pump fails the waiter with an address fault). Regression for the leak
  // where the dead-but-present channel was never closed.
  NdConfig cfg;
  cfg.open_attempts = 2;
  cfg.open_backoff = BackoffPolicy{1ms, 2ms, 2.0, 0.5};
  NdRig rig(BackendKind::simnet, cfg);
  auto& fabric = *rig.pair.fabric;
  auto trap = fabric.bind(rig.pair.m_b, IpcsKind::tcp, "trap").value();
  std::jthread killer([&](std::stop_token st) {
    while (!st.stop_requested()) {
      auto d = trap->recv_for(20ms);
      if (d.ok() && d.value().kind == simnet::DeliveryKind::opened) {
        (void)fabric.kill_channel(d.value().chan);
      }
    }
  });
  auto r = rig.a->open(PhysAddr{trap->phys()});
  EXPECT_EQ(r.code(), Errc::address_fault);
  killer.request_stop();
  killer.join();
  EXPECT_EQ(fabric.channel_count(), 0u);
}

TEST(NdSimnet, FailedOpenLeaksNoChannels_PartitionChurn) {
  // Partition flickering during a batch of opens exercises every failure
  // point — connect refused, the introduction send failing after the
  // channel exists (the classic leak), ack lost. However each open ends,
  // channel accounting must balance.
  NdConfig cfg;
  cfg.open_attempts = 1;
  cfg.open_ack_timeout = 30ms;
  NdRig rig(BackendKind::simnet, cfg);
  auto& fabric = *rig.pair.fabric;
  std::atomic<bool> stop{false};
  std::jthread toggler([&] {
    bool part = false;
    while (!stop.load()) {
      part = !part;
      fabric.set_partitioned(rig.pair.lan, part);
      std::this_thread::sleep_for(200us);
    }
  });
  std::vector<LvcId> opened;
  for (int i = 0; i < 20; ++i) {
    auto r = rig.a->open(rig.b->local_phys());
    if (r.ok()) opened.push_back(r.value());
  }
  stop.store(true);
  toggler.join();
  fabric.set_partitioned(rig.pair.lan, false);
  for (LvcId lvc : opened) EXPECT_TRUE(rig.a->close(lvc).ok());
  EXPECT_EQ(fabric.channel_count(), 0u);
}

TEST(NdSimnet, DuplicatedFramesReachApplicationOnce) {
  // A duplicating network: the ND frame sequence number suppresses the
  // copies, so the layer above sees each message exactly once.
  NdRig rig(BackendKind::simnet);
  auto& fabric = *rig.pair.fabric;
  simnet::FaultPlan plan;
  plan.dup_prob = 1.0;
  fabric.set_fault_plan(rig.pair.lan, plan);
  auto lvc = rig.a->open(rig.b->local_phys());
  ASSERT_TRUE(lvc.ok());
  (void)rig.next_b();  // opened
  constexpr int kMsgs = 10;
  for (int i = 0; i < kMsgs; ++i) {
    ASSERT_TRUE(rig.a->send(lvc.value(), to_bytes(std::to_string(i))).ok());
  }
  for (int i = 0; i < kMsgs; ++i) {
    auto ev = rig.next_b();
    ASSERT_TRUE(ev.ok());
    ASSERT_EQ(ev.value().kind, NdEvent::Kind::message);
    EXPECT_EQ(envelope_of(ev.value()), to_bytes(std::to_string(i)));
  }
  // Nothing further arrives: every duplicate was eaten below the STD-IF.
  EXPECT_EQ(rig.events_b.pop_for(50ms).code(), Errc::timeout);
  EXPECT_GT(counter_value(rig.metrics_b, "nd.frames_deduped"), 0u);
}

}  // namespace
}  // namespace ntcs::core
