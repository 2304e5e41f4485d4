// Tests for the LCM-Layer (S7) behaviours not already covered by the
// integration suite: timeouts, the connectionless protocol, forwarding
// chains, the recursion guard (§6.3 — both patched and reproduced), and
// shutdown semantics.
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <thread>

#include "core/testbed.h"
#include "drts/process_control.h"
#include "simnet/backend.h"
#include "scope_counters.h"

namespace ntcs::core {
namespace {

using namespace std::chrono_literals;
using convert::Arch;

struct Rig {
  Testbed tb;
  std::unique_ptr<Node> a;
  std::unique_ptr<Node> b;

  explicit Rig(LcmConfig lcm_cfg = {}) {
    tb.net("lan");
    tb.machine("m1", Arch::vax780, {"lan"});
    tb.machine("m2", Arch::sun3, {"lan"});
    EXPECT_TRUE(tb.start_name_server("m1", "lan").ok());
    EXPECT_TRUE(tb.finalize().ok());
    NodeConfig cfg_a = tb.node_config("a", "m1", "lan");
    cfg_a.lcm = lcm_cfg;
    a = std::make_unique<Node>(std::move(cfg_a));
    EXPECT_TRUE(a->start().ok());
    EXPECT_TRUE(a->commod().register_self().ok());
    b = tb.spawn_module("b", "m2", "lan").value();
  }
  ~Rig() {
    if (a) a->stop();
    if (b) b->stop();
  }
};

TEST(LcmLayer, RequestTimesOutAgainstSilentPeer) {
  Rig rig;
  auto addr = rig.a->commod().locate("b").value();
  // b never replies.
  auto reply = rig.a->commod().request(addr, to_bytes("anyone?"), 100ms);
  EXPECT_EQ(reply.code(), Errc::timeout);
  // The request itself was delivered.
  auto in = rig.b->commod().receive(1s);
  ASSERT_TRUE(in.ok());
  EXPECT_TRUE(in.value().is_request);
  // A late reply to the timed-out request is dropped silently.
  EXPECT_TRUE(rig.b->commod().reply(in.value().reply_ctx,
                                    to_bytes("too late")).ok());
  std::this_thread::sleep_for(20ms);
}

TEST(LcmLayer, SubMillisecondTimeoutIsHonored) {
  // Regression guard for duration truncation: a 500µs timeout must stay a
  // 500µs deadline all the way down. Coarsening it to whole milliseconds
  // (or seconds) would turn it into 0 — and 0 must mean "use the
  // configured default", not "infinite" and not "already expired".
  Rig rig;
  auto addr = rig.a->commod().locate("b").value();
  // b never replies.
  const auto start = std::chrono::steady_clock::now();
  auto reply = rig.a->commod().request(addr, to_bytes("quick"), 500us);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(reply.code(), Errc::timeout);
  // The deadline actually ran: not an instant synchronous failure...
  EXPECT_GE(elapsed, 400us);
  // ...and nowhere near the 5s config default (generous bound: a loaded
  // machine may oversleep, but three orders of magnitude is the tell).
  EXPECT_LT(elapsed, 2s);
}

TEST(LcmLayer, ZeroTimeoutMeansConfiguredDefault) {
  // SendOptions{timeout: 0} falls back to LcmConfig::request_timeout —
  // it must not be taken literally (instant expiry) nor as "forever".
  LcmConfig cfg;
  cfg.request_timeout = 300ms;
  Rig rig(cfg);
  auto addr = rig.a->commod().locate("b").value();
  SendOptions opts;
  opts.timeout = 0ns;
  const auto start = std::chrono::steady_clock::now();
  auto reply = rig.a->lcm().request(addr, Payload::raw(to_bytes("dflt")),
                                    opts);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(reply.code(), Errc::timeout);
  EXPECT_GE(elapsed, 250ms);  // ran to the configured default...
  EXPECT_LT(elapsed, 3s);     // ...not to some truncated/infinite value
}

TEST(LcmLayer, SubMillisecondTimeoutOnAsyncTicket) {
  // The same guarantee through the pipelined path: the deadline fixed at
  // issue() covers await() at sub-millisecond resolution.
  Rig rig;
  auto addr = rig.a->commod().locate("b").value();
  auto t = rig.a->commod().request_async(addr, to_bytes("quick"), 700us);
  ASSERT_TRUE(t.ok()) << t.error().to_string();
  const auto start = std::chrono::steady_clock::now();
  auto reply = rig.a->commod().await(t.value());
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(reply.code(), Errc::timeout);
  EXPECT_LT(elapsed, 2s);
}

TEST(LcmLayer, SendToInvalidUAddRejected) {
  Rig rig;
  EXPECT_EQ(rig.a->commod().send(UAdd{}, to_bytes("x")).code(),
            Errc::bad_argument);
  EXPECT_EQ(rig.a->commod().request(UAdd{}, to_bytes("x")).code(),
            Errc::bad_argument);
  EXPECT_EQ(rig.a->commod().dgram(UAdd{}, to_bytes("x")).code(),
            Errc::bad_argument);
}

TEST(LcmLayer, SendToUnknownUAddNotFound) {
  Rig rig;
  auto st = rig.a->commod().send(UAdd::permanent(99999), to_bytes("x"));
  EXPECT_EQ(st.code(), Errc::not_found);
}

TEST(LcmLayer, DgramDelivered) {
  Rig rig;
  auto addr = rig.a->commod().locate("b").value();
  ASSERT_TRUE(rig.a->commod().dgram(addr, to_bytes("datagram")).ok());
  auto in = rig.b->commod().receive(1s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "datagram");
  EXPECT_FALSE(in.value().is_request);
}

TEST(LcmLayer, DgramToDeadModuleGivesUpQuickly) {
  // The connectionless protocol has no relocation recovery: one retry.
  Rig rig;
  auto addr = rig.a->commod().locate("b").value();
  ASSERT_TRUE(rig.a->commod().dgram(addr, to_bytes("warm")).ok());
  (void)rig.b->commod().receive(1s);
  rig.b->stop();
  rig.b.reset();
  auto st = rig.a->commod().dgram(addr, to_bytes("lost"));
  EXPECT_FALSE(st.ok());
}

TEST(LcmLayer, ForwardingChainCompresses) {
  // Three generations of the same module: a's forwarding table must chase
  // old -> mid -> new and then compress to old -> new.
  Rig rig;
  auto gen1 = rig.a->commod().locate("b").value();
  ASSERT_TRUE(rig.a->commod().send(gen1, to_bytes("g1")).ok());
  (void)rig.b->commod().receive(1s);

  rig.b->stop();
  auto gen2 = rig.tb.spawn_module("b", "m2", "lan").value();
  ASSERT_TRUE(rig.a->commod().send(gen1, to_bytes("g2")).ok());
  (void)gen2->commod().receive(1s);

  gen2->stop();
  auto gen3 = rig.tb.spawn_module("b", "m1", "lan").value();
  ASSERT_TRUE(rig.a->commod().send(gen1, to_bytes("g3")).ok());
  auto in = gen3->commod().receive(1s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "g3");
  EXPECT_EQ(rig.a->lcm().current_target(gen1), gen3->identity().uadd());
  EXPECT_GE(counter_value(rig.a->metrics(), "lcm.relocations"), 2u);
  gen2.reset();
  gen3->stop();
  rig.b.reset();
}

TEST(LcmLayer, FaultInKillWindowDoesNotStrandClient) {
  // Regression: a fault handled *between* a module's death and its
  // successor's registration retires the old record at the Name Server
  // (forward -> probe dead -> deregister -> not_found). A later send to
  // the same old UAdd then fails resolution — and must still run the
  // forwarding determination, which now finds the successor.
  Rig rig;
  auto addr = rig.a->commod().locate("b").value();
  ASSERT_TRUE(rig.a->commod().send(addr, to_bytes("warm")).ok());
  ASSERT_TRUE(rig.b->commod().receive(1s).ok());

  rig.b->stop();  // dead, no successor yet
  // This send faults; the forwarding query confirms death, retires the
  // record, finds nothing, and the send fails — correctly.
  EXPECT_EQ(rig.a->commod().send(addr, to_bytes("gap")).code(),
            Errc::not_found);

  // The successor registers only now.
  auto gen2 = rig.tb.spawn_module("b", "m1", "lan").value();
  // The retried send must reach it despite resolve(old) being not_found.
  ASSERT_TRUE(rig.a->commod().send(addr, to_bytes("found you")).ok());
  auto in = gen2->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "found you");
  gen2->stop();
  rig.b.reset();
}

/// Waits until `node`'s IP-Layer has counted a circuit close since it read
/// `closed`.
bool await_close(Node& node, std::uint64_t closed) {
  const auto until = std::chrono::steady_clock::now() + 2s;
  while (node.ip().stats().ivcs_closed == closed &&
         std::chrono::steady_clock::now() < until) {
    std::this_thread::sleep_for(1ms);
  }
  return node.ip().stats().ivcs_closed != closed;
}

/// Kills the newest live simnet channel (ids are sequential, so the one
/// established last) and returns whether there was one.
bool kill_newest_channel(Testbed& tb) {
  for (simnet::ChannelId c = 63; c >= 1; --c) {
    if (tb.fabric().kill_channel(c).ok()) return true;
  }
  return false;
}

TEST(LcmLayer, RelocatedDestinationRecoversWithoutReopeningTheDeadAddress) {
  // §3.5: the circuit to a relocated module closes under the client, which
  // asks the naming service where it went before reopening anything — one
  // forward, one resolve, one open. No open retries against the address
  // the module left, and no backoff: nothing failed twice.
  Rig rig;
  drts::ProcessController pc(rig.tb);
  ASSERT_TRUE(
      pc.spawn("svc", "m2", "lan", {}, drts::make_echo_service()).ok());
  auto addr = rig.a->commod().locate("svc").value();
  ASSERT_TRUE(rig.a->commod().request(addr, to_bytes("warm"), 2s).ok());

  const std::uint64_t closed = rig.a->ip().stats().ivcs_closed;
  auto moved = pc.relocate("svc", "m1", "lan");
  ASSERT_TRUE(moved.ok()) << moved.error().to_string();
  ASSERT_TRUE(await_close(*rig.a, closed));

  const metrics::Snapshot before = rig.a->metrics().snapshot();
  auto reply = rig.a->commod().request(addr, to_bytes("moved"), 2s);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(to_string(reply.value().payload), "echo:moved");
  EXPECT_EQ(rig.a->lcm().current_target(addr), moved.value());
  const metrics::Snapshot d = rig.a->metrics().snapshot().delta(before);
  EXPECT_EQ(d.value("nd.open_retries"), 0u);
  EXPECT_EQ(d.value("lcm.fault_backoffs"), 0u);
  EXPECT_EQ(d.value("lcm.address_faults"), 1u);
  EXPECT_EQ(d.value("lcm.relocations"), 1u);
  EXPECT_EQ(d.value("lcm.reconnects"), 1u);
}

TEST(LcmLayer, PipelinedRequestsAcrossARelocationNeverReopenTheDeadAddress) {
  // 32 requests ride one circuit when the module moves. They all fault on
  // its close; the closed-circuit mark holds until a forwarding answer is
  // installed, so each either asks the naming service itself or chases
  // the answer another installed — none reopens the address left behind.
  Rig rig;
  drts::ProcessController pc(rig.tb);
  std::atomic<int> incarnation{0};
  ASSERT_TRUE(pc.spawn("svc", "m2", "lan", {},
                       [&](Node& node, std::stop_token st) {
                         if (incarnation.fetch_add(1) == 0) {
                           // The original holds every request unanswered.
                           while (!st.stop_requested()) {
                             (void)node.commod().receive(10ms);
                           }
                           return;
                         }
                         drts::make_echo_service()(node, std::move(st));
                       })
                  .ok());
  auto addr = rig.a->commod().locate("svc").value();
  constexpr int kRequests = 32;
  std::vector<RequestTicket> tickets;
  for (int i = 0; i < kRequests; ++i) {
    auto t = rig.a->commod().request_async(
        addr, to_bytes("r" + std::to_string(i)), 5s);
    ASSERT_TRUE(t.ok()) << t.error().to_string();
    tickets.push_back(t.value());
  }

  const std::uint64_t retries_before =
      counter_value(rig.a->metrics(), "nd.open_retries");
  ASSERT_TRUE(pc.relocate("svc", "m1", "lan").ok());
  // Awaited from several threads, so the recoveries run concurrently.
  constexpr int kAwaiters = 8;
  std::atomic<int> answered{0};
  {
    std::vector<std::jthread> awaiters;
    for (int w = 0; w < kAwaiters; ++w) {
      awaiters.emplace_back([&, w] {
        for (int i = w; i < kRequests; i += kAwaiters) {
          auto r = rig.a->commod().await(tickets[static_cast<std::size_t>(i)]);
          if (r.ok() &&
              to_string(r.value().payload) == "echo:r" + std::to_string(i)) {
            answered.fetch_add(1);
          }
        }
      });
    }
  }
  EXPECT_EQ(answered.load(), kRequests);
  EXPECT_EQ(counter_value(rig.a->metrics(), "nd.open_retries"),
            retries_before);
}

TEST(LcmLayer, ClosedCircuitToALiveModuleReopensWhileTheNameServerIsDown) {
  // Asking first must not make a live peer hostage to the naming service:
  // with the Name Server gone the forwarding query fails, and the closed
  // circuit reopens to the address it ran to.
  Rig rig;
  auto addr = rig.a->commod().locate("b").value();
  ASSERT_TRUE(rig.a->commod().send(addr, to_bytes("warm")).ok());
  ASSERT_TRUE(rig.b->commod().receive(1s).ok());
  // The a<->b circuit was established last, after both Name-Server ones.
  const std::uint64_t closed = rig.a->ip().stats().ivcs_closed;
  ASSERT_TRUE(kill_newest_channel(rig.tb));
  ASSERT_TRUE(await_close(*rig.a, closed));
  rig.tb.name_server().stop();

  ASSERT_TRUE(rig.a->commod().send(addr, to_bytes("still here")).ok());
  auto in = rig.b->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "still here");
  EXPECT_EQ(counter_value(rig.a->metrics(), "lcm.relocations"), 0u);
}

TEST(LcmLayer, ClosedNameServerCircuitIsNeverAskedAbout) {
  // §6.3: the stack never asks the naming service about the naming service
  // — not first, not after. A killed Name-Server circuit reconnects to the
  // well-known address without a forwarding query.
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  tb.machine("m2", Arch::sun3, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto a = tb.spawn_module("a", "m2", "lan").value();
  ASSERT_TRUE(a->commod().ping_name_server().ok());

  const std::uint64_t closed = a->ip().stats().ivcs_closed;
  ASSERT_TRUE(kill_newest_channel(tb));  // a's only circuit: to the NS
  ASSERT_TRUE(await_close(*a, closed));
  ASSERT_TRUE(a->commod().ping_name_server().ok());
  auto self = a->commod().locate("a");
  ASSERT_TRUE(self.ok()) << self.error().to_string();
  EXPECT_EQ(self.value(), a->identity().uadd());
  EXPECT_EQ(counter_value(tb.name_server().node().metrics(), "ns.forwards"),
            0u);
  EXPECT_EQ(counter_value(a->metrics(), "lcm.relocations"), 0u);
  EXPECT_GE(counter_value(a->metrics(), "lcm.reconnects"), 1u);
  a->stop();
}

TEST(LcmLayer, InboundCircuitReusedForReplyTraffic) {
  // After b sends to a, a's sends to b ride the same circuit (reverse
  // mapping) — no new establishment.
  Rig rig;
  auto a_addr = rig.b->commod().locate("a").value();
  ASSERT_TRUE(rig.b->commod().send(a_addr, to_bytes("hi a")).ok());
  auto in = rig.a->commod().receive(1s);
  ASSERT_TRUE(in.ok());
  const auto opened_before = counter_value(rig.a->metrics(), "ip.ivcs_opened");
  ASSERT_TRUE(rig.a->commod().send(in.value().src, to_bytes("hi b")).ok());
  EXPECT_EQ(counter_value(rig.a->metrics(), "ip.ivcs_opened"), opened_before);
  auto back = rig.b->commod().receive(1s);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(to_string(back.value().payload), "hi b");
}

TEST(LcmLayer, RecursionGuardTripsWhenBugReproduced) {
  // §6.3 as published: "the ND-Layer ... will see the dead circuit, and
  // recursively run through this whole thing until either the stack
  // overflows, or the connection can be reestablished". With the patch
  // disabled and the Name Server gone for good, the guard must convert
  // the would-be stack overflow into Errc::recursion_limit.
  LcmConfig buggy;
  buggy.reproduce_ns_fault_bug = true;
  buggy.fault_retries = 1;
  Rig rig(buggy);
  ASSERT_TRUE(rig.a->commod().ping_name_server().ok());
  rig.tb.name_server().stop();  // circuit to NS is now permanently dead
  auto st = rig.a->commod().ping_name_server();
  EXPECT_FALSE(st.ok());
  EXPECT_GE(counter_value(rig.a->metrics(), "lcm.recursion_trips"), 1u);
}

TEST(LcmLayer, PatchedFaultHandlerRecoversNameServerCircuit) {
  // Same situation with the patch (default): the dead NS circuit is
  // re-established through the well-known physical address, no recursion.
  Rig rig;
  ASSERT_TRUE(rig.a->commod().ping_name_server().ok());
  // Sever the NS circuit (kill all live channels between a and the NS by
  // bouncing a partition long enough for the fault to register).
  auto lan = rig.tb.fabric().network_by_name("lan").value();
  rig.tb.fabric().set_partitioned(lan, true);
  (void)rig.a->commod().ping_name_server();  // faults
  rig.tb.fabric().set_partitioned(lan, false);
  EXPECT_TRUE(rig.a->commod().ping_name_server().ok());
  EXPECT_EQ(counter_value(rig.a->metrics(), "lcm.recursion_trips"), 0u);
}

TEST(LcmLayer, InternalFlagVisibleToReceiver) {
  Rig rig;
  auto addr = rig.a->commod().locate("b").value();
  SendOptions opts;
  opts.internal = true;
  ASSERT_TRUE(rig.a->lcm().send(addr, Payload::raw(to_bytes("sys")), opts)
                  .ok());
  auto in = rig.b->commod().receive(1s);
  ASSERT_TRUE(in.ok());
  EXPECT_TRUE(in.value().internal);
}

TEST(LcmLayer, ShutdownFailsPendingRequests) {
  Rig rig;
  auto addr = rig.a->commod().locate("b").value();
  std::jthread requester([&] {
    auto reply = rig.a->commod().request(addr, to_bytes("never"), 5s);
    EXPECT_FALSE(reply.ok());
  });
  std::this_thread::sleep_for(50ms);
  rig.a->stop();
  requester.join();
  rig.a.reset();
}

TEST(LcmLayer, ReplyWithInvalidContextRejected) {
  Rig rig;
  ReplyCtx bogus;
  EXPECT_EQ(rig.a->commod().reply(bogus, to_bytes("x")).code(),
            Errc::bad_argument);
}

TEST(LcmLayer, StatsAccumulate) {
  Rig rig;
  auto addr = rig.a->commod().locate("b").value();
  ASSERT_TRUE(rig.a->commod().send(addr, to_bytes("1")).ok());
  ASSERT_TRUE(rig.a->commod().dgram(addr, to_bytes("2")).ok());
  const metrics::Snapshot s = rig.a->metrics().snapshot();
  EXPECT_GE(counter_value(s, "lcm.sends"), 1u);
  EXPECT_GE(counter_value(s, "lcm.dgrams"), 1u);
  // The NSP lookups were requests: internal ones, which count once, here.
  EXPECT_GE(counter_value(s, "lcm.internal_sends"), 1u);
}

TEST(LcmLayer, ConcurrentRequestersMultiplexOneCircuit) {
  Rig rig;
  std::jthread echo([&](std::stop_token st) {
    while (!st.stop_requested()) {
      auto in = rig.b->commod().receive(50ms);
      if (in.ok() && in.value().is_request) {
        (void)rig.b->commod().reply(in.value().reply_ctx, in.value().payload);
      }
    }
  });
  auto addr = rig.a->commod().locate("b").value();
  constexpr int kThreads = 8;
  constexpr int kEach = 25;
  std::vector<std::jthread> workers;
  std::atomic<int> ok{0};
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kEach; ++i) {
        const std::string body = std::to_string(t) + ":" + std::to_string(i);
        auto reply = rig.a->commod().request(addr, to_bytes(body), 5s);
        if (reply.ok() && to_string(reply.value().payload) == body) {
          ok.fetch_add(1);
        }
      }
    });
  }
  workers.clear();  // join
  EXPECT_EQ(ok.load(), kThreads * kEach);
  echo.request_stop();
}

/// Big-endian word at `off` of the frame `head ++ body`.
std::uint32_t frame_word(BytesView head, BytesView body, std::size_t off) {
  std::uint32_t v = 0;
  for (std::size_t i = off; i < off + 4; ++i) {
    v = (v << 8) | (i < head.size() ? head[i] : body[i - head.size()]);
  }
  return v;
}

/// Is this frame a whole application request (first frame, ND payload, IP
/// data, LCM request without the internal flag)?
bool is_app_request(BytesView head, BytesView body) {
  // frag word, total | magic, version, nd kind | ip kind, ivc | lcm kind,
  // flags
  if (head.size() + body.size() < 40) return false;
  return wire::frag_first(frame_word(head, body, 0)) &&
         frame_word(head, body, 8) == wire::kMagic &&
         frame_word(head, body, 16) ==
             static_cast<std::uint32_t>(wire::NdKind::payload) &&
         frame_word(head, body, 20) ==
             static_cast<std::uint32_t>(wire::IpKind::data) &&
         frame_word(head, body, 32) ==
             static_cast<std::uint32_t>(wire::LcmKind::request) &&
         (frame_word(head, body, 36) & wire::kLcmFlagInternal) == 0;
}

/// A backend whose ports, once armed, swallow the next application request
/// frame and run `hook` in its place — inside IpcsPort::send, after the
/// send path has committed the frame and before it returns. The hook's
/// status is what the send reports.
class RequestTrapBackend final : public IpcsBackend {
 public:
  using Hook = std::function<Status(IpcsPort& inner, IpcsChannelId chan)>;

  RequestTrapBackend(std::shared_ptr<IpcsBackend> inner, Hook hook)
      : inner_(std::move(inner)), state_(std::make_shared<State>()) {
    state_->hook = std::move(hook);
  }

  void arm() { state_->armed.store(true); }

  std::string kind_name() const override { return inner_->kind_name(); }
  convert::Arch arch() const override { return inner_->arch(); }
  std::chrono::nanoseconds now() const override { return inner_->now(); }
  bool probe(const std::string& phys) override { return inner_->probe(phys); }
  Result<std::shared_ptr<IpcsPort>> bind(
      const std::string& local_name) override {
    auto port = inner_->bind(local_name);
    if (!port) return port.error();
    return std::shared_ptr<IpcsPort>(
        std::make_shared<Port>(std::move(port.value()), state_));
  }

 private:
  struct State {
    std::atomic<bool> armed{false};
    Hook hook;
  };
  class Port final : public IpcsPort {
   public:
    Port(std::shared_ptr<IpcsPort> inner, std::shared_ptr<State> state)
        : inner_(std::move(inner)), state_(std::move(state)) {}
    std::string phys() const override { return inner_->phys(); }
    std::size_t mtu() const override { return inner_->mtu(); }
    Result<IpcsChannelId> connect(const std::string& dst) override {
      return inner_->connect(dst);
    }
    Status send(IpcsChannelId chan, BytesView header,
                BytesView body) override {
      if (state_->armed.load() && is_app_request(header, body) &&
          state_->armed.exchange(false)) {
        return state_->hook(*inner_, chan);
      }
      return inner_->send(chan, header, body);
    }
    Result<IpcsDelivery> recv_for(std::chrono::nanoseconds t) override {
      return inner_->recv_for(t);
    }
    Status close_channel(IpcsChannelId chan) override {
      return inner_->close_channel(chan);
    }
    void close() override { inner_->close(); }

   private:
    std::shared_ptr<IpcsPort> inner_;
    std::shared_ptr<State> state_;
  };

  std::shared_ptr<IpcsBackend> inner_;
  std::shared_ptr<State> state_;
};

/// Sends one request whose first frame is swallowed by the client's
/// substrate; inside that send, the circuit is killed and the client fully
/// handles the close before the send returns `send_outcome`. The request
/// must recover on a fresh circuit and reach the server exactly once.
void request_survives_close_inside_send(Status send_outcome) {
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  tb.machine("m2", Arch::vax780, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto server = tb.spawn_module("server", "m2", "lan").value();
  std::atomic<int> delivered{0};
  std::jthread serve([&](std::stop_token st) {
    while (!st.stop_requested()) {
      auto in = server->commod().receive(50ms);
      if (in.ok() && in.value().is_request) {
        delivered.fetch_add(1);
        (void)server->commod().reply(in.value().reply_ctx, in.value().payload);
      }
    }
  });

  NodeConfig cfg = tb.node_config("client", "m1", "lan");
  auto trap = std::make_shared<RequestTrapBackend>(
      cfg.backend, [&](IpcsPort& inner, IpcsChannelId chan) {
        // Runs with the circuit's transmit lock held: touch only the
        // substrate (ranked below it), never the Nucleus.
        auto* port = dynamic_cast<simnet::SimnetPort*>(&inner);
        EXPECT_NE(port, nullptr);
        EXPECT_TRUE(tb.fabric().kill_channel(chan).ok());
        // Wait for the client's pump to take the close off its inbox, then
        // give it time to run the IP and LCM close handling.
        const auto until = std::chrono::steady_clock::now() + 2s;
        while (port != nullptr && port->endpoint()->pending() != 0 &&
               std::chrono::steady_clock::now() < until) {
          std::this_thread::sleep_for(1ms);
        }
        std::this_thread::sleep_for(50ms);
        return send_outcome;
      });
  cfg.backend = trap;
  auto client = std::make_unique<Node>(std::move(cfg));
  ASSERT_TRUE(client->start().ok());
  auto addr = client->commod().locate("server");
  ASSERT_TRUE(addr.ok());

  trap->arm();
  const auto start = std::chrono::steady_clock::now();
  auto reply = client->commod().request(addr.value(), to_bytes("once"), 2s);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(reply.value().payload, to_bytes("once"));
  EXPECT_LT(std::chrono::steady_clock::now() - start, 1s);
  std::this_thread::sleep_for(100ms);  // any duplicate would land by now
  EXPECT_EQ(delivered.load(), 1);
  client->stop();
  serve.request_stop();
}

TEST(LcmLayer, CircuitCloseBetweenSendAndStampFaultsTheRequest) {
  // A request's ticket must name its circuit before the frame leaves: an
  // ivc_closed landing between the send and the stamp used to match no
  // request, which then waited out its whole deadline. Here the frame is
  // lost on the wire and the send reports success.
  request_survives_close_inside_send(Status::success());
}

TEST(LcmLayer, CircuitClosedUnderAFailingSendIsRetriedOnce) {
  // The same close, but the send fails too, so the send path's own fault
  // retry races the close's fault of the ticket. Exactly one of them may
  // re-send: the retry must not stamp a fresh circuit and go out while
  // await() is about to re-issue the faulted request.
  request_survives_close_inside_send(
      Status(Errc::address_fault, "frame refused"));
}

}  // namespace
}  // namespace ntcs::core
