// Tests for the ComMod / ALI-Layer (S10): parameter checking, error
// tailoring, the schema payload helpers, and the utility primitives —
// the "thin veneer" (§2.4) behaviours.
#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <thread>
#include <vector>

#include "common/health.h"
#include "core/testbed.h"
#include "scope_counters.h"

namespace ntcs::core {
namespace {

using namespace std::chrono_literals;
using convert::Arch;
using convert::FieldType;
using convert::MessageSchema;

struct Rig {
  Testbed tb;
  std::unique_ptr<Node> a;
  std::unique_ptr<Node> b;

  Rig() {
    tb.net("lan");
    tb.machine("m1", Arch::vax780, {"lan"});
    tb.machine("m2", Arch::sun3, {"lan"});
    EXPECT_TRUE(tb.start_name_server("m1", "lan").ok());
    EXPECT_TRUE(tb.finalize().ok());
    a = tb.spawn_module("a", "m1", "lan").value();
    b = tb.spawn_module("b", "m2", "lan").value();
  }
  ~Rig() {
    a->stop();
    b->stop();
  }
};

TEST(ComMod, LocateRejectsEmptyName) {
  Rig rig;
  EXPECT_EQ(rig.a->commod().locate("").code(), Errc::bad_argument);
}

TEST(ComMod, LocateAttrsRejectsEmptySet) {
  Rig rig;
  EXPECT_EQ(rig.a->commod().locate_attrs({}).code(), Errc::bad_argument);
}

TEST(ComMod, SelfReportsIdentity) {
  Rig rig;
  EXPECT_EQ(rig.a->commod().self(), rig.a->identity().uadd());
  EXPECT_EQ(rig.a->commod().name(), "a");
  EXPECT_EQ(rig.a->commod().arch(), Arch::vax780);
}

TEST(ComMod, PingNameServer) {
  Rig rig;
  EXPECT_TRUE(rig.a->commod().ping_name_server().ok());
}

TEST(ComMod, RegisterTwiceCreatesNewGeneration) {
  Rig rig;
  const UAdd first = rig.a->commod().self();
  auto second = rig.a->commod().register_self();
  ASSERT_TRUE(second.ok());
  EXPECT_NE(second.value(), first);
  EXPECT_EQ(rig.a->commod().self(), second.value());
}

TEST(ComMod, PayloadForFixedSchemaCarriesImageAndPack) {
  Rig rig;
  MessageSchema schema("m", {{"x", FieldType::u32}});
  auto rec = schema.make_record();
  ASSERT_TRUE(rec.set_u64("x", 9).ok());
  auto payload = rig.a->commod().payload_for(rec);
  ASSERT_TRUE(payload.ok());
  EXPECT_EQ(payload.value().image.size(), schema.image_size());
  ASSERT_TRUE(static_cast<bool>(payload.value().pack));
  auto packed = payload.value().pack();
  ASSERT_TRUE(packed.ok());
  EXPECT_EQ(schema.unpack(packed.value()).value(), rec);
}

TEST(ComMod, PayloadForVariableSchemaIsPackedOnly) {
  Rig rig;
  MessageSchema schema("v", {{"s", FieldType::string}});
  auto rec = schema.make_record();
  ASSERT_TRUE(rec.set_string("s", "variable").ok());
  auto payload = rig.a->commod().payload_for(rec);
  ASSERT_TRUE(payload.ok());
  EXPECT_FALSE(static_cast<bool>(payload.value().pack));
  // The image *is* the packed stream (characters, representation-free).
  EXPECT_EQ(schema.unpack(payload.value().image).value(), rec);
}

TEST(ComMod, VariableSchemaSurvivesHeterogeneousPair) {
  Rig rig;  // a = VAX (little), b = Sun (big)
  MessageSchema schema("v", {{"n", FieldType::u64}, {"s", FieldType::string}});
  auto rec = schema.make_record();
  ASSERT_TRUE(rec.set_u64("n", 0x1122334455667788ULL).ok());
  ASSERT_TRUE(rec.set_string("s", "var len").ok());
  auto addr = rig.a->commod().locate("b").value();
  auto payload = rig.a->commod().payload_for(rec).value();
  ASSERT_TRUE(rig.a->commod().send(addr, payload).ok());
  auto in = rig.b->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  auto decoded = rig.b->commod().decode(in.value(), schema);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value(), rec);
}

TEST(ComMod, DecodeWithWrongSchemaFails) {
  Rig rig;
  MessageSchema s1("one", {{"x", FieldType::u32}});
  MessageSchema s2("two", {{"x", FieldType::u32}});
  auto rec = s1.make_record();
  auto addr = rig.a->commod().locate("b").value();
  ASSERT_TRUE(
      rig.a->commod().send(addr, rig.a->commod().payload_for(rec).value())
          .ok());
  auto in = rig.b->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  // Same arch pair? a is VAX, b is Sun → packed mode → type tag mismatch.
  EXPECT_FALSE(rig.b->commod().decode(in.value(), s2).ok());
}

TEST(ComMod, ReplyOversizeRejected) {
  Rig rig;
  auto addr = rig.a->commod().locate("b").value();
  ASSERT_TRUE(rig.a->commod().send(addr, to_bytes("x")).ok());
  auto in = rig.b->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  ReplyCtx fake_ctx;  // invalid ctx → bad_argument, big payload → too_big
  Bytes huge(kMaxAppMessage + 1, 0);
  EXPECT_EQ(rig.b->commod().reply(fake_ctx, huge).code(), Errc::too_big);
}

TEST(ComMod, DeregisterMakesModuleUnlocatable) {
  Rig rig;
  ASSERT_TRUE(rig.b->commod().deregister().ok());
  EXPECT_EQ(rig.a->commod().locate("b").code(), Errc::not_found);
}

TEST(ComMod, RequestToSelfEchoLoop) {
  // A module may converse with itself through the full stack (useful for
  // testing a server's own protocol path).
  Rig rig;
  ASSERT_TRUE(rig.a->commod().send(rig.a->commod().self(),
                                   to_bytes("note to self")).ok());
  auto in = rig.a->commod().receive(2s);
  ASSERT_TRUE(in.ok());
  EXPECT_EQ(to_string(in.value().payload), "note to self");
  EXPECT_EQ(in.value().src, rig.a->commod().self());
}

// ------------------------------------------------------- the serve primitive

/// Run `b`'s one server loop on its service thread: requests are echoed
/// as "re:<payload>".
void serve_echo(Node& b, OtherHandler on_other = {}) {
  b.run([&b, on_other = std::move(on_other)](std::stop_token st) {
    b.commod().serve(
        st,
        [](const Incoming& in) {
          Bytes out = to_bytes("re:");
          append(out, in.payload);
          return out;
        },
        on_other);
  });
}

TEST(ComModServe, RequestsGetTheHandlersBytesAndOtherTrafficReachesOnOther) {
  Rig rig;
  std::mutex mu;
  std::vector<std::string> others;
  serve_echo(*rig.b, [&](const Incoming& in) {
    std::lock_guard lk(mu);
    others.push_back(to_string(in.payload));
  });
  auto addr = rig.a->commod().locate("b").value();
  auto reply = rig.a->commod().request(addr, to_bytes("hello"), 2s);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(to_string(reply.value().payload), "re:hello");

  // A send and a datagram are not requests: on_other gets them, and the
  // loop answers neither.
  const std::uint64_t replies = counter_value(rig.b->metrics(), "lcm.replies");
  ASSERT_TRUE(rig.a->commod().send(addr, to_bytes("a send")).ok());
  ASSERT_TRUE(rig.a->commod().dgram(addr, to_bytes("a datagram")).ok());
  for (int spin = 0; spin < 200; ++spin) {
    {
      std::lock_guard lk(mu);
      if (others.size() == 2) break;
    }
    std::this_thread::sleep_for(10ms);
  }
  {
    std::lock_guard lk(mu);
    EXPECT_EQ(others, (std::vector<std::string>{"a send", "a datagram"}));
  }
  EXPECT_EQ(counter_value(rig.b->metrics(), "lcm.replies"), replies);
  rig.b->stop();  // joins the loop before `others` goes away
}

TEST(ComModServe, WithoutOnOtherSendsAreDroppedAndRequestsStillServed) {
  Rig rig;
  serve_echo(*rig.b);
  auto addr = rig.a->commod().locate("b").value();
  ASSERT_TRUE(rig.a->commod().send(addr, to_bytes("dropped")).ok());
  auto reply = rig.a->commod().request(addr, to_bytes("next"), 2s);
  ASSERT_TRUE(reply.ok()) << reply.error().to_string();
  EXPECT_EQ(to_string(reply.value().payload), "re:next");
}

TEST(ComModServe, HeartbeatReadsOkWhileIdleAndIsRetiredOnStop) {
  Rig rig;
  serve_echo(*rig.b);
  // Idle for longer than the heartbeat's 1 s stall window: the loop's
  // receive timeouts keep it beating.
  std::this_thread::sleep_for(1500ms);
  auto& reg = health::HealthRegistry::instance();
  auto rep = reg.check_now();
  const auto* l = rep.find("serve.b");
  ASSERT_NE(l, nullptr) << rep.to_string();
  EXPECT_EQ(l->state, health::HealthState::ok) << l->evidence;

  rig.b->stop();
  rep = reg.check_now();
  EXPECT_EQ(rep.find("serve.b"), nullptr) << rep.to_string();
}

TEST(ComModServe, RecordsNoReceiveWaitSamples) {
  // serve() receives below the ALI: the paper's "blocked at the ALI"
  // histogram stays an application-receive measure.
  Rig rig;
  serve_echo(*rig.b);
  auto addr = rig.a->commod().locate("b").value();
  const std::uint64_t waits =
      metrics::MetricsRegistry::instance().snapshot().value(
          "ali.recv_wait_ns");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(rig.a->commod().request(addr, to_bytes("q"), 2s).ok());
  }
  EXPECT_EQ(metrics::MetricsRegistry::instance().snapshot().value(
                "ali.recv_wait_ns"),
            waits);
}

}  // namespace
}  // namespace ntcs::core
