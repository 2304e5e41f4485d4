// Tests for the naming service (S9): NSP protocol codecs, Name Server
// database semantics (registration, generations, forwarding determination,
// liveness probes, the gateway registry), and the recursive access path.
#include <gtest/gtest.h>

#include "core/testbed.h"
#include "scope_counters.h"

namespace ntcs::core {
namespace {

using namespace std::chrono_literals;
using convert::Arch;

// ---------------------------------------------------------------- codecs

TEST(NspProtocol, RegisterRoundTrip) {
  nsp::RegisterRequest req;
  req.name = "mod";
  req.attrs = {{"role", "search"}, {"gen", "2"}};
  req.phys = "tcp:m:5001";
  req.net = "lan-a";
  req.arch = 2;
  req.requested_uadd = 0;
  req.is_gateway = true;
  req.gw_nets = {"lan-a", "lan-b"};
  req.gw_phys = {"tcp:m:5001", "tcp:m:5002"};
  auto back = nsp::decode_request(nsp::encode_register(req));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().op, nsp::NsOp::register_module);
  EXPECT_EQ(back.value().reg.name, "mod");
  EXPECT_EQ(back.value().reg.attrs.at("role"), "search");
  EXPECT_EQ(back.value().reg.phys, "tcp:m:5001");
  EXPECT_TRUE(back.value().reg.is_gateway);
  ASSERT_EQ(back.value().reg.gw_nets.size(), 2u);
  EXPECT_EQ(back.value().reg.gw_phys[1], "tcp:m:5002");
}

TEST(NspProtocol, AllOpsDecode) {
  EXPECT_EQ(nsp::decode_request(nsp::encode_lookup("x")).value().op,
            nsp::NsOp::lookup);
  EXPECT_EQ(nsp::decode_request(nsp::encode_lookup_attrs({{"a", "b"}}))
                .value()
                .op,
            nsp::NsOp::lookup_attrs);
  EXPECT_EQ(
      nsp::decode_request(nsp::encode_resolve(UAdd::permanent(5))).value().op,
      nsp::NsOp::resolve);
  EXPECT_EQ(
      nsp::decode_request(nsp::encode_forward(UAdd::permanent(5))).value().op,
      nsp::NsOp::forward);
  EXPECT_EQ(nsp::decode_request(nsp::encode_gateways()).value().op,
            nsp::NsOp::gateways);
  EXPECT_EQ(nsp::decode_request(nsp::encode_deregister(UAdd::permanent(5)))
                .value()
                .op,
            nsp::NsOp::deregister);
  EXPECT_EQ(nsp::decode_request(nsp::encode_ping()).value().op,
            nsp::NsOp::ping);
}

TEST(NspProtocol, ErrorEnvelopePropagates) {
  auto body = nsp::encode_error_response(Errc::not_found, "gone");
  auto uadd = nsp::decode_uadd_response(body);
  EXPECT_EQ(uadd.code(), Errc::not_found);
  EXPECT_EQ(uadd.error().what(), "gone");
  EXPECT_EQ(nsp::decode_ok_response(body).code(), Errc::not_found);
}

TEST(NspProtocol, GatewaysResponseRoundTrip) {
  std::vector<GatewayRecord> gws(2);
  gws[0].uadd = UAdd::permanent(2);
  gws[0].name = "gw-a";
  gws[0].nets = {"n1", "n2"};
  gws[0].phys = {PhysAddr{"p1"}, PhysAddr{"p2"}};
  gws[1].uadd = UAdd::permanent(3);
  gws[1].name = "gw-b";
  auto back = nsp::decode_gateways_response(nsp::encode_gateways_response(gws));
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back.value().size(), 2u);
  EXPECT_EQ(back.value()[0].uadd, UAdd::permanent(2));
  EXPECT_EQ(back.value()[0].nets[1], "n2");
  EXPECT_EQ(back.value()[0].phys[1].blob, "p2");
  EXPECT_EQ(back.value()[1].name, "gw-b");
}

// ---------------------------------------------------------------- server

struct Rig {
  Testbed tb;
  std::unique_ptr<Node> mod;

  Rig() {
    tb.net("lan");
    tb.machine("m1", Arch::vax780, {"lan"});
    tb.machine("m2", Arch::sun3, {"lan"});
    EXPECT_TRUE(tb.start_name_server("m1", "lan").ok());
    EXPECT_TRUE(tb.finalize().ok());
    mod = tb.spawn_module("mod", "m2", "lan").value();
  }
  ~Rig() {
    if (mod) mod->stop();
  }
};

TEST(NameServerDb, SelfEntryExists) {
  Rig rig;
  auto self = rig.tb.name_server().db_lookup(kNameServerUAdd);
  ASSERT_TRUE(self.has_value());
  EXPECT_EQ(self->name, "name-server");
  // And it is locatable by name through the service itself.
  auto located = rig.mod->commod().locate("name-server");
  ASSERT_TRUE(located.ok());
  EXPECT_EQ(located.value(), kNameServerUAdd);
}

TEST(NameServerDb, ResolveReturnsRegistrationData) {
  Rig rig;
  auto info = rig.mod->nsp().resolve_info(rig.mod->identity().uadd());
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info.value().name, "mod");
  EXPECT_EQ(info.value().net, "lan");
  EXPECT_EQ(info.value().arch, Arch::sun3);
  EXPECT_EQ(info.value().phys, rig.mod->phys());
}

TEST(NameServerDb, ResolveUnknownFails) {
  Rig rig;
  EXPECT_EQ(rig.mod->nsp().resolve_info(UAdd::permanent(77777)).code(),
            Errc::not_found);
}

TEST(NameServerDb, LookupPrefersNewestGeneration) {
  Rig rig;
  auto gen2 = rig.tb.spawn_module("mod", "m1", "lan").value();
  auto located = gen2->commod().locate("mod");
  ASSERT_TRUE(located.ok());
  EXPECT_EQ(located.value(), gen2->identity().uadd());
  gen2->stop();
}

TEST(NameServerDb, ForwardStillAliveWhenModuleLives) {
  Rig rig;
  auto fwd = rig.mod->nsp().forward(rig.mod->identity().uadd());
  EXPECT_EQ(fwd.code(), Errc::still_alive);
  EXPECT_GE(counter_value(rig.tb.name_server().node().metrics(),
                          "ns.liveness_probes"),
            1u);
}

TEST(NameServerDb, ForwardFindsSuccessorByName) {
  Rig rig;
  const UAdd old = rig.mod->identity().uadd();
  rig.mod->stop();
  auto gen2 = rig.tb.spawn_module("mod", "m1", "lan").value();
  auto fwd = gen2->nsp().forward(old);
  ASSERT_TRUE(fwd.ok());
  EXPECT_EQ(fwd.value(), gen2->identity().uadd());
  EXPECT_GE(counter_value(rig.tb.name_server().node().metrics(),
                          "ns.forward_hits"),
            1u);
  gen2->stop();
  rig.mod.reset();
}

TEST(NameServerDb, ForwardFindsSuccessorByRoleAttr) {
  // §3.5: "With our new attribute-based naming, this is more involved."
  // A differently named module announcing the same role is accepted once
  // no same-name successor exists.
  Rig rig;
  auto worker =
      rig.tb.spawn_module("worker-1", "m2", "lan", {{"role", "crunch"}})
          .value();
  const UAdd old = worker->identity().uadd();
  worker->stop();
  auto successor =
      rig.tb.spawn_module("worker-2", "m1", "lan", {{"role", "crunch"}})
          .value();
  auto fwd = rig.mod->nsp().forward(old);
  ASSERT_TRUE(fwd.ok());
  EXPECT_EQ(fwd.value(), successor->identity().uadd());
  successor->stop();
}

TEST(NameServerDb, ForwardWithoutSuccessorNotFound) {
  Rig rig;
  auto loner = rig.tb.spawn_module("loner", "m2", "lan").value();
  const UAdd old = loner->identity().uadd();
  loner->stop();
  EXPECT_EQ(rig.mod->nsp().forward(old).code(), Errc::not_found);
}

TEST(NameServerDb, ForwardNeverReturnsOlderGeneration) {
  // A successor must be NEWER than the dead module — a stale generation
  // must not resurrect.
  Rig rig;
  const UAdd gen1 = rig.mod->identity().uadd();
  rig.mod->stop();
  auto gen2 = rig.tb.spawn_module("mod", "m1", "lan").value();
  const UAdd gen2_addr = gen2->identity().uadd();
  gen2->stop();
  // gen2 dead too; forwarding gen2 must not land on gen1.
  auto probe_node = rig.tb.spawn_module("probe", "m1", "lan").value();
  EXPECT_EQ(probe_node->nsp().forward(gen2_addr).code(), Errc::not_found);
  EXPECT_EQ(probe_node->nsp().forward(gen1).value_or(UAdd{}),
            UAdd{});  // also nothing newer alive
  probe_node->stop();
  rig.mod.reset();
}

TEST(NameServerDb, DeregisterRemovesFromLookup) {
  Rig rig;
  ASSERT_TRUE(rig.mod->commod().deregister().ok());
  EXPECT_EQ(rig.mod->commod().locate("mod").code(), Errc::not_found);
  EXPECT_EQ(rig.mod->nsp().resolve_info(rig.mod->identity().uadd()).code(),
            Errc::not_found);
}

TEST(NameServerDb, WellKnownUAddConflictRejected) {
  Rig rig;
  // Requesting a well-known UAdd held by another live module fails.
  RegistrationInfo info;
  info.requested_uadd = kNameServerUAdd.raw();
  auto taken = rig.mod->nsp().register_module(info);
  EXPECT_EQ(taken.code(), Errc::already_exists);
  // Requesting a dynamic-range UAdd as "well-known" is a caller error.
  RegistrationInfo bad;
  bad.requested_uadd = kFirstDynamicUAdd + 5;
  EXPECT_EQ(rig.mod->nsp().register_module(bad).code(), Errc::bad_argument);
}

TEST(NameServerDb, MalformedRequestAnsweredWithError) {
  Rig rig;
  SendOptions opts;
  opts.internal = true;
  opts.timeout = 2s;
  auto reply = rig.mod->lcm().request(
      kNameServerUAdd, Payload::raw(to_bytes("not an NSP message")), opts);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(nsp::decode_ok_response(reply.value().payload).code(),
            Errc::bad_message);
  EXPECT_GE(counter_value(rig.tb.name_server().node().metrics(),
                          "ns.bad_requests"),
            1u);
}

TEST(NameServerDb, GatewayRegistryServed) {
  Testbed tb;
  tb.net("n1");
  tb.net("n2");
  tb.machine("m1", Arch::vax780, {"n1"});
  tb.machine("gw", Arch::apollo_dn330, {"n1", "n2"});
  tb.machine("m2", Arch::sun3, {"n2"});
  ASSERT_TRUE(tb.start_name_server("m1", "n1").ok());
  ASSERT_TRUE(tb.add_gateway("gw-1", "gw", {"n1", "n2"}).ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto mod = tb.spawn_module("m", "m2", "n2").value();
  auto gws = mod->nsp().gateways();
  ASSERT_TRUE(gws.ok());
  ASSERT_EQ(gws.value().size(), 1u);
  EXPECT_EQ(gws.value()[0].name, "gw-1");
  ASSERT_EQ(gws.value()[0].nets.size(), 2u);
  EXPECT_EQ(gws.value()[0].uadd, tb.gateway(0).uadd());
  mod->stop();
}

// ----------------------------------------------------- lease TTL edges
//
// The lease cache's boundary behaviour, on the classic single-server rig
// (the lease/epoch protocol is the same whether there is one shard or N).

TEST(NspLease, FreshLeaseServesLocallyExpiredLeaseGoesBack) {
  Rig rig;
  auto client = rig.tb.spawn_module("ttl-client", "m1", "lan").value();

  auto first = client->commod().locate("mod");
  ASSERT_TRUE(first.ok());
  auto lease = client->nsp().lease_peek("mod");
  ASSERT_TRUE(lease.has_value());
  EXPECT_GT(lease->expiry, std::chrono::steady_clock::now());

  // While the lease is fresh, repeats never cross the wire.
  const metrics::MetricsRegistry& server =
      rig.tb.name_server().node().metrics();
  const std::uint64_t server_before = counter_value(server, "ns.lookups");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client->commod().locate("mod").ok());
  }
  EXPECT_EQ(counter_value(server, "ns.lookups"), server_before);

  // The TTL boundary is strict: a lease is good strictly *before* its
  // expiry instant. Retire it to exactly "now" — the very next lookup
  // must go back to the server (and succeed, re-leasing the name).
  client->nsp().debug_force_expire("mod");
  auto again = client->commod().locate("mod");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value(), first.value());
  EXPECT_EQ(counter_value(server, "ns.lookups"), server_before + 1);
  auto release = client->nsp().lease_peek("mod");
  ASSERT_TRUE(release.has_value());
  EXPECT_GT(release->expiry, std::chrono::steady_clock::now());

  client->stop();
}

TEST(NspLease, RenewalAcrossEpochBumpCarriesTheNewEpoch) {
  Rig rig;
  auto client = rig.tb.spawn_module("epoch-client", "m2", "lan").value();

  ASSERT_TRUE(client->commod().locate("mod").ok());
  auto lease1 = client->nsp().lease_peek("mod");
  ASSERT_TRUE(lease1.has_value());
  EXPECT_EQ(lease1->epoch, rig.tb.name_server().epoch());

  // A module move bumps the server's epoch; the renewed lease must carry
  // it, and the stale-epoch lease must have been dropped rather than
  // merely overwritten (the invalidation counter says which happened).
  const std::uint64_t old_epoch = rig.tb.name_server().epoch();
  const std::uint64_t invalidations_before =
      counter_value(client->metrics(), "nsp.cache_invalidations");
  rig.mod->stop();
  rig.mod = rig.tb.spawn_module("mod", "m1", "lan").value();
  EXPECT_EQ(rig.tb.name_server().epoch(), old_epoch + 1);

  client->nsp().debug_force_expire("mod");
  auto moved = client->commod().locate("mod");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved.value(), rig.mod->identity().uadd());
  auto lease2 = client->nsp().lease_peek("mod");
  ASSERT_TRUE(lease2.has_value());
  EXPECT_EQ(lease2->epoch, old_epoch + 1);
  EXPECT_GT(counter_value(client->metrics(), "nsp.cache_invalidations"),
            invalidations_before);

  client->stop();
}

TEST(NspLease, ForwardPurgesOnlyTheLeasesThatNameTheDeadUAdd) {
  Rig rig;
  auto other = rig.tb.spawn_module("other", "m1", "lan").value();
  auto client = rig.tb.spawn_module("purge-client", "m1", "lan").value();
  const UAdd gen1 = rig.mod->identity().uadd();
  ASSERT_TRUE(client->commod().locate("mod").ok());
  ASSERT_TRUE(client->commod().locate("other").ok());

  // gen1 leaves cleanly and a successor takes the name. That is no move,
  // so the epoch stays and the refreshed lease overwrites gen1's.
  const std::uint64_t epoch = rig.tb.name_server().epoch();
  ASSERT_TRUE(rig.mod->nsp().deregister(gen1).ok());
  rig.mod->stop();
  rig.mod = rig.tb.spawn_module("mod", "m2", "lan").value();
  const UAdd gen2 = rig.mod->identity().uadd();
  ASSERT_EQ(rig.tb.name_server().epoch(), epoch);
  client->nsp().debug_force_expire("mod");
  ASSERT_EQ(client->commod().locate("mod").value_or(UAdd{}), gen2);

  // A fault on gen1 finds the successor and purges nothing: the lease
  // re-leased to gen2 and the unrelated one both survive it.
  const std::uint64_t invalidations =
      counter_value(client->metrics(), "nsp.cache_invalidations");
  auto fwd = client->nsp().forward(gen1);
  ASSERT_TRUE(fwd.ok()) << fwd.error().to_string();
  EXPECT_EQ(fwd.value(), gen2);
  auto kept = client->nsp().lease_peek("mod");
  ASSERT_TRUE(kept.has_value());
  EXPECT_EQ(kept->uadd, gen2);
  EXPECT_TRUE(client->nsp().lease_peek("other").has_value());
  EXPECT_EQ(counter_value(client->metrics(), "nsp.cache_invalidations"),
            invalidations);

  // A fault on gen2 purges exactly its lease, though gen2 lives.
  EXPECT_EQ(client->nsp().forward(gen2).code(), Errc::still_alive);
  EXPECT_FALSE(client->nsp().lease_peek("mod").has_value());
  EXPECT_TRUE(client->nsp().lease_peek("other").has_value());
  EXPECT_EQ(counter_value(client->metrics(), "nsp.cache_invalidations"),
            invalidations + 1);

  other->stop();
  client->stop();
}

TEST(NspLease, StaleLeaseSelfCorrectsThroughTheAddressFaultRetry) {
  Rig rig;
  auto client = rig.tb.spawn_module("fault-client", "m1", "lan").value();

  auto stale = client->commod().locate("mod");
  ASSERT_TRUE(stale.ok());

  // Reconfigure under the client's feet: "mod" moves while the client's
  // lease is still fresh. The lease now names a dead UAdd — the allowed
  // outcome is a fresh answer or an address-fault retry that lands on the
  // new incarnation, never a hard failure and never the old location as a
  // *delivery* target.
  const UAdd old_uadd = rig.mod->identity().uadd();
  rig.mod->stop();
  rig.mod = rig.tb.spawn_module("mod", "m1", "lan").value();
  std::jthread echo([&](std::stop_token st) {
    while (!st.stop_requested()) {
      auto in = rig.mod->commod().receive(std::chrono::milliseconds(50));
      if (in.ok() && in.value().is_request) {
        (void)rig.mod->commod().reply(in.value().reply_ctx,
                                      to_bytes("new-gen"));
      }
    }
  });

  // The cached (now stale) lease still answers locate() — that is the
  // documented contract — but *using* it triggers the LCM forward() retry,
  // which purges the lease and re-resolves to the new incarnation.
  const std::uint64_t invalidations_before =
      counter_value(client->metrics(), "nsp.cache_invalidations");
  auto reply = client->commod().request(stale.value(), to_bytes("hi"),
                                        std::chrono::seconds(5));
  ASSERT_TRUE(reply.ok()) << reply.error().what();
  EXPECT_EQ(to_string(reply.value().payload), "new-gen");
  EXPECT_GT(counter_value(client->metrics(), "nsp.cache_invalidations"),
            invalidations_before);

  // After the self-correction the lease cache names the new UAdd.
  auto fresh = client->commod().locate("mod");
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh.value(), rig.mod->identity().uadd());
  EXPECT_NE(fresh.value(), old_uadd);

  echo.request_stop();
  client->stop();
}

}  // namespace
}  // namespace ntcs::core
