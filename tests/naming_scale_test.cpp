// naming_scale_test.cpp — conformance, property and chaos suites for the
// sharded, replicated name service (ctest label: naming).
//
// Four suites:
//
//  * NamingConformance (TEST_P over simnet + realnet): the sharded name
//    service honours the same NSP contract as the classic single Name
//    Server — register/lookup/resolve/deregister route to the owning
//    shard, a stale shard topology yields the *retriable*
//    Errc::wrong_shard (never a silent wrong answer), leases serve
//    repeats locally, module moves bump the shard epoch, and a killed
//    primary fails over to its warm standby.
//
//  * ShardRing: the consistent-hash ring invariants — adding a shard
//    remaps only ~1/(N+1) of the names and strictly *to the new shard*,
//    placement is balanced across shards, and placement depends on
//    nothing but the shard count (NTCS_FABRIC_SEED sweeps this whole
//    binary; the ring must agree across every seed or clients and
//    servers built under different seeds would disagree on ownership).
//
//  * NamingChurnProperty (simnet): a seeded random register/move/kill/
//    failover schedule under a faulty FaultPlan network. After every
//    step, every client either resolves a name to its *current* module
//    (proved by an end-to-end request answered with the current
//    generation tag) or gets a retriable error — a stale lease may yield
//    an address fault and a retry, but never a reply from a dead
//    generation.
//
//  * NamingChaos: kill a shard primary in the middle of a lookup storm
//    over a duplicating/reordering/flapping network; the standby must
//    take over, the storm must observe only retriable errors, the lock
//    validator must stay silent, and the global ns.failovers /
//    nsp.cache_invalidations metrics must reconcile with the per-server
//    and per-client stats actually observed.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "backend_harness.h"
#include "common/annotated.h"
#include "common/metrics.h"
#include "core/nsp/shard_map.h"
#include "core/testbed.h"
#include "scope_counters.h"

namespace ntcs::core {
namespace {

using namespace std::chrono_literals;
using convert::Arch;

std::uint64_t fabric_seed() {
  if (const char* s = std::getenv("NTCS_FABRIC_SEED")) {
    return static_cast<std::uint64_t>(std::strtoull(s, nullptr, 10));
  }
  return 1;
}

std::uint64_t metric(const char* name) {
  return metrics::MetricsRegistry::instance().snapshot().value(name);
}

/// The errors a naming client is allowed to see under churn: every one of
/// them says "try again", none of them is a wrong answer.
bool retriable(ntcs::Errc e) {
  switch (e) {
    case ntcs::Errc::timeout:
    case ntcs::Errc::not_found:
    case ntcs::Errc::wrong_shard:
    case ntcs::Errc::address_fault:
    case ntcs::Errc::no_route:
    case ntcs::Errc::closed:
    case ntcs::Errc::refused:
    case ntcs::Errc::overloaded:
    case ntcs::Errc::partitioned:
      return true;
    default:
      return false;
  }
}

/// A name guaranteed to be owned by `shard` under an N-shard ring, found
/// by deterministic search — both sides compute the same FNV ring, so the
/// test can place load on a specific shard by construction.
std::string name_owned_by(std::size_t shard, std::size_t num_shards,
                          const std::string& stem) {
  const nsp::ShardMap map(num_shards);
  for (int i = 0;; ++i) {
    std::string cand = stem + std::to_string(i);
    if (map.shard_of(cand) == shard) return cand;
  }
}

/// Sharded three-machine rig over either substrate: 3 shards, each with a
/// warm standby on the next machine over.
struct ShardRig {
  static constexpr std::size_t kShards = 3;
  Testbed tb;

  explicit ShardRig(harness::BackendKind kind, std::uint64_t lease_ms = 2000)
      : tb(fabric_seed(), kind == harness::BackendKind::simnet
                              ? Substrate::simnet
                              : Substrate::realnet) {
    tb.net("lan");
    tb.machine("m1", Arch::vax780, {"lan"});
    tb.machine("m2", Arch::sun3, {"lan"});
    tb.machine("m3", Arch::apollo_dn330, {"lan"});
    EXPECT_TRUE(tb.start_name_service(kShards, {"m1", "m2", "m3"}, "lan",
                                      /*with_standbys=*/true, lease_ms)
                    .ok());
    EXPECT_TRUE(tb.finalize().ok());
  }
};

/// A module that answers every request with a fixed generation tag, so a
/// client can prove end-to-end *which* incarnation its resolution reached.
struct EchoMod {
  std::unique_ptr<Node> node;
  std::jthread loop;
  std::string tag;

  EchoMod(Testbed& tb, const std::string& name, const std::string& machine,
          std::string gen_tag)
      : tag(std::move(gen_tag)) {
    node = tb.spawn_module(name, machine, "lan").value();
    loop = std::jthread([this](std::stop_token st) {
      while (!st.stop_requested()) {
        auto in = node->commod().receive(50ms);
        if (in.ok() && in.value().is_request) {
          (void)node->commod().reply(in.value().reply_ctx, to_bytes(tag));
        }
      }
    });
  }

  ~EchoMod() { stop(); }

  void stop() {
    if (!node) return;
    loop.request_stop();
    if (loop.joinable()) loop.join();
    node->stop();
    node.reset();
  }

  UAdd uadd() const { return node->identity().uadd(); }
};

// ========================================================== conformance

class NamingConformance
    : public ::testing::TestWithParam<harness::BackendKind> {};

TEST_P(NamingConformance, LookupsRouteToTheOwningShard) {
  ShardRig rig(GetParam());
  const nsp::ShardMap map(ShardRig::kShards);

  // Nine modules spread over the machines; record each shard's expected
  // ownership count from the client-side ring.
  std::vector<std::unique_ptr<Node>> mods;
  std::vector<std::string> names;
  std::vector<std::size_t> owned(ShardRig::kShards, 0);
  const char* machines[] = {"m1", "m2", "m3"};
  for (int i = 0; i < 9; ++i) {
    names.push_back("conf-mod-" + std::to_string(i));
    ++owned[map.shard_of(names.back())];
    mods.push_back(
        rig.tb.spawn_module(names.back(), machines[i % 3], "lan").value());
  }

  std::vector<std::uint64_t> lookups_before;
  for (std::size_t s = 0; s < ShardRig::kShards; ++s) {
    lookups_before.push_back(
        counter_value(rig.tb.shard(s).node().metrics(), "ns.lookups"));
  }

  auto client = rig.tb.spawn_module("conf-client", "m1", "lan").value();
  for (std::size_t i = 0; i < names.size(); ++i) {
    auto addr = client->commod().locate(names[i]);
    ASSERT_TRUE(addr.ok()) << names[i] << ": " << addr.error().what();
    EXPECT_EQ(addr.value(), mods[i]->identity().uadd()) << names[i];
  }

  // Every lookup was served by exactly the shard the ring names as owner.
  for (std::size_t s = 0; s < ShardRig::kShards; ++s) {
    EXPECT_EQ(counter_value(rig.tb.shard(s).node().metrics(), "ns.lookups") -
                  lookups_before[s],
              owned[s])
        << "shard " << s;
  }

  for (auto& m : mods) m->stop();
  client->stop();
}

TEST_P(NamingConformance, ResolveAndDeregisterFollowTheUAddStripe) {
  ShardRig rig(GetParam());
  auto mod = rig.tb.spawn_module("stripe-mod", "m2", "lan").value();
  auto client = rig.tb.spawn_module("stripe-client", "m1", "lan").value();

  const UAdd u = mod->identity().uadd();
  auto info = client->nsp().resolve_info(u);
  ASSERT_TRUE(info.ok()) << info.error().what();
  EXPECT_EQ(info.value().name, "stripe-mod");

  ASSERT_TRUE(client->nsp().deregister(u).ok());
  client->nsp().debug_force_expire("stripe-mod");
  auto gone = client->commod().locate("stripe-mod");
  EXPECT_FALSE(gone.ok());
  EXPECT_EQ(gone.code(), ntcs::Errc::not_found);

  mod->stop();
  client->stop();
}

TEST_P(NamingConformance, StaleShardTopologyGetsRetriableWrongShard) {
  ShardRig rig(GetParam());
  // A name owned by a non-zero shard, registered normally.
  const std::string name = name_owned_by(1, ShardRig::kShards, "stale-top-");
  auto mod = rig.tb.spawn_module(name, "m2", "lan").value();

  // A client whose well-known table is stale: it only knows about shard 0
  // and therefore computes a single-shard ring. Its lookup lands on shard
  // 0, which does not own the name — the reply must be the retriable
  // wrong_shard, never not_found (which would read as an authoritative
  // "no such module").
  NodeConfig cfg = rig.tb.node_config("stale-client", "m1", "lan");
  cfg.well_known.shards.resize(1);
  auto stale = std::make_unique<Node>(std::move(cfg));
  ASSERT_TRUE(stale->start().ok());

  const metrics::MetricsRegistry& shard0 = rig.tb.shard(0).node().metrics();
  const std::uint64_t rejects_before = counter_value(shard0, "ns.wrong_shard");
  auto miss = stale->nsp().lookup(name);
  ASSERT_FALSE(miss.ok());
  EXPECT_EQ(miss.code(), ntcs::Errc::wrong_shard);
  EXPECT_TRUE(retriable(miss.code()));
  EXPECT_GT(counter_value(shard0, "ns.wrong_shard"), rejects_before);

  // Recovery: installing the current topology makes the same lookup work.
  stale->install_well_known(rig.tb.well_known());
  auto hit = stale->nsp().lookup(name);
  ASSERT_TRUE(hit.ok()) << hit.error().what();
  EXPECT_EQ(hit.value(), mod->identity().uadd());

  stale->stop();
  mod->stop();
}

TEST_P(NamingConformance, LeasesServeRepeatLookupsLocally) {
  ShardRig rig(GetParam());
  auto mod = rig.tb.spawn_module("leased-mod", "m3", "lan").value();
  auto client = rig.tb.spawn_module("lease-client", "m1", "lan").value();

  const nsp::ShardMap map(ShardRig::kShards);
  const std::size_t owner = map.shard_of("leased-mod");
  const metrics::MetricsRegistry& server =
      rig.tb.shard(owner).node().metrics();
  const std::uint64_t server_before = counter_value(server, "ns.lookups");
  const metrics::Snapshot client_before = client->metrics().snapshot();

  constexpr int kRepeats = 25;
  for (int i = 0; i < kRepeats; ++i) {
    auto addr = client->commod().locate("leased-mod");
    ASSERT_TRUE(addr.ok());
    EXPECT_EQ(addr.value(), mod->identity().uadd());
  }

  const metrics::Snapshot client_after = client->metrics().snapshot();
  // One server round trip; every repeat came out of the lease cache.
  EXPECT_EQ(counter_value(server, "ns.lookups") - server_before, 1u);
  EXPECT_EQ(counter_value(client_after, "nsp.cache_misses") -
                counter_value(client_before, "nsp.cache_misses"),
            1u);
  EXPECT_EQ(counter_value(client_after, "nsp.cache_hits") -
                counter_value(client_before, "nsp.cache_hits"),
            static_cast<std::uint64_t>(kRepeats - 1));

  auto lease = client->nsp().lease_peek("leased-mod");
  ASSERT_TRUE(lease.has_value());
  EXPECT_EQ(lease->shard, owner);
  EXPECT_EQ(lease->uadd, mod->identity().uadd());

  mod->stop();
  client->stop();
}

TEST_P(NamingConformance, ModuleMoveBumpsTheEpochAndRefreshesTheLease) {
  ShardRig rig(GetParam());
  const nsp::ShardMap map(ShardRig::kShards);
  const std::size_t owner = map.shard_of("mover");

  auto gen1 = rig.tb.spawn_module("mover", "m1", "lan").value();
  auto client = rig.tb.spawn_module("move-client", "m2", "lan").value();

  auto first = client->commod().locate("mover");
  ASSERT_TRUE(first.ok());
  auto lease1 = client->nsp().lease_peek("mover");
  ASSERT_TRUE(lease1.has_value());
  const std::uint64_t epoch1 = rig.tb.shard(owner).epoch();
  EXPECT_EQ(lease1->epoch, epoch1);

  // The move: the old incarnation dies, a new one registers under the same
  // name on another machine. The owning shard detects the re-registration
  // and bumps its epoch so every lease granted before the move dies.
  gen1->stop();
  auto gen2 = rig.tb.spawn_module("mover", "m3", "lan").value();
  EXPECT_EQ(rig.tb.shard(owner).epoch(), epoch1 + 1);

  client->nsp().debug_force_expire("mover");
  auto second = client->commod().locate("mover");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value(), gen2->identity().uadd());
  EXPECT_NE(second.value(), first.value());
  auto lease2 = client->nsp().lease_peek("mover");
  ASSERT_TRUE(lease2.has_value());
  EXPECT_EQ(lease2->epoch, epoch1 + 1);

  gen2->stop();
  client->stop();
}

TEST_P(NamingConformance, KilledPrimaryFailsOverToTheWarmStandby) {
  ShardRig rig(GetParam());
  const nsp::ShardMap map(ShardRig::kShards);

  // A target owned by shard 1, plus a client that has already resolved it.
  const std::string target_name =
      name_owned_by(1, ShardRig::kShards, "fo-target-");
  EchoMod target(rig.tb, target_name, "m2", "gen-1");
  auto client = rig.tb.spawn_module("fo-client", "m1", "lan").value();
  auto before = client->commod().locate(target_name);
  ASSERT_TRUE(before.ok());

  const std::uint64_t failovers_before = metric("ns.failovers");
  ASSERT_TRUE(rig.tb.shard_has_standby(1));
  const std::uint64_t epoch_before = rig.tb.shard_standby(1).epoch();

  rig.tb.kill_shard_primary(1);

  // Reads fail over transparently: candidate rotation retargets the shard
  // UAdd at the standby.
  client->nsp().debug_force_expire(target_name);
  auto after = client->commod().locate(target_name);
  ASSERT_TRUE(after.ok()) << after.error().what();
  EXPECT_EQ(after.value(), target.uadd());

  // The first *write* reaching the standby makes it probe the dead primary
  // and promote itself under a bumped epoch.
  const std::string write_name =
      name_owned_by(1, ShardRig::kShards, "fo-write-");
  auto writer = rig.tb.spawn_module(write_name, "m3", "lan").value();
  EXPECT_EQ(rig.tb.shard_standby(1).role(), NsRole::primary);
  EXPECT_GT(rig.tb.shard_standby(1).epoch(), epoch_before);
  EXPECT_GT(metric("ns.failovers"), failovers_before);

  // End-to-end: the promoted shard serves the whole contract.
  auto via_standby = client->commod().locate(write_name);
  ASSERT_TRUE(via_standby.ok());
  EXPECT_EQ(via_standby.value(), writer->identity().uadd());
  auto ri = client->nsp().resolve_info(after.value());
  ASSERT_TRUE(ri.ok()) << ri.error().what();
  EXPECT_EQ(ri.value().phys.blob, target.node->phys().blob);
  auto reply = client->commod().request(after.value(), to_bytes("who"), 5s);
  ASSERT_TRUE(reply.ok()) << reply.error().what();
  EXPECT_EQ(to_string(reply.value().payload), "gen-1");

  writer->stop();
  client->stop();
}

INSTANTIATE_TEST_SUITE_P(Backends, NamingConformance,
                         ::testing::Values(harness::BackendKind::simnet,
                                           harness::BackendKind::realnet),
                         [](const auto& info) {
                           return harness::backend_param_name(info.param);
                         });

// ===================================================== ring invariants

TEST(ShardRing, AddingAShardRemapsOnlyItsFractionAndOnlyToIt) {
  constexpr int kKeys = 20000;
  for (std::size_t n : {2u, 4u, 8u}) {
    const nsp::ShardMap before(n);
    const nsp::ShardMap after(n + 1);
    int moved = 0;
    int cross_moved = 0;
    for (int i = 0; i < kKeys; ++i) {
      const std::string key = "ring-key-" + std::to_string(i);
      const std::size_t sa = before.shard_of(key);
      const std::size_t sb = after.shard_of(key);
      if (sa == sb) continue;
      ++moved;
      if (sb != n) ++cross_moved;  // moved, but not to the new shard
    }
    // Consistent hashing: a new shard only ever *claims* keys; no key may
    // shuffle between two pre-existing shards.
    EXPECT_EQ(cross_moved, 0) << n << " -> " << n + 1 << " shards";
    // And it claims roughly its fair share, ~1/(n+1) of the space. The
    // bound is loose (vnode placement is hash-lumpy) but pins the order of
    // magnitude: far below "rehash everything", far above "claims nothing".
    const double frac = static_cast<double>(moved) / kKeys;
    const double ideal = 1.0 / static_cast<double>(n + 1);
    EXPECT_GT(frac, ideal / 4) << n << " -> " << n + 1 << " shards";
    EXPECT_LT(frac, ideal * 4) << n << " -> " << n + 1 << " shards";
  }
}

TEST(ShardRing, PlacementIsBalanced) {
  constexpr int kKeys = 20000;
  constexpr std::size_t kShards = 4;
  const nsp::ShardMap map(kShards);
  std::vector<int> per_shard(kShards, 0);
  for (int i = 0; i < kKeys; ++i) {
    ++per_shard[map.shard_of("balance-key-" + std::to_string(i))];
  }
  const int ideal = kKeys / static_cast<int>(kShards);
  for (std::size_t s = 0; s < kShards; ++s) {
    EXPECT_GT(per_shard[s], ideal / 3) << "shard " << s;
    EXPECT_LT(per_shard[s], ideal * 3) << "shard " << s;
  }
}

TEST(ShardRing, PlacementDependsOnNothingButTheShardCount) {
  // The whole naming suite is swept across fabric seeds via
  // NTCS_FABRIC_SEED. Placement must be identical under every seed —
  // clients and servers never exchange the ring, they *recompute* it, so
  // any environmental input would split the cluster's view of ownership.
  // Mixing the env seed into the constructed maps proves indirectly that
  // the ring has no seed parameter at all; two independently built maps
  // must agree point-for-point, and the owner routing must agree with a
  // live rig built under the same env seed.
  const nsp::ShardMap a(5);
  const nsp::ShardMap b(5);
  for (int i = 0; i < 2000; ++i) {
    const std::string key =
        "seed-key-" + std::to_string(fabric_seed()) + "-" + std::to_string(i);
    ASSERT_EQ(a.shard_of(key), b.shard_of(key)) << key;
  }

  ShardRig rig(harness::BackendKind::simnet);
  const nsp::ShardMap client_side(ShardRig::kShards);
  auto mod = rig.tb.spawn_module("seed-pin", "m1", "lan").value();
  const std::size_t owner = client_side.shard_of("seed-pin");
  // The server-side ring placed the registration on the same shard the
  // client-side ring predicts, whatever seed this run uses.
  EXPECT_TRUE(rig.tb.shard(owner).db_lookup(mod->identity().uadd()).has_value());
  mod->stop();
}

// ================================================= churn property suite

TEST(NamingChurnProperty, ResolvesCurrentLocationOrRetriableError) {
  const std::uint64_t inversions_before = analysis::lock_inversions();
  ShardRig rig(harness::BackendKind::simnet, /*lease_ms=*/150);

  simnet::FaultPlan plan;
  plan.dup_prob = 0.05;
  plan.reorder_prob = 0.05;
  plan.reorder_window = 2ms;
  rig.tb.fabric().set_fault_plan(rig.tb.fabric().network_by_name("lan").value(),
                                 plan);

  constexpr int kWorkers = 5;
  const char* machines[] = {"m1", "m2", "m3"};
  std::vector<std::unique_ptr<EchoMod>> workers;
  std::vector<int> gen(kWorkers, 1);
  for (int i = 0; i < kWorkers; ++i) {
    workers.push_back(std::make_unique<EchoMod>(
        rig.tb, "w" + std::to_string(i), machines[i % 3], "g1"));
  }
  auto c1 = rig.tb.spawn_module("churn-c1", "m1", "lan").value();
  auto c2 = rig.tb.spawn_module("churn-c2", "m2", "lan").value();

  std::mt19937_64 rng(fabric_seed() * 7919 + 13);
  std::vector<std::unique_ptr<Node>> scratch;  // extra registered modules
  std::vector<bool> shard_killed(ShardRig::kShards, false);
  int kills = 0;

  auto sweep = [&](Node& client) {
    for (int i = 0; i < kWorkers; ++i) {
      const std::string name = "w" + std::to_string(i);
      const std::string want = "g" + std::to_string(gen[i]);
      const auto deadline = std::chrono::steady_clock::now() + 10s;
      while (true) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << name << ": no successful resolution before the deadline";
        auto addr = client.commod().locate(name);
        if (!addr.ok()) {
          // A failed resolution must always be retriable.
          ASSERT_TRUE(retriable(addr.code()))
              << name << ": " << addr.error().what();
          std::this_thread::sleep_for(20ms);
          continue;
        }
        auto reply = client.commod().request(addr.value(), to_bytes("who"), 2s);
        if (!reply.ok()) {
          ASSERT_TRUE(retriable(reply.code()))
              << name << ": " << reply.error().what();
          std::this_thread::sleep_for(20ms);
          continue;
        }
        // The answer reached *some* incarnation; it must be the current
        // one — a reply from a dead generation is the silent wrong answer
        // this suite exists to rule out.
        ASSERT_EQ(to_string(reply.value().payload), want) << name;
        break;
      }
    }
  };

  constexpr int kRounds = 12;
  for (int round = 0; round < kRounds; ++round) {
    switch (rng() % 4) {
      case 0: {  // move a worker: kill it, re-register elsewhere
        const int i = static_cast<int>(rng() % kWorkers);
        workers[i]->stop();
        ++gen[i];
        workers[i] = std::make_unique<EchoMod>(
            rig.tb, "w" + std::to_string(i),
            machines[(i + gen[i]) % 3], "g" + std::to_string(gen[i]));
        break;
      }
      case 1: {  // kill a shard primary (at most two, distinct shards)
        const std::size_t s = rng() % ShardRig::kShards;
        if (kills < 2 && !shard_killed[s] && round > 2) {
          rig.tb.kill_shard_primary(s);
          shard_killed[s] = true;
          ++kills;
        }
        break;
      }
      case 2: {  // register a brand-new module (drives writes/promotions)
        auto extra = rig.tb.spawn_module(
            "x" + std::to_string(round), machines[round % 3], "lan");
        ASSERT_TRUE(extra.ok()) << extra.error().what();
        scratch.push_back(std::move(extra).value());
        break;
      }
      default:  // a quiet round: pure lookups
        break;
    }
    sweep(*c1);
    sweep(*c2);
  }

  // Any shard whose primary died must have completed failover by now (the
  // worker re-registrations above are the promoting writes).
  for (std::size_t s = 0; s < ShardRig::kShards; ++s) {
    if (shard_killed[s]) {
      EXPECT_EQ(rig.tb.shard_standby(s).role(), NsRole::primary)
          << "shard " << s;
    }
  }
  EXPECT_EQ(analysis::lock_inversions(), inversions_before);

  for (auto& n : scratch) n->stop();
  c1->stop();
  c2->stop();
}

// ===================================================== chaos regression

TEST(NamingChaos, PrimaryDeathMidLookupStormFailsOverCleanly) {
  const std::uint64_t inversions_before = analysis::lock_inversions();
  ShardRig rig(harness::BackendKind::simnet, /*lease_ms=*/100);

  simnet::FaultPlan plan;
  plan.dup_prob = 0.1;
  plan.reorder_prob = 0.1;
  plan.reorder_window = 2ms;
  plan.flap_period = 50ms;
  plan.flap_down = 5ms;
  rig.tb.fabric().set_fault_plan(rig.tb.fabric().network_by_name("lan").value(),
                                 plan);

  const std::string target_name =
      name_owned_by(1, ShardRig::kShards, "storm-target-");
  EchoMod target(rig.tb, target_name, "m2", "gen-1");
  auto c1 = rig.tb.spawn_module("storm-c1", "m1", "lan").value();
  auto c2 = rig.tb.spawn_module("storm-c2", "m3", "lan").value();

  const std::uint64_t failovers_before = metric("ns.failovers");
  const std::uint64_t invalidations_before = metric("nsp.cache_invalidations");
  std::vector<std::uint64_t> promotions_before;
  for (std::size_t s = 0; s < ShardRig::kShards; ++s) {
    promotions_before.push_back(counter_value(
        rig.tb.shard_standby(s).node().metrics(), "ns.failovers"));
  }
  const std::uint64_t client_invalidations_before =
      counter_value(c1->metrics(), "nsp.cache_invalidations") +
      counter_value(c2->metrics(), "nsp.cache_invalidations") +
      counter_value(target.node->metrics(), "nsp.cache_invalidations");

  // The storm: both clients resolve and query the target in a tight loop.
  // Leases are short (100ms), so the loop keeps crossing the server even
  // while the cache absorbs the bulk. Gtest assertions are not
  // thread-safe from worker threads, so failures are tallied and asserted
  // after the join.
  std::atomic<bool> stop{false};
  std::atomic<int> successes{0};
  std::atomic<int> retriable_errors{0};
  std::atomic<int> fatal_errors{0};
  std::atomic<int> wrong_answers{0};
  auto storm = [&](Node& client) {
    while (!stop.load()) {
      auto addr = client.commod().locate(target_name);
      if (!addr.ok()) {
        (retriable(addr.code()) ? retriable_errors : fatal_errors)++;
        continue;
      }
      auto reply = client.commod().request(addr.value(), to_bytes("?"), 2s);
      if (!reply.ok()) {
        (retriable(reply.code()) ? retriable_errors : fatal_errors)++;
        continue;
      }
      if (to_string(reply.value().payload) != "gen-1") {
        wrong_answers++;
      } else {
        successes++;
      }
    }
  };
  std::jthread t1([&] { storm(*c1); });
  std::jthread t2([&] { storm(*c2); });

  std::this_thread::sleep_for(300ms);
  rig.tb.kill_shard_primary(1);
  std::this_thread::sleep_for(200ms);

  // The promoting write, issued mid-storm with the faults still flowing.
  const std::string write_name =
      name_owned_by(1, ShardRig::kShards, "storm-write-");
  auto writer = rig.tb.spawn_module(write_name, "m1", "lan");
  ASSERT_TRUE(writer.ok()) << writer.error().what();

  std::this_thread::sleep_for(300ms);
  stop.store(true);
  t1.join();
  t2.join();

  // Failover completed, the storm survived it, nothing non-retriable or
  // wrong ever surfaced, and the lock validator stayed silent throughout.
  EXPECT_EQ(rig.tb.shard_standby(1).role(), NsRole::primary);
  EXPECT_GT(successes.load(), 0);
  EXPECT_EQ(fatal_errors.load(), 0);
  EXPECT_EQ(wrong_answers.load(), 0);
  EXPECT_EQ(analysis::lock_inversions(), inversions_before);

  // Metrics reconcile with what actually happened: the global failover
  // counter moved by exactly the promotions the standbys report, and the
  // global invalidation counter by exactly the leases the client caches
  // dropped.
  std::uint64_t promotions_delta = 0;
  for (std::size_t s = 0; s < ShardRig::kShards; ++s) {
    promotions_delta += counter_value(rig.tb.shard_standby(s).node().metrics(),
                                      "ns.failovers") -
                        promotions_before[s];
  }
  EXPECT_GE(promotions_delta, 1u);
  EXPECT_EQ(metric("ns.failovers") - failovers_before, promotions_delta);

  const std::uint64_t client_invalidations_delta =
      counter_value(c1->metrics(), "nsp.cache_invalidations") +
      counter_value(c2->metrics(), "nsp.cache_invalidations") +
      counter_value(target.node->metrics(), "nsp.cache_invalidations") -
      client_invalidations_before;
  EXPECT_EQ(metric("nsp.cache_invalidations") - invalidations_before,
            client_invalidations_delta);

  writer.value()->stop();
  c1->stop();
  c2->stop();
}

}  // namespace
}  // namespace ntcs::core
