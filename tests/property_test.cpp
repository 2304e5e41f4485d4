// Property-based sweeps: randomized topologies, message contents and
// relocation schedules, parameterized over seeds. Invariants checked:
//   P1 every pair of modules in a connected internetwork can converse;
//   P2 payloads arrive bit-identical regardless of size, content, machine
//      pair, or route length;
//   P3 a client issuing requests across any relocation schedule eventually
//      gets every request answered;
//   P4 schema messages survive any (src, dst) architecture pair.
#include <gtest/gtest.h>

#include <thread>

#include "common/rng.h"
#include "core/testbed.h"
#include "drts/process_control.h"

namespace ntcs::core {
namespace {

using namespace std::chrono_literals;
using convert::Arch;

constexpr Arch kArchs[] = {Arch::vax780, Arch::microvax, Arch::sun2,
                           Arch::sun3, Arch::apollo_dn330, Arch::pdp11_70};

class RandomTopology : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomTopology, AllPairsConverse) {
  // Build a random tree of 2..5 networks with a gateway per edge, scatter
  // 4 modules over random machines, then check all ordered pairs.
  Rng rng(GetParam());
  Testbed tb(GetParam());
  const int n_nets = static_cast<int>(rng.next_in(2, 5));
  std::vector<std::string> nets;
  for (int n = 0; n < n_nets; ++n) {
    nets.push_back("net-" + std::to_string(n));
    tb.net(nets.back());
  }
  // One machine per network at least.
  std::vector<std::string> machines;
  for (int n = 0; n < n_nets; ++n) {
    machines.push_back("m" + std::to_string(n));
    tb.machine(machines.back(), kArchs[rng.next_below(6)], {nets[n]});
  }
  ASSERT_TRUE(tb.start_name_server(machines[0], nets[0]).ok());
  // Tree edges: net i joins a random earlier net via a gateway machine.
  for (int n = 1; n < n_nets; ++n) {
    const int parent = static_cast<int>(rng.next_below(n));
    const std::string gm = "gwm-" + std::to_string(n);
    tb.machine(gm, kArchs[rng.next_below(6)], {nets[parent], nets[n]});
    ASSERT_TRUE(
        tb.add_gateway("gw-" + std::to_string(n), gm, {nets[parent], nets[n]})
            .ok());
  }
  ASSERT_TRUE(tb.finalize().ok());

  constexpr int kModules = 4;
  std::vector<std::unique_ptr<Node>> mods;
  for (int m = 0; m < kModules; ++m) {
    const int net = static_cast<int>(rng.next_below(n_nets));
    auto node = tb.spawn_module("mod-" + std::to_string(m), machines[net],
                                nets[net]);
    ASSERT_TRUE(node.ok()) << node.error().to_string();
    mods.push_back(std::move(node.value()));
  }
  // Echo loops on every module.
  std::vector<std::jthread> loops;
  for (auto& mod : mods) {
    loops.emplace_back([&mod](std::stop_token st) {
      while (!st.stop_requested()) {
        auto in = mod->commod().receive(50ms);
        if (in.ok() && in.value().is_request) {
          (void)mod->commod().reply(in.value().reply_ctx, in.value().payload);
        }
      }
    });
  }
  for (int i = 0; i < kModules; ++i) {
    for (int j = 0; j < kModules; ++j) {
      if (i == j) continue;
      auto addr = mods[static_cast<std::size_t>(i)]->commod().locate(
          "mod-" + std::to_string(j));
      ASSERT_TRUE(addr.ok());
      const std::string body =
          "pair " + std::to_string(i) + "->" + std::to_string(j);
      auto reply = mods[static_cast<std::size_t>(i)]->commod().request(
          addr.value(), to_bytes(body), 5s);
      ASSERT_TRUE(reply.ok())
          << i << "->" << j << ": " << reply.error().to_string();
      EXPECT_EQ(to_string(reply.value().payload), body);
    }
  }
  for (auto& t : loops) t.request_stop();
  loops.clear();
  for (auto& mod : mods) mod->stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomTopology,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

class RandomPayloads : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomPayloads, BitExactAcrossRandomSizes) {
  Rng rng(GetParam() * 977);
  Testbed tb;
  tb.net("lan");
  tb.machine("m1", kArchs[rng.next_below(6)], {"lan"});
  tb.machine("m2", kArchs[rng.next_below(6)], {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto a = tb.spawn_module("a", "m1", "lan").value();
  auto b = tb.spawn_module("b", "m2", "lan").value();
  auto addr = a->commod().locate("b").value();
  for (int i = 0; i < 25; ++i) {
    // Sizes biased to exercise 0, tiny, MTU-straddling and large cases.
    std::size_t size;
    switch (rng.next_below(4)) {
      case 0: size = rng.next_below(4); break;
      case 1: size = rng.next_below(512); break;
      case 2: size = 16 * 1024 - 8 + rng.next_below(16); break;  // near MTU
      default: size = rng.next_below(200 * 1024); break;
    }
    Bytes msg(size);
    for (auto& byte : msg) byte = static_cast<std::uint8_t>(rng.next());
    ASSERT_TRUE(a->commod().send(addr, msg).ok());
    auto in = b->commod().receive(5s);
    ASSERT_TRUE(in.ok());
    EXPECT_EQ(in.value().payload, msg) << "size " << size;
  }
  a->stop();
  b->stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPayloads,
                         ::testing::Values(1, 2, 3, 4));

class RelocationStorm : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RelocationStorm, EveryRequestEventuallyAnswered) {
  Rng rng(GetParam() * 31);
  Testbed tb;
  tb.net("lan");
  const std::vector<std::string> machines = {"m0", "m1", "m2"};
  for (std::size_t i = 0; i < machines.size(); ++i) {
    tb.machine(machines[i], kArchs[i % 6], {"lan"});
  }
  ASSERT_TRUE(tb.start_name_server("m0", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  ntcs::drts::ProcessController pc(tb);
  ASSERT_TRUE(
      pc.spawn("svc", "m1", "lan", {}, ntcs::drts::make_echo_service()).ok());
  auto client = tb.spawn_module("client", "m0", "lan").value();
  auto addr = client->commod().locate("svc").value();

  // Bounded churn: a fixed burst of relocations concurrent with the
  // requests. (Unbounded churn under heavy machine load can outpace
  // recovery indefinitely — a livelock the paper's design does not claim
  // to prevent; the property is convergence once churn is finite.)
  std::jthread mover([&] {
    for (int i = 0; i < 25; ++i) {
      (void)pc.relocate("svc",
                        machines[rng.next_below(machines.size())], "lan");
      std::this_thread::sleep_for(std::chrono::milliseconds(
          5 + rng.next_below(10)));
    }
  });
  int answered = 0;
  constexpr int kRequests = 40;
  for (int i = 0; i < kRequests; ++i) {
    // A request may race a kill window (module gone, successor not yet
    // registered) — retry, as an application would. The budget is generous
    // because under full-suite load a respawn (node start + registration)
    // can take hundreds of milliseconds.
    for (int attempt = 0; attempt < 200; ++attempt) {
      auto reply = client->commod().request(
          addr, to_bytes(std::to_string(i)), 2s);
      if (reply.ok()) {
        EXPECT_EQ(to_string(reply.value().payload),
                  "echo:" + std::to_string(i));
        ++answered;
        break;
      }
      std::this_thread::sleep_for(10ms);
    }
  }
  mover.join();
  EXPECT_EQ(answered, kRequests);
  client->stop();
}

INSTANTIATE_TEST_SUITE_P(Seeds, RelocationStorm, ::testing::Values(1, 2, 3));

struct ArchPairParam {
  Arch src;
  Arch dst;
};

class SchemaOverWire : public ::testing::TestWithParam<ArchPairParam> {};

TEST_P(SchemaOverWire, RecordsSurviveAnyArchPair) {
  const auto [src_arch, dst_arch] = GetParam();
  Testbed tb;
  tb.net("lan");
  tb.machine("src", src_arch, {"lan"});
  tb.machine("dst", dst_arch, {"lan"});
  ASSERT_TRUE(tb.start_name_server("src", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto a = tb.spawn_module("a", "src", "lan").value();
  auto b = tb.spawn_module("b", "dst", "lan").value();

  convert::MessageSchema schema("probe",
                                {{"x", convert::FieldType::u64},
                                 {"y", convert::FieldType::i64},
                                 {"f", convert::FieldType::f64},
                                 {"c", convert::FieldType::chars, 16}});
  Rng rng(arch_wire_id(src_arch) * 17 + arch_wire_id(dst_arch));
  auto addr = a->commod().locate("b").value();
  for (int i = 0; i < 5; ++i) {
    auto rec = schema.make_record();
    ASSERT_TRUE(rec.set_u64("x", rng.next()).ok());
    ASSERT_TRUE(rec.set_i64("y", static_cast<std::int64_t>(rng.next())).ok());
    ASSERT_TRUE(rec.set_f64("f", rng.next_double() * 1e9).ok());
    ASSERT_TRUE(rec.set_string("c", "id-" + std::to_string(i)).ok());
    auto payload = a->commod().payload_for(rec);
    ASSERT_TRUE(payload.ok());
    ASSERT_TRUE(a->commod().send(addr, payload.value()).ok());
    auto in = b->commod().receive(2s);
    ASSERT_TRUE(in.ok());
    // Mode must match the compatibility matrix.
    EXPECT_EQ(in.value().mode,
              convert::choose_mode(src_arch, dst_arch));
    auto decoded = b->commod().decode(in.value(), schema);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded.value(), rec);
  }
  a->stop();
  b->stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllPairs, SchemaOverWire, [] {
      std::vector<ArchPairParam> pairs;
      for (Arch s : kArchs) {
        for (Arch d : kArchs) pairs.push_back({s, d});
      }
      return ::testing::ValuesIn(pairs);
    }(),
    [](const ::testing::TestParamInfo<ArchPairParam>& info) {
      return std::string(convert::arch_name(info.param.src)) + "_to_" +
             std::string(convert::arch_name(info.param.dst));
    });

// ---------------------------------------------------------------------------
// P5 (pipelined correlation): with many requests outstanding on one
// circuit from many threads, under fault injection, a reply redeemed for a
// ticket always carries *that request's* payload — never another
// request's, never a duplicate, never garbage. The fabric seed comes from
// NTCS_FABRIC_SEED when set (scripts/verify.sh sweeps it), so one binary
// checks the property across many deterministic fault schedules.

std::uint64_t env_fabric_seed(std::uint64_t fallback) {
  if (const char* s = std::getenv("NTCS_FABRIC_SEED")) {
    return static_cast<std::uint64_t>(std::strtoull(s, nullptr, 10));
  }
  return fallback;
}

struct ChaosClass {
  const char* name;
  simnet::FaultPlan plan;
};

// Print the class by name: gtest's default byte dump would embed the
// address of `name`, so the listed test names would change with the
// binary's layout.
void PrintTo(const ChaosClass& c, std::ostream* os) { *os << c.name; }

std::vector<ChaosClass> chaos_classes() {
  std::vector<ChaosClass> out;
  {
    ChaosClass c{"dup", {}};
    c.plan.dup_prob = 0.3;
    out.push_back(c);
  }
  {
    ChaosClass c{"reorder", {}};
    c.plan.reorder_prob = 0.2;
    c.plan.reorder_window = std::chrono::milliseconds(1);
    c.plan.jitter = std::chrono::microseconds(200);
    out.push_back(c);
  }
  {
    ChaosClass c{"flap", {}};
    c.plan.flap_period = std::chrono::milliseconds(40);
    c.plan.flap_down = std::chrono::milliseconds(8);
    out.push_back(c);
  }
  return out;
}

class PipelinedChaos : public ::testing::TestWithParam<ChaosClass> {};

TEST_P(PipelinedChaos, EveryReplyMatchesItsOwnRequest) {
  const ChaosClass& cls = GetParam();
  Testbed tb(env_fabric_seed(1));
  tb.net("lan");
  tb.machine("m1", Arch::vax780, {"lan"});
  tb.machine("m2", Arch::sun3, {"lan"});
  ASSERT_TRUE(tb.start_name_server("m1", "lan").ok());
  ASSERT_TRUE(tb.finalize().ok());
  auto client = tb.spawn_module("client", "m1", "lan").value();
  auto server = tb.spawn_module("server", "m2", "lan").value();
  auto addr = client->commod().locate("server").value();

  // Echo loop: the reply *is* the request payload, so a cross-matched
  // correlation ID is immediately visible at the client.
  std::jthread echo([&server](std::stop_token st) {
    while (!st.stop_requested()) {
      auto in = server->commod().receive(20ms);
      if (in.ok() && in.value().is_request) {
        (void)server->commod().reply(in.value().reply_ctx,
                                     in.value().payload);
      }
    }
  });

  const auto lan = tb.fabric().network_by_name("lan").value();
  tb.fabric().set_fault_plan(lan, cls.plan);

  constexpr int kThreads = 4;     // M concurrent issuers
  constexpr int kPerThread = 10;  // K requests each
  constexpr int kBatch = 4;       // outstanding tickets per issuer
  std::atomic<int> answered{0};
  std::atomic<int> mismatched{0};
  std::vector<std::jthread> issuers;
  for (int t = 0; t < kThreads; ++t) {
    issuers.emplace_back([&, t] {
      int done = 0;
      while (done < kPerThread) {
        // Issue a batch of pipelined requests, then redeem them all;
        // individual requests may time out under a flapping link and are
        // retried (fresh ticket) until the budget runs out.
        const int n = std::min(kBatch, kPerThread - done);
        std::vector<std::pair<std::string, RequestTicket>> batch;
        for (int i = 0; i < n; ++i) {
          const std::string body = "t" + std::to_string(t) + "-req" +
                                   std::to_string(done + i) + "-seed" +
                                   std::to_string(env_fabric_seed(1));
          auto ticket =
              client->commod().request_async(addr, to_bytes(body), 2s);
          if (ticket.ok()) batch.emplace_back(body, ticket.value());
        }
        for (auto& [body, ticket] : batch) {
          bool ok = false;
          auto r = client->commod().await(ticket);
          for (int attempt = 0; attempt < 100; ++attempt) {
            if (r.ok()) {
              if (to_string(r.value().payload) == body) {
                ok = true;
              } else {
                ++mismatched;
              }
              break;
            }
            auto again = client->commod().request_async(
                addr, to_bytes(body), 2s);
            if (again.ok()) r = client->commod().await(again.value());
          }
          if (ok) ++answered;
          ++done;
        }
      }
    });
  }
  issuers.clear();
  EXPECT_EQ(mismatched.load(), 0) << "cross-correlated replies under "
                                  << cls.name;
  EXPECT_EQ(answered.load(), kThreads * kPerThread);
  tb.fabric().clear_faults();
  client->stop();
  server->stop();
}

INSTANTIATE_TEST_SUITE_P(FaultClasses, PipelinedChaos,
                         ::testing::ValuesIn(chaos_classes()),
                         [](const ::testing::TestParamInfo<ChaosClass>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace ntcs::core
