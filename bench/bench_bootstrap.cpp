// E4 (paper §3.4): bootstrap cost — TAdds and well-known addresses.
//
// Claims reproduced:
//   * a module comes up with NO special initial-connection protocol: the
//     ordinary LCM/IP/ND machinery plus a self-assigned TAdd and the
//     well-known table carry the first registration;
//   * TAdds are purged "within the first two communications with the Name
//     Server" (measured: promotions happen, and the module's very next
//     call uses its real UAdd).
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

using namespace ntcs;
using namespace ntcs::bench;

struct BootRig {
  core::Testbed tb;
  std::uint64_t counter = 0;

  BootRig() {
    tb.net("lan");
    tb.machine("m1", convert::Arch::vax780, {"lan"});
    tb.machine("m2", convert::Arch::sun3, {"lan"});
    if (!tb.start_name_server("m1", "lan").ok()) std::abort();
    if (!tb.finalize().ok()) std::abort();
  }
};

BootRig& rig() {
  static BootRig r;
  return r;
}

/// Full module bring-up: bind endpoint, start pump, register (the first
/// exchange runs over a TAdd), stop.
void BM_ModuleBringUp(benchmark::State& state) {
  BootRig& r = rig();
  for (auto _ : state) {
    auto node = r.tb.spawn_module("boot-" + std::to_string(r.counter++),
                                  "m2", "lan");
    if (!node.ok()) {
      state.SkipWithError("bring-up failed");
      break;
    }
    node.value()->stop();
  }
}
BENCHMARK(BM_ModuleBringUp)->Unit(benchmark::kMicrosecond);

/// Registration only (node already bound and pumping).
void BM_RegistrationOnly(benchmark::State& state) {
  BootRig& r = rig();
  for (auto _ : state) {
    state.PauseTiming();
    auto node = r.tb.make_node("reg-" + std::to_string(r.counter++), "m2",
                               "lan");
    if (!node.ok()) {
      state.SkipWithError("node start failed");
      break;
    }
    state.ResumeTiming();
    auto uadd = node.value()->commod().register_self();
    if (!uadd.ok()) state.SkipWithError("registration failed");
    state.PauseTiming();
    node.value()->stop();
    state.ResumeTiming();
  }
}
BENCHMARK(BM_RegistrationOnly)->Unit(benchmark::kMicrosecond);

/// TAdd purge: after registration + one ping, the Name-Server side must
/// have promoted the module's TAdd (≤ two communications, §3.4). The
/// benchmark reports promotions per bring-up as a counter.
void BM_TAddPurge(benchmark::State& state) {
  BootRig& r = rig();
  const metrics::MetricsRegistry& ns = r.tb.name_server().node().metrics();
  const auto before = ns.snapshot().value("lcm.tadds_promoted");
  std::uint64_t brought_up = 0;
  for (auto _ : state) {
    auto node =
        r.tb.spawn_module("tadd-" + std::to_string(r.counter++), "m2", "lan");
    if (!node.ok()) {
      state.SkipWithError("bring-up failed");
      break;
    }
    (void)node.value()->commod().ping_name_server();  // second exchange
    ++brought_up;
    node.value()->stop();
  }
  const auto after = ns.snapshot().value("lcm.tadds_promoted");
  state.counters["promotions_per_module"] = benchmark::Counter(
      brought_up == 0
          ? 0.0
          : static_cast<double>(after - before) /
                static_cast<double>(brought_up));
}
BENCHMARK(BM_TAddPurge)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
