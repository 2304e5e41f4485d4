// E5 (paper §3.5, §4.3): dynamic reconfiguration cost.
//
// Claims reproduced:
//   * relocating a module mid-conversation is recovered transparently —
//     the client's next request succeeds against the address it resolved
//     before the move;
//   * recovery costs one address fault + one forwarding query + one
//     re-established circuit ("in exactly the same manner as during an
//     initial connection"), measured end to end.
#include <benchmark/benchmark.h>

#include "bench_util.h"

namespace {

using namespace ntcs;
using namespace ntcs::bench;

struct ReconfigRig {
  core::Testbed tb;
  ntcs::drts::ProcessController pc{tb};
  std::unique_ptr<core::Node> client;
  core::UAdd addr;
  int placement = 0;

  ReconfigRig() {
    tb.net("lan");
    tb.machine("m1", convert::Arch::vax780, {"lan"});
    tb.machine("m2", convert::Arch::sun3, {"lan"});
    tb.machine("m3", convert::Arch::apollo_dn330, {"lan"});
    if (!tb.start_name_server("m1", "lan").ok()) std::abort();
    if (!tb.finalize().ok()) std::abort();
    if (!pc.spawn("svc", "m2", "lan", {}, ntcs::drts::make_echo_service())
             .ok()) {
      std::abort();
    }
    client = tb.spawn_module("client", "m1", "lan").value();
    addr = client->commod().locate("svc").value();
    (void)client->commod().request(addr, to_bytes("warm"), 5s);
  }
  ~ReconfigRig() { client->stop(); }

  const char* next_machine() {
    static const char* kMachines[] = {"m3", "m2"};
    return kMachines[placement++ % 2];
  }
};

ReconfigRig& rig() {
  static ReconfigRig r;
  return r;
}

/// Steady-state request (baseline: no reconfiguration).
void BM_RequestNoReconfig(benchmark::State& state) {
  ReconfigRig& r = rig();
  for (auto _ : state) {
    auto reply = r.client->commod().request(r.addr, to_bytes("x"), 5s);
    if (!reply.ok()) state.SkipWithError("request failed");
  }
}
BENCHMARK(BM_RequestNoReconfig)->Unit(benchmark::kMicrosecond);

/// First request after a relocation: fault + forwarding query + reconnect
/// + resend. The relocation itself (kill + respawn) is excluded.
void BM_FirstRequestAfterRelocation(benchmark::State& state) {
  ReconfigRig& r = rig();
  for (auto _ : state) {
    state.PauseTiming();
    if (!r.pc.relocate("svc", r.next_machine(), "lan").ok()) {
      state.SkipWithError("relocation failed");
      break;
    }
    state.ResumeTiming();
    auto reply = r.client->commod().request(r.addr, to_bytes("x"), 5s);
    if (!reply.ok()) state.SkipWithError("post-move request failed");
  }
  state.counters["relocations_resolved"] = benchmark::Counter(
      static_cast<double>(
          r.client->metrics().snapshot().value("lcm.relocations")));
}
BENCHMARK(BM_FirstRequestAfterRelocation)->Unit(benchmark::kMicrosecond);

/// The relocation operation itself (kill + respawn + re-register).
void BM_RelocateOperation(benchmark::State& state) {
  ReconfigRig& r = rig();
  for (auto _ : state) {
    if (!r.pc.relocate("svc", r.next_machine(), "lan").ok()) {
      state.SkipWithError("relocation failed");
      break;
    }
  }
}
BENCHMARK(BM_RelocateOperation)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
