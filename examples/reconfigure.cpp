// reconfigure — dynamic reconfiguration in action (paper §3.5).
//
// A client resolves a server's address ONCE, then keeps calling it while
// the process controller relocates the server across three machines. The
// client never re-resolves: every move is recovered transparently by the
// LCM-Layer's address-fault handler and the naming service's forwarding
// determination.
//
// Build & run:  ./examples/reconfigure
#include <cstdio>

#include "core/testbed.h"
#include "drts/process_control.h"

using namespace std::chrono_literals;
using ntcs::convert::Arch;

int main() {
  ntcs::core::Testbed tb;
  tb.net("lan");
  tb.machine("vax1", Arch::vax780, {"lan"});
  tb.machine("sun1", Arch::sun3, {"lan"});
  tb.machine("apollo1", Arch::apollo_dn330, {"lan"});
  if (!tb.start_name_server("vax1", "lan").ok()) return 1;
  if (!tb.finalize().ok()) return 1;

  ntcs::drts::ProcessController pc(tb);
  auto first = pc.spawn("worker", "sun1", "lan", {{"role", "worker"}},
                        ntcs::drts::make_echo_service());
  if (!first.ok()) return 1;

  auto client = tb.spawn_module("client", "vax1", "lan").value();
  const auto addr = client->commod().locate("worker").value();
  std::printf("client resolved worker -> %s (once; never again)\n",
              addr.to_string().c_str());

  const char* machines[] = {"apollo1", "vax1", "sun1"};
  int call = 0;
  auto call_worker = [&](const char* note) {
    auto reply = client->commod().request(
        addr, ntcs::to_bytes("call " + std::to_string(++call)), 3s);
    if (reply.ok()) {
      std::printf("  [%s] reply: \"%s\"\n", note,
                  ntcs::to_string(reply.value().payload).c_str());
    } else {
      std::printf("  [%s] FAILED: %s\n", note,
                  reply.error().to_string().c_str());
    }
  };

  call_worker("initial placement sun1");
  for (const char* machine : machines) {
    auto moved = pc.relocate("worker", machine, "lan");
    if (!moved.ok()) return 1;
    std::printf("relocated worker -> %s (new UAdd %s)\n", machine,
                moved.value().to_string().c_str());
    call_worker(machine);
  }

  const ntcs::metrics::Snapshot stats = client->metrics().snapshot();
  std::printf(
      "client LCM: %llu address fault(s) handled, %llu relocation(s) "
      "resolved, %llu reconnect(s)\n",
      static_cast<unsigned long long>(stats.value("lcm.address_faults")),
      static_cast<unsigned long long>(stats.value("lcm.relocations")),
      static_cast<unsigned long long>(stats.value("lcm.reconnects")));
  std::printf("forwarding now maps %s -> %s\n", addr.to_string().c_str(),
              client->lcm().current_target(addr).to_string().c_str());
  client->stop();
  std::printf("reconfigure OK\n");
  return 0;
}
