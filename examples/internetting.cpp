// internetting — portable internet support (paper §4).
//
// Four disjoint networks in a chain, three gateway modules; a module on
// net-1 talks to a module on net-4 over a three-gateway chained internet
// virtual circuit. The route is computed at the originator from topology
// held in the naming service; establishment proceeds hop-by-hop with no
// inter-gateway protocol.
//
// Build & run:  ./examples/internetting
#include <cstdio>

#include "core/testbed.h"

using namespace std::chrono_literals;
using ntcs::convert::Arch;

int main() {
  ntcs::core::Testbed tb;
  for (int i = 1; i <= 4; ++i) tb.net("net-" + std::to_string(i));
  tb.machine("m1", Arch::vax780, {"net-1"});
  tb.machine("g12", Arch::apollo_dn330, {"net-1", "net-2"});
  tb.machine("m2", Arch::sun3, {"net-2"});
  tb.machine("g23", Arch::apollo_dn330, {"net-2", "net-3"});
  tb.machine("g34", Arch::apollo_dn330, {"net-3", "net-4"});
  tb.machine("m4", Arch::sun2, {"net-4"});

  if (!tb.start_name_server("m2", "net-2").ok()) return 1;
  if (!tb.add_gateway("gw-12", "g12", {"net-1", "net-2"}).ok()) return 1;
  if (!tb.add_gateway("gw-23", "g23", {"net-2", "net-3"}).ok()) return 1;
  if (!tb.add_gateway("gw-34", "g34", {"net-3", "net-4"}).ok()) return 1;
  if (!tb.finalize().ok()) return 1;

  auto origin = tb.spawn_module("origin", "m1", "net-1").value();
  auto target = tb.spawn_module("target", "m4", "net-4").value();

  // Show the route the IP-Layer computes (normally invisible).
  ntcs::core::ResolvedDest dst;
  dst.uadd = target->identity().uadd();
  dst.phys = target->phys();
  dst.net = "net-4";
  auto route = origin->ip().compute_route(dst);
  if (route.ok()) {
    std::printf("route from net-1 to net-4 (%zu hops):\n",
                route.value().size());
    for (const auto& hop : route.value()) {
      std::printf("   on %-6s connect to %s\n", hop.net.c_str(),
                  hop.phys.c_str());
    }
  }

  // Converse across the chain.
  std::jthread server([&](std::stop_token st) {
    while (!st.stop_requested()) {
      auto in = target->commod().receive(100ms);
      if (in.ok() && in.value().is_request) {
        (void)target->commod().reply(in.value().reply_ctx,
                                     ntcs::to_bytes("greetings from net-4"));
      }
    }
  });
  auto addr = origin->commod().locate("target").value();
  auto reply = origin->commod().request(addr, ntcs::to_bytes("hello?"), 5s);
  if (!reply.ok()) {
    std::printf("request failed: %s\n", reply.error().to_string().c_str());
    return 1;
  }
  std::printf("reply across 3 gateways: \"%s\"\n",
              ntcs::to_string(reply.value().payload).c_str());

  // Per-gateway relay counters prove the chain was used.
  for (std::size_t g = 0; g < tb.gateway_count(); ++g) {
    std::uint64_t relayed = 0;
    for (std::size_t i = 0; i < tb.gateway(g).attachment_count(); ++i) {
      relayed += tb.gateway(g).attachment(i).metrics().snapshot().value(
          "ip.messages_relayed");
    }
    std::printf("gateway %s relayed %llu message(s)\n",
                tb.gateway(g).name().c_str(),
                static_cast<unsigned long long>(relayed));
  }
  server.request_stop();
  server.join();
  origin->stop();
  target->stop();
  std::printf("internetting OK\n");
  return 0;
}
