// topology_sim — a configurable NTCS deployment simulator.
//
// Builds a chain of N networks joined by gateways, scatters M echo-server
// modules across them, drives R request/reply round trips from a host on
// the first network to random modules, and prints a traffic summary —
// including the distributed monitor's per-conversation report.
//
// Usage: topology_sim [networks=3] [modules=6] [requests=200] [seed=1]
#include <cstdio>
#include <cstdlib>
#include <thread>

#include "common/rng.h"
#include "core/testbed.h"
#include "drts/monitor.h"
#include "drts/process_control.h"

using namespace std::chrono_literals;
using ntcs::convert::Arch;

int main(int argc, char** argv) {
  const int networks = argc > 1 ? std::atoi(argv[1]) : 3;
  const int modules = argc > 2 ? std::atoi(argv[2]) : 6;
  const int requests = argc > 3 ? std::atoi(argv[3]) : 200;
  const std::uint64_t seed = argc > 4
                                 ? static_cast<std::uint64_t>(
                                       std::atoll(argv[4]))
                                 : 1;
  if (networks < 1 || networks > 16 || modules < 1 || modules > 64 ||
      requests < 1) {
    std::fprintf(stderr,
                 "usage: %s [networks 1..16] [modules 1..64] [requests]\n",
                 argv[0]);
    return 2;
  }
  std::printf("topology: %d network(s) in a chain, %d module(s), "
              "%d request(s), seed %llu\n",
              networks, modules, requests,
              static_cast<unsigned long long>(seed));

  const Arch archs[] = {Arch::vax780, Arch::sun3, Arch::apollo_dn330,
                        Arch::sun2, Arch::microvax, Arch::pdp11_70};
  ntcs::core::Testbed tb(seed);
  std::vector<std::string> nets;
  for (int n = 0; n < networks; ++n) {
    nets.push_back("net-" + std::to_string(n));
    tb.net(nets.back());
  }
  std::vector<std::string> machines;
  for (int n = 0; n < networks; ++n) {
    machines.push_back("host-" + std::to_string(n));
    tb.machine(machines.back(), archs[n % 6], {nets[static_cast<size_t>(n)]});
  }
  if (!tb.start_name_server(machines[0], nets[0]).ok()) return 1;
  for (int n = 1; n < networks; ++n) {
    const std::string gm = "gw-host-" + std::to_string(n);
    tb.machine(gm, Arch::apollo_dn330,
               {nets[static_cast<size_t>(n - 1)], nets[static_cast<size_t>(n)]});
    if (!tb.add_gateway("gw-" + std::to_string(n), gm,
                        {nets[static_cast<size_t>(n - 1)],
                         nets[static_cast<size_t>(n)]})
             .ok()) {
      return 1;
    }
  }
  if (!tb.finalize().ok()) return 1;

  // Monitor on the last network (the farthest point from the host).
  ntcs::drts::MonitorServer monitor(
      tb.node_config("", machines.back(), nets.back()));
  if (!monitor.start().ok()) return 1;

  ntcs::drts::ProcessController pc(tb);
  ntcs::Rng rng(seed * 17);
  for (int m = 0; m < modules; ++m) {
    const int net = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(networks)));
    auto uadd = pc.spawn("mod-" + std::to_string(m),
                         machines[static_cast<size_t>(net)],
                         nets[static_cast<size_t>(net)], {},
                         ntcs::drts::make_echo_service());
    if (!uadd.ok()) return 1;
  }

  auto host = tb.spawn_module("driver", machines[0], nets[0]).value();
  ntcs::drts::MonitorClient mc(*host);
  host->lcm().set_monitor_hook(mc.hook());
  std::vector<ntcs::core::UAdd> addrs;
  for (int m = 0; m < modules; ++m) {
    addrs.push_back(
        host->commod().locate("mod-" + std::to_string(m)).value());
  }

  int ok = 0;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < requests; ++r) {
    const auto target = addrs[rng.next_below(addrs.size())];
    auto reply = host->commod().request(
        target, ntcs::to_bytes("req " + std::to_string(r)), 5s);
    if (reply.ok()) ++ok;
  }
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  std::printf("%d/%d requests answered in %.3f s (%.0f req/s)\n", ok,
              requests, elapsed, ok / elapsed);

  std::uint64_t relayed = 0;
  for (std::size_t g = 0; g < tb.gateway_count(); ++g) {
    for (std::size_t i = 0; i < tb.gateway(g).attachment_count(); ++i) {
      relayed += tb.gateway(g).attachment(i).metrics().snapshot().value(
          "ip.messages_relayed");
    }
  }
  std::printf("gateways relayed %llu message(s) in total\n",
              static_cast<unsigned long long>(relayed));
  std::this_thread::sleep_for(100ms);  // let the last dgrams land
  std::printf("\nmonitor report (per conversation):\n%s",
              monitor.report().c_str());

  host->stop();
  std::printf("topology_sim OK\n");
  return ok == requests ? 0 : 1;
}
