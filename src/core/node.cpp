#include "core/node.h"

#include "common/health.h"

namespace ntcs::core {

std::vector<GatewayRecord> prime_gateway_records(const WellKnownTable& wk) {
  std::vector<GatewayRecord> out;
  out.reserve(wk.prime_gateways.size());
  for (const PrimeGatewayInfo& p : wk.prime_gateways) {
    GatewayRecord g;
    g.uadd = p.uadd;
    g.name = p.name;
    g.nets = p.networks;
    g.phys = p.phys;
    out.push_back(std::move(g));
  }
  return out;
}

Node::Node(NodeConfig cfg)
    : cfg_(std::move(cfg)),
      identity_(std::make_shared<Identity>(cfg_.name, cfg_.backend->arch(),
                                           cfg_.net)),
      nd_(*cfg_.backend, cfg_.name, identity_, metrics_, cfg_.nd),
      ip_(nd_, identity_, metrics_, cfg_.net, cfg_.ip),
      lcm_(ip_, identity_, metrics_, cfg_.lcm),
      nsp_(lcm_, identity_, metrics_),
      commod_(lcm_, nsp_, identity_) {}

Node::~Node() { stop(); }

ntcs::Status Node::start() {
  if (running_) return ntcs::Status::success();
  if (auto st = nd_.bind(); !st.ok()) return st;
  install_well_known(cfg_.well_known);
  // The recursion wiring (§3.1/§4.1): the Nucleus layers call *up* into the
  // naming service they carry.
  lcm_.set_resolver(&nsp_);
  ip_.set_topology_source([this] { return nsp_.gateways(); });
  pump_ = std::jthread([this](std::stop_token st) { pump_main(st); });
  running_ = true;
  health::journal_note(health::EventKind::transition, "node", "start");
  return ntcs::Status::success();
}

void Node::install_well_known(const WellKnownTable& wk) {
  lcm_.preload_well_known(wk);
  nsp_.configure_shards(wk);
  ip_.set_prime_gateways(prime_gateway_records(wk));
}

void Node::pump_main(const std::stop_token& st) {
  using namespace std::chrono_literals;
  // The pump iterates at least every 50ms (pump timeout), so a 1s
  // stall_after gives the watchdog ~20 missed iterations of slack before
  // declaring the dispatch loop stalled.
  health::Heartbeat& hb = health::heartbeat("pump." + cfg_.name);
  const IpEventSink up = [this](const IpEvent& e) { lcm_.on_ip_event(e); };
  while (!st.stop_requested()) {
    hb.beat();
    // A same-named node that stops retires this shared heartbeat (a
    // relocation starts the replacement before it kills the original):
    // re-arm it while this pump runs.
    if (!hb.active()) (void)health::heartbeat("pump." + cfg_.name);
    auto ev = nd_.pump(50ms);
    if (!ev) {
      if (ev.code() == ntcs::Errc::timeout) continue;
      break;  // endpoint closed: module is going away
    }
    if (!ev.value()) continue;  // internal to the ND-Layer
    ip_.on_nd_event(*ev.value(), up);
  }
}

void Node::run(std::function<void(std::stop_token)> body) {
  service_ = std::jthread(std::move(body));
}

void Node::stop() {
  if (!running_) return;
  running_ = false;
  service_.request_stop();
  nd_.shutdown();  // pump sees closed and exits
  pump_.request_stop();
  if (pump_.joinable()) pump_.join();
  lcm_.shutdown();  // closes the receive queue; nested waits fail
  if (service_.joinable()) service_.join();
  // A cleanly stopped pump must not read as a stalled one.
  health::heartbeat("pump." + cfg_.name).retire();
  health::journal_note(health::EventKind::transition, "node", "stop");
}

}  // namespace ntcs::core
