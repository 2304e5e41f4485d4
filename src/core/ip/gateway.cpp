#include "core/ip/gateway.h"

#include "common/health.h"
#include "common/metrics.h"

namespace ntcs::core {

namespace {
// Bound on the pending-EXTEND backlog. Establishment is the slow path (a
// worker round trip per job); 1024 queued opens is already far beyond any
// healthy burst, and past it an attacker-shaped storm must be refused, not
// buffered into process memory.
constexpr std::size_t kExtendBacklog = 1024;
}  // namespace

Gateway::Gateway(std::string name, std::vector<Attachment> attachments,
                 std::optional<UAdd> prime_uadd)
    : name_(std::move(name)),
      attachments_(std::move(attachments)),
      prime_uadd_(prime_uadd),
      jobs_(kExtendBacklog) {
  if (prime_uadd_) uadd_.store(prime_uadd_->raw());
  // Health-plane pair: EXTEND backlog depth against its bound. All
  // gateways in a process share one aggregate depth gauge (delta-based),
  // which cannot overstate utilization against the per-queue bound.
  static metrics::Gauge& g_depth = metrics::gauge("gw.extend_backlog.depth");
  static metrics::Gauge& g_bound = metrics::gauge("gw.extend_backlog.bound");
  jobs_.set_depth_gauge(&g_depth, &g_bound);
}

Gateway::~Gateway() { stop(); }

ntcs::Status Gateway::start() {
  if (running_) return ntcs::Status::success();
  for (std::size_t i = 0; i < attachments_.size(); ++i) {
    const Attachment& a = attachments_[i];
    NodeConfig cfg;
    cfg.name = name_ + "." + a.net;  // one ComMod per network (Fig. 2-2)
    cfg.backend = a.backend;
    cfg.net = a.net;
    auto node = std::make_unique<Node>(cfg);
    if (prime_uadd_) node->identity().set_uadd(*prime_uadd_);
    if (auto st = node->start(); !st.ok()) return st;
    node->ip().set_gateway(this);
    nodes_.push_back(std::move(node));
  }
  worker_ = std::jthread([this](std::stop_token st) { worker_main(st); });
  running_ = true;
  return ntcs::Status::success();
}

ntcs::Status Gateway::register_with_ns(const WellKnownTable& wk) {
  if (nodes_.empty()) {
    return ntcs::Status(ntcs::Errc::bad_argument, "gateway not started");
  }
  for (auto& node : nodes_) node->install_well_known(wk);
  RegistrationInfo info;
  info.attrs = {{"type", "gateway"}};
  info.name_override = name_;
  info.is_gateway = true;
  if (prime_uadd_) info.requested_uadd = prime_uadd_->raw();
  for (auto& node : nodes_) {
    info.gw_nets.push_back(node->config().net);
    info.gw_phys.push_back(node->phys());
  }
  // §4.1: gateways register "the same as any application module" — through
  // one of their own ComMods, over the Nucleus they themselves support.
  // Pick an attachment whose route to the Name Server does not lead back
  // through this very gateway (a circuit through oneself is never needed:
  // the attachment on the nearer network can always go directly).
  Node* via = nodes_[0].get();
  ResolvedDest ns_dest{kNameServerUAdd, wk.name_server_phys,
                       wk.name_server_net};
  for (auto& node : nodes_) {
    auto route = node->ip().compute_route(ns_dest);
    if (!route || route.value().empty()) continue;
    const std::string& first = route.value().front().phys;
    bool through_self = false;
    for (auto& other : nodes_) {
      if (other->phys().blob == first) {
        through_self = true;
        break;
      }
    }
    if (!through_self) {
      via = node.get();
      break;
    }
  }
  auto uadd = via->nsp().register_module(info);
  if (!uadd) return uadd.error();
  uadd_.store(uadd.value().raw());
  // All attachments share the gateway's single identity.
  for (auto& node : nodes_) node->identity().set_uadd(uadd.value());
  return ntcs::Status::success();
}

void Gateway::stop() {
  if (!running_) return;
  running_ = false;
  jobs_.close();
  worker_.request_stop();
  if (worker_.joinable()) worker_.join();
  for (auto& node : nodes_) node->stop();
  health::heartbeat("gw." + name_).retire();
  health::journal_note(health::EventKind::transition, "gw", "stop");
}

GatewayRecord Gateway::record() const {
  GatewayRecord g;
  g.uadd = uadd();
  g.name = name_;
  for (const auto& node : nodes_) {
    g.nets.push_back(node->config().net);
    g.phys.push_back(node->phys());
  }
  return g;
}

PrimeGatewayInfo Gateway::prime_info() const {
  GatewayRecord g = record();
  PrimeGatewayInfo p;
  p.uadd = g.uadd;
  p.name = g.name;
  p.networks = g.nets;
  p.phys = g.phys;
  return p;
}

UAdd Gateway::uadd() const {
  return UAdd::from_raw(uadd_.load());
}

void Gateway::on_extend(IpLayer* in, LvcId in_lvc, std::uint64_t ivc,
                        wire::ExtendBody body) {
  ExtendJob job;
  job.in = in;
  job.in_lvc = in_lvc;
  job.ivc = ivc;
  job.body = std::move(body);
  auto st = jobs_.push(std::move(job));  // worker picks it up; pump returns
  if (!st.ok() && st.code() == ntcs::Errc::no_resource) {
    // Backlog full: refuse the establishment instead of buffering without
    // bound. The originator sees a retriable overloaded extend-failure.
    // fail() only sends one frame on the inbound LVC — pump-safe.
    extend_shed_.inc();
    health::journal_note(health::EventKind::shed, "gw", "extend_shed",
                         kExtendBacklog);
    ExtendJob shed;  // fail() only reads the reply coordinates
    shed.in = in;
    shed.in_lvc = in_lvc;
    shed.ivc = ivc;
    fail(shed, ntcs::Errc::overloaded,
         "gateway '" + name_ + "' extend backlog full");
  }
}

void Gateway::worker_main(const std::stop_token& st) {
  using namespace std::chrono_literals;
  // The worker iterates at least every 250ms (pop timeout) when idle; a
  // single wedged establishment round trip must not read as a stall, so
  // the stall window is generous.
  health::Heartbeat& hb =
      health::heartbeat("gw." + name_, std::chrono::seconds(2));
  while (!st.stop_requested()) {
    hb.beat();
    auto job = jobs_.pop_for(250ms);
    if (!job) {
      if (job.code() == ntcs::Errc::timeout) continue;
      break;  // queue closed
    }
    process(job.value());
  }
}

void Gateway::fail(const ExtendJob& job, ntcs::Errc code,
                   const std::string& text) {
  extends_failed_.inc();
  (void)job.in->nd().send(
      job.in_lvc, wire::encode_ip_extend_fail(
                      job.ivc, static_cast<std::uint32_t>(code), text));
}

void Gateway::process(const ExtendJob& job) {
  extends_handled_.inc();
  if (job.body.route.empty()) {
    fail(job, ntcs::Errc::bad_message, "EXTEND with empty route at gateway");
    return;
  }
  const wire::RouteHop hop = job.body.route.front();
  // Pick the attachment on the route's next network.
  Node* out_node = nullptr;
  for (auto& node : nodes_) {
    if (node->config().net == hop.net) {
      out_node = node.get();
      break;
    }
  }
  if (out_node == nullptr) {
    fail(job, ntcs::Errc::no_route,
         "gateway '" + name_ + "' has no attachment on " + hop.net);
    return;
  }
  auto out_lvc = out_node->nd().open(PhysAddr{hop.phys});
  if (!out_lvc) {
    fail(job, out_lvc.error().code(), out_lvc.error().what());
    return;
  }
  IvcHandle out_h{out_lvc.value(), job.ivc};
  auto waiter = out_node->ip().register_extend_waiter(out_h);
  wire::ExtendBody onward;
  onward.final_uadd = job.body.final_uadd;
  onward.route.assign(job.body.route.begin() + 1, job.body.route.end());
  auto sent = out_node->nd().send(out_h.lvc,
                                  wire::encode_ip_extend(job.ivc, onward));
  ntcs::Status outcome = ntcs::Status::success();
  if (!sent.ok()) {
    outcome = sent;
  } else {
    ntcs::UniqueLock wl(waiter->mu);
    if (!waiter->cv.wait_for(wl, std::chrono::seconds(8),
                             [&] { return waiter->result.has_value(); })) {
      outcome = ntcs::Status(ntcs::Errc::timeout, "onward EXTEND timed out");
    } else {
      outcome = *waiter->result;
    }
  }
  out_node->ip().unregister_extend_waiter(out_h);
  if (!outcome.ok()) {
    fail(job, outcome.error().code(), outcome.error().what());
    return;
  }
  // Splice: both directions of the chain relay through us from now on.
  const IvcHandle in_h{job.in_lvc, job.ivc};
  job.in->add_relay(in_h, &out_node->ip(), out_h);
  out_node->ip().add_relay(out_h, job.in, in_h);
  (void)job.in->nd().send(job.in_lvc, wire::encode_ip_extend_ok(job.ivc));
}

}  // namespace ntcs::core
