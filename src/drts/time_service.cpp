#include "drts/time_service.h"

#include "convert/packed.h"

namespace ntcs::drts {

using namespace std::chrono_literals;

TimeServer::TimeServer(core::NodeConfig cfg) {
  if (cfg.name.empty()) cfg.name = std::string(kTimeServiceName);
  node_ = std::make_unique<core::Node>(std::move(cfg));
}

TimeServer::~TimeServer() { stop(); }

ntcs::Status TimeServer::start() {
  if (node_->running()) return ntcs::Status::success();
  if (auto st = node_->start(); !st.ok()) return st;
  auto uadd = node_->commod().register_self({{"role", "time"}});
  if (!uadd) return uadd.error();
  node_->run([this](std::stop_token st) {
    node_->commod().serve(st, [this](const core::Incoming&) {
      // The answer is this machine's local clock — skew included; that is
      // precisely what the client corrects for.
      convert::Packer p;
      p.put_i64(node_->now().count());
      served_.fetch_add(1);
      return std::move(p).take();
    });
  });
  return ntcs::Status::success();
}

TimeClient::TimeClient(core::Node& node) : node_(node) {}

std::int64_t TimeClient::local_now_ns() const {
  return node_.now().count();
}

ntcs::Status TimeClient::sync(int samples) {
  // Locate the time service once (recursing through the naming service).
  core::UAdd server = core::UAdd::from_raw(server_uadd_raw_.load());
  if (!server.valid()) {
    auto located = node_.nsp().lookup(std::string(kTimeServiceName));
    if (!located) return located.error();
    server = located.value();
    server_uadd_raw_.store(server.raw());
  }
  std::int64_t best_rtt = INT64_MAX;
  std::int64_t best_offset = 0;
  core::SendOptions opts;
  opts.internal = true;  // time traffic must not be time-stamped (§6.1)
  opts.timeout = 2s;
  for (int i = 0; i < samples; ++i) {
    const std::int64_t t0 = local_now_ns();
    auto reply = node_.lcm().request(
        server, core::Payload::raw(ntcs::Bytes{}), opts);
    const std::int64_t t1 = local_now_ns();
    if (!reply) return reply.error();
    convert::Unpacker u(reply.value().payload);
    auto server_ns = u.get_i64();
    if (!server_ns) return server_ns.error();
    const std::int64_t rtt = t1 - t0;
    // Cristian's estimate: the server read its clock roughly mid-flight.
    const std::int64_t offset = server_ns.value() + rtt / 2 - t1;
    if (rtt < best_rtt) {
      best_rtt = rtt;
      best_offset = offset;
    }
  }
  offset_ns_.store(best_offset);
  synced_.store(true);
  syncs_.fetch_add(1);
  return ntcs::Status::success();
}

std::int64_t TimeClient::corrected_now_ns() {
  if (!synced_.load()) {
    // Lazy first correction; the `syncing_` latch stops a recursive send
    // from re-entering sync() from inside sync()'s own traffic.
    bool expected = false;
    if (syncing_.compare_exchange_strong(expected, true)) {
      (void)sync();
      syncing_.store(false);
    }
  }
  return local_now_ns() + offset_ns_.load();
}

core::TimeSource TimeClient::source() {
  return [this] { return corrected_now_ns(); };
}

}  // namespace ntcs::drts
