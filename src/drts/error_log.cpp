#include "drts/error_log.h"

#include "convert/packed.h"

namespace ntcs::drts {

ErrorLogServer::ErrorLogServer(core::NodeConfig cfg) {
  if (cfg.name.empty()) cfg.name = std::string(kErrorLogName);
  node_ = std::make_unique<core::Node>(std::move(cfg));
}

ErrorLogServer::~ErrorLogServer() { stop(); }

ntcs::Status ErrorLogServer::start() {
  if (node_->running()) return ntcs::Status::success();
  if (auto st = node_->start(); !st.ok()) return st;
  auto uadd = node_->commod().register_self({{"role", "error-log"}});
  if (!uadd) return uadd.error();
  node_->run([this](std::stop_token st) {
    node_->commod().serve(
        st, [this](const core::Incoming&) { return handle_query(); },
        [this](const core::Incoming& in) { handle_report(in); });
  });
  return ntcs::Status::success();
}

ntcs::Bytes ErrorLogServer::handle_query() {
  convert::Packer p;
  {
    ntcs::LockGuard lk(mu_);
    p.put_u64(total_);
  }
  return std::move(p).take();
}

void ErrorLogServer::handle_report(const core::Incoming& in) {
  convert::Unpacker u(in.payload);
  auto module = u.get_string();
  auto layer = u.get_string();
  auto code = u.get_u64();
  auto text = u.get_string();
  if (!module || !layer || !code || !text) return;
  ErrorKey key{std::move(module.value()), std::move(layer.value()),
               static_cast<ntcs::Errc>(code.value())};
  ntcs::LockGuard lk(mu_);
  ++table_[key];
  ++total_;
}

std::map<ErrorKey, std::uint64_t> ErrorLogServer::table() const {
  ntcs::LockGuard lk(mu_);
  return table_;
}

std::uint64_t ErrorLogServer::total() const {
  ntcs::LockGuard lk(mu_);
  return total_;
}

std::uint64_t ErrorLogServer::count_for(const std::string& module) const {
  ntcs::LockGuard lk(mu_);
  std::uint64_t n = 0;
  for (const auto& [key, count] : table_) {
    if (key.module == module) n += count;
  }
  return n;
}

ErrorLogClient::ErrorLogClient(core::Node& node) : node_(node) {}

core::ErrorHook ErrorLogClient::hook() {
  return [this](std::string_view layer, ntcs::Errc code,
                std::string_view text) { report(layer, code, text); };
}

void ErrorLogClient::report(std::string_view layer, ntcs::Errc code,
                            std::string_view text) {
  core::UAdd target = core::UAdd::from_raw(log_uadd_raw_.load());
  if (!target.valid()) {
    auto located = node_.nsp().lookup(std::string(kErrorLogName));
    if (!located) return;  // nowhere to report: swallow, never cascade
    target = located.value();
    log_uadd_raw_.store(target.raw());
  }
  convert::Packer p;
  p.put_string(node_.identity().name());
  p.put_string(std::string(layer));
  p.put_u64(static_cast<std::uint64_t>(code));
  p.put_string(std::string(text));
  core::SendOptions opts;
  opts.internal = true;
  if (node_.lcm()
          .dgram(target, core::Payload::raw(std::move(p).take()), opts)
          .ok()) {
    reported_.fetch_add(1);
  }
}

}  // namespace ntcs::drts
