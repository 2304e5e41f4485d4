// error_log.h — the DRTS error-logging service (paper §1.1, §6.3).
//
// §6.3 observes that a communication system is "inundated with the
// handling of unlikely exceptional conditions" and that "a running table
// of errors could be maintained and monitored". This service is that
// table, distributed: modules report (layer, code, text) triples as
// internal datagrams; the server keeps per-(module, layer, code) counters
// and answers summary queries — making the relentless exception handlers
// observable instead of silent.
#pragma once

#include <map>
#include <memory>

#include "common/annotated.h"
#include "core/node.h"

namespace ntcs::drts {

inline constexpr std::string_view kErrorLogName = "error-log";

struct ErrorKey {
  std::string module;
  std::string layer;
  ntcs::Errc code = ntcs::Errc::ok;

  friend bool operator<(const ErrorKey& a, const ErrorKey& b) {
    if (a.module != b.module) return a.module < b.module;
    if (a.layer != b.layer) return a.layer < b.layer;
    return static_cast<int>(a.code) < static_cast<int>(b.code);
  }
};

class ErrorLogServer {
 public:
  explicit ErrorLogServer(core::NodeConfig cfg);
  ~ErrorLogServer();

  ErrorLogServer(const ErrorLogServer&) = delete;
  ErrorLogServer& operator=(const ErrorLogServer&) = delete;

  ntcs::Status start();
  void stop() { node_->stop(); }

  core::Node& node() { return *node_; }

  /// The running table of errors.
  std::map<ErrorKey, std::uint64_t> table() const;
  std::uint64_t total() const;
  std::uint64_t count_for(const std::string& module) const;

 private:
  ntcs::Bytes handle_query();
  void handle_report(const core::Incoming& in);

  std::unique_ptr<core::Node> node_;
  mutable ntcs::Mutex mu_{ntcs::lockrank::kDrtsServer, "drts.error_log"};
  std::map<ErrorKey, std::uint64_t> table_ GUARDED_BY(mu_);
  std::uint64_t total_ GUARDED_BY(mu_) = 0;
};

class ErrorLogClient {
 public:
  explicit ErrorLogClient(core::Node& node);

  /// Report one exception occurrence. Best effort (a failing error report
  /// must never cascade).
  void report(std::string_view layer, ntcs::Errc code, std::string_view text);

  /// The hook to install via LcmLayer::set_error_hook: every handled
  /// address fault and recursion trip lands in the running table.
  core::ErrorHook hook();

  std::uint64_t reported() const { return reported_.load(); }

 private:
  core::Node& node_;
  // sync: resolved-once cache + stat counter, relaxed; readers tolerate a
  // stale 0 (they re-resolve) and the count is monotonic telemetry.
  std::atomic<std::uint64_t> log_uadd_raw_{0};
  std::atomic<std::uint64_t> reported_{0};
};

}  // namespace ntcs::drts
