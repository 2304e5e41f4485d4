// time_service.h — the DRTS precision time corrector (paper §1.3, §6.1).
//
// "A distributed network monitor and precision time corrector have been
// developed ... on top of the NTCS. Since the NTCS itself utilizes both of
// these services, recursive operation in addition to that of the naming
// service is observed."
//
// Machines in the simulated fabric have skewed clocks (as the real Apollo/
// VAX/Sun testbed did). The TimeServer answers time requests with its
// machine's local clock; TimeClients run a Cristian-style exchange —
// several round trips, keeping the minimum-RTT sample — to estimate their
// offset from the server, and hand the LCM-Layer a corrected-time source
// for monitor timestamps. A time correction "may involve multiple messages"
// (§6.1), each of which recurses through the full NTCS stack.
#pragma once

#include <atomic>
#include <memory>

#include "core/node.h"

namespace ntcs::drts {

inline constexpr std::string_view kTimeServiceName = "time-service";

class TimeServer {
 public:
  explicit TimeServer(core::NodeConfig cfg);
  ~TimeServer();

  TimeServer(const TimeServer&) = delete;
  TimeServer& operator=(const TimeServer&) = delete;

  /// Start and register as "time-service" (attrs: role=time).
  ntcs::Status start();
  void stop() { node_->stop(); }

  core::Node& node() { return *node_; }
  std::uint64_t requests_served() const { return served_.load(); }

 private:
  std::unique_ptr<core::Node> node_;
  // sync: stat counter, relaxed — read by tests after join.
  std::atomic<std::uint64_t> served_{0};
};

class TimeClient {
 public:
  /// Bound to one module's Node; all exchanges flow through its ComMod.
  explicit TimeClient(core::Node& node);

  /// Run a correction: `samples` request/reply exchanges, keeping the
  /// estimate from the round trip with the smallest RTT.
  ntcs::Status sync(int samples = 5);

  /// Corrected time in nanoseconds. Performs a lazy first sync() — the
  /// §6.1 recursion: a time stamp for a monitored send may itself require
  /// locating and querying the time service over the NTCS.
  std::int64_t corrected_now_ns();

  /// The hook to install via LcmLayer::set_time_source.
  core::TimeSource source();

  /// Local-clock offset estimate (0 until synced).
  std::int64_t offset_ns() const { return offset_ns_.load(); }
  bool synced() const { return synced_.load(); }
  std::uint64_t syncs_performed() const { return syncs_.load(); }

 private:
  std::int64_t local_now_ns() const;

  core::Node& node_;
  // Published by the time-exchange round and read by now_ns() callers; a
  // torn generation is impossible (single word) and a stale offset is
  // exactly as good as the previous round's.
  // sync: single-word publish, relaxed on both sides.
  std::atomic<std::int64_t> offset_ns_{0};
  std::atomic<bool> synced_{false};        // sync: see block comment above
  std::atomic<bool> syncing_{false};       // sync: CAS admission gate
  std::atomic<std::uint64_t> syncs_{0};    // sync: relaxed stat
  std::atomic<std::uint64_t> server_uadd_raw_{0};  // sync: resolve cache
};

}  // namespace ntcs::drts
