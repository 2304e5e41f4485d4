// monitor.h — the DRTS distributed network monitor (paper §1.3, §6.1).
//
// The LCM-Layer emits one sample after every successful monitored send
// ("Upon success, the LCM-layer sends data to the monitor by calling
// itself", §6.1). Samples travel as connectionless datagrams flagged
// internal — monitoring the monitor would be "the obvious infinite
// recursion". The MonitorServer aggregates samples and answers statistics
// queries; it is how the original project measured and projected system
// performance [Wang 85].
#pragma once

#include <atomic>
#include <deque>
#include <map>
#include <optional>
#include <memory>

#include "common/health.h"
#include "common/metrics.h"
#include "common/annotated.h"
#include "common/trace.h"
#include "core/node.h"

namespace ntcs::drts {

inline constexpr std::string_view kMonitorName = "monitor";

// Statistics-query ops. A request with an *empty* payload is the original
// protocol and still means "summary"; a non-empty payload carries a
// packed-mode u64 selecting what to report.
inline constexpr std::uint64_t kMonitorOpSummary = 1;
inline constexpr std::uint64_t kMonitorOpMetrics = 2;
inline constexpr std::uint64_t kMonitorOpTraces = 3;
inline constexpr std::uint64_t kMonitorOpHealth = 4;
inline constexpr std::uint64_t kMonitorOpJournal = 5;

/// One sample as stored by the server.
struct MonitorRecord {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint64_t bytes = 0;
  std::int64_t timestamp_ns = 0;
  bool request = false;
};

class MonitorServer {
 public:
  explicit MonitorServer(core::NodeConfig cfg,
                         std::size_t ring_capacity = 65536);
  ~MonitorServer();

  MonitorServer(const MonitorServer&) = delete;
  MonitorServer& operator=(const MonitorServer&) = delete;

  ntcs::Status start();
  void stop() { node_->stop(); }

  core::Node& node() { return *node_; }

  // Local introspection (tests / reports).
  std::uint64_t sample_count() const;
  std::uint64_t total_bytes() const;
  std::vector<MonitorRecord> samples() const;

  /// Per-conversation aggregation (the Wang-style "performance monitoring
  /// and projection" use of the monitor, paper ref [27]).
  struct PairStats {
    std::uint64_t src = 0;
    std::uint64_t dst = 0;
    std::uint64_t count = 0;
    std::uint64_t bytes = 0;
    std::int64_t first_ts_ns = 0;
    std::int64_t last_ts_ns = 0;

    /// Projected steady-state message rate from the observed window.
    double rate_per_sec() const {
      if (count < 2 || last_ts_ns <= first_ts_ns) return 0.0;
      return static_cast<double>(count - 1) * 1e9 /
             static_cast<double>(last_ts_ns - first_ts_ns);
    }
  };
  std::vector<PairStats> pair_stats() const;
  std::optional<PairStats> pair(std::uint64_t src, std::uint64_t dst) const;

  /// Human-readable traffic report (one line per conversation).
  std::string report() const;

 private:
  /// A statistics query's reply.
  ntcs::Bytes handle_query(const core::Incoming& in);
  /// A sample datagram.
  void record(const core::Incoming& in);

  std::unique_ptr<core::Node> node_;
  std::size_t ring_capacity_;
  mutable ntcs::Mutex mu_{ntcs::lockrank::kDrtsServer, "drts.monitor"};
  // bound: ring_capacity_ — record() trims the front past it.
  std::deque<MonitorRecord> ring_ GUARDED_BY(mu_);
  std::map<std::pair<std::uint64_t, std::uint64_t>, PairStats> pairs_
      GUARDED_BY(mu_);
  std::uint64_t total_bytes_ GUARDED_BY(mu_) = 0;
  std::uint64_t count_ GUARDED_BY(mu_) = 0;
};

/// The sending-side half: builds the LCM monitor hook.
class MonitorClient {
 public:
  explicit MonitorClient(core::Node& node);

  /// The hook to install via LcmLayer::set_monitor_hook. Each invocation
  /// locates the monitor on first use (recursively, over the NTCS) and
  /// fires one internal datagram per sample.
  core::MonitorHook hook();

  std::uint64_t emitted() const { return emitted_.load(); }
  std::uint64_t dropped() const { return dropped_.load(); }

 private:
  void emit(const core::MonitorSample& s);

  core::Node& node_;
  // sync: resolved-once cache + stat counters, relaxed; a stale read only
  // re-resolves or under/over-counts telemetry by one sample.
  std::atomic<std::uint64_t> monitor_uadd_raw_{0};
  std::atomic<std::uint64_t> emitted_{0};
  std::atomic<std::uint64_t> dropped_{0};  // sync: relaxed stat, as above
};

/// Query a (possibly remote) monitor for its aggregate statistics.
struct MonitorSummary {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
ntcs::Result<MonitorSummary> query_monitor(core::Node& via,
                                           core::UAdd monitor);

/// Harvest cap per query_metrics reply, counted in metric entries. A full
/// histogram entry is ~300 wire bytes, so the cap keeps the reply inside
/// the 1 MiB ALI message limit with room to spare.
inline constexpr std::size_t kMaxMetricsHarvest = 2048;

/// Query a (possibly remote) monitor for its process's per-layer metrics
/// snapshot (kMonitorOpMetrics). The reply is the remote
/// MetricsRegistry::instance().snapshot(), wire-encoded in packed mode —
/// the metrics registry queried over the NTCS itself, like every other
/// DRTS service. Every harvest reply leads with a truncated flag: when the
/// remote had more than the per-op harvest cap, `*truncated` (if given) is
/// set so fleet merges can report partial coverage instead of silently
/// presenting a clipped view as complete.
ntcs::Result<metrics::Snapshot> query_metrics(core::Node& via,
                                              core::UAdd monitor,
                                              bool* truncated = nullptr);

/// Filter for query_traces: everything in the answering process's span
/// buffer, one trace ID, or spans starting at/after a steady_clock
/// timestamp.
struct TraceQuery {
  enum class Kind : std::uint64_t { all = 0, by_trace = 1, since = 2 };
  Kind kind = Kind::all;
  std::uint64_t trace_hi = 0;  // by_trace
  std::uint64_t trace_lo = 0;  // by_trace
  std::int64_t since_ns = 0;   // since
};

/// Harvest cap per query_traces reply: newest spans win. Sized so a full
/// harvest (~90 wire bytes/span) stays inside the 1 MiB ALI message limit.
inline constexpr std::size_t kMaxTraceHarvest = 8192;

/// Drain a (possibly remote) monitor's span buffer over the NTCS
/// (kMonitorOpTraces) — the §6.1 recursive-harvest path, span-flavoured.
/// Merge multi-node harvests with trace::merge_harvests (trace_export.h).
/// `*truncated` (if given) reports whether the remote clipped the harvest
/// at kMaxTraceHarvest (newest spans win).
ntcs::Result<std::vector<trace::Span>> query_traces(core::Node& via,
                                                    core::UAdd monitor,
                                                    const TraceQuery& q = {},
                                                    bool* truncated = nullptr);

/// Query a (possibly remote) monitor for its process's latest watchdog
/// verdict (kMonitorOpHealth). If no watchdog thread runs in the remote
/// process, the monitor takes a fresh HealthRegistry::check_now() sample so
/// the answer is never stale. Health replies are tiny and never clipped;
/// the truncated flag exists for wire symmetry with the other harvest ops.
ntcs::Result<health::HealthReport> query_health(core::Node& via,
                                                core::UAdd monitor,
                                                bool* truncated = nullptr);

/// Harvest cap per query_journal reply: newest events win. A journal event
/// is ~70 wire bytes, so a full harvest stays well inside the 1 MiB ALI
/// message limit.
inline constexpr std::size_t kMaxJournalHarvest = 8192;

/// Drain a (possibly remote) monitor's flight-recorder journal over the
/// NTCS (kMonitorOpJournal). Events arrive oldest-first with trace-ID
/// correlation intact; `*truncated` (if given) reports whether the remote
/// clipped the harvest at `max` (newest events win).
ntcs::Result<std::vector<health::JournalEvent>> query_journal(
    core::Node& via, core::UAdd monitor,
    std::size_t max = kMaxJournalHarvest, bool* truncated = nullptr);

}  // namespace ntcs::drts
