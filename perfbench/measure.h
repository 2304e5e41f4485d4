// measure.h — the benchmark's own measuring instruments: clocks, exact
// latency samples, heap-allocation counts, in-memory spans, a closed-loop
// phase runner, and the result record printed as one JSON line.
//
// Nothing here reaches into the NTCS: the stack is observed only through
// its public entry points and MetricsRegistry::snapshot().
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/metrics.h"

namespace perfbench {

std::int64_t now_ns();          // steady clock
double process_cpu_us();        // CPU of all threads of this process
double thread_cpu_us();         // CPU of the calling thread
double peak_rss_mb();           // high-water resident set
int thread_count();             // live threads of this process

/// Exact samples; quantiles by linear interpolation between order
/// statistics (the estimator Python's statistics module calls "inclusive").
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void merge(const Samples& o) { v_.insert(v_.end(), o.v_.begin(), o.v_.end()); }
  std::size_t size() const { return v_.size(); }
  double quantile(double q) const;
  double median() const { return quantile(0.5); }

 private:
  std::vector<double> v_;
};

/// Per-operation latencies in bounded memory (so the benchmark's own
/// bookkeeping does not grow with the operation count and show up in
/// peak_rss_mb): log-linear buckets, 128 per power of two (< 0.8% wide),
/// with quantiles interpolated by rank inside the bucket.
class LatencyHistogram {
 public:
  LatencyHistogram() : counts_(kBuckets, 0) {}
  void add_us(double us);
  void merge(const LatencyHistogram& o);
  std::uint64_t size() const { return n_; }
  double quantile_us(double q) const;

 private:
  static constexpr std::uint64_t kSub = 128;
  static constexpr std::size_t kBuckets = 64 * kSub;
  std::vector<std::uint64_t> counts_;
  std::uint64_t n_ = 0;
};

/// Heap allocations counted by the replaced global operator new
/// (alloc_count.cpp). Counting is off until enabled.
struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
void set_alloc_counting(bool on);
AllocCounts alloc_counts();

/// One recorded interval. `parent` is 0 for a root; spans of one operation
/// share `op`.
struct Span {
  const char* name = "";
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t op = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// A single-writer, preallocated span store; spans past the capacity are
/// counted, not kept. Disabled logs record nothing and cost one branch.
class SpanLog {
 public:
  explicit SpanLog(bool enabled, std::size_t capacity = 1 << 17);
  bool enabled() const { return enabled_; }
  std::uint64_t next_id() { return ++last_id_ | (tag_ << 48); }
  void add(const char* name, std::uint64_t id, std::uint64_t parent,
           std::uint64_t op, std::int64_t start_ns, std::int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  bool enabled_;
  std::uint64_t tag_;
  std::uint64_t last_id_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Span> spans_;
};

/// Times one call into the stack as a span (when the log is enabled).
template <typename F>
auto traced(SpanLog& log, const char* name, std::uint64_t parent,
            std::uint64_t op, F&& f) {
  if (!log.enabled()) return f();
  const std::uint64_t id = log.next_id();
  const std::int64_t t0 = now_ns();
  auto r = f();
  log.add(name, id, parent, op, t0, now_ns());
  return r;
}

/// Per-name span aggregates: count, mean duration and mean self time (the
/// duration minus the part covered by the span's children).
struct SpanStat {
  std::uint64_t count = 0;
  double mean_us = 0;
  double self_us = 0;
};
std::map<std::string, SpanStat> span_stats(const std::vector<const SpanLog*>& logs);
/// Write every kept span as tab-separated lines; false on I/O failure.
bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs);

/// What one load thread sees while a phase runs.
struct LoadCtx {
  int index = 0;
  std::uint64_t seed = 0;
  const std::atomic<bool>* stop = nullptr;
  std::atomic<std::uint64_t>* completed = nullptr;  // shared, all threads
  const std::atomic<std::size_t>* window = nullptr;  // current window index
  SpanLog* spans = nullptr;
  std::vector<LatencyHistogram> latency;  // one per window
  Samples recovery_ms;  // first request after each relocation
  Samples locate_us;    // ComMod::locate calls
  std::uint64_t relocations = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // first few failures, for the record
  double cpu_us = 0;  // this thread's CPU over the phase

  bool stopping() const { return stop->load(std::memory_order_relaxed); }
  /// Count one finished operation (latency in µs; ok = correct reply).
  void done(double us, bool ok) {
    ++attempted;
    if (ok) {
      const std::size_t w =
          window == nullptr ? 0 : window->load(std::memory_order_relaxed);
      if (latency.empty()) latency.resize(1);
      latency[std::min(w, latency.size() - 1)].add_us(us);
    } else {
      ++failed;
    }
    completed->fetch_add(1, std::memory_order_relaxed);
  }
  /// Count one failed operation with its reason.
  void failure(double us, const std::string& why) {
    if (errors.size() < 5) errors.push_back(why);
    done(us, false);
  }
};

/// The outcome of one timed, closed-loop phase.
struct Phase {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<double> window_rps;         // completions per fixed window
  std::vector<LatencyHistogram> latency;  // per window, all threads

  /// Median over windows of each window's latency quantile: a burst of
  /// interference moves one window, not the reported figure.
  double latency_us(double q) const;
  std::uint64_t latency_samples() const;
  Samples recovery_ms;
  Samples locate_us;
  std::uint64_t relocations = 0;
  std::vector<std::string> errors;
  double process_cpu_us = 0;
  double client_cpu_us = 0;
  int threads = 0;
  AllocCounts allocs;
  ntcs::metrics::Snapshot delta;  // registry change over the phase
  ntcs::metrics::Snapshot after;  // registry at the end (gauge peaks)
  std::vector<SpanLog> spans;     // one per load thread

  double throughput_rps() const;  // median window rate
};

using LoadBody = std::function<void(LoadCtx&)>;

/// Run `threads` copies of `body` for `seconds`, sampling completions in
/// fixed windows. Each body loops until ctx.stopping().
Phase run_phase(int threads, double seconds, std::uint64_t seed, bool trace,
                const LoadBody& body);

/// Block until the LCM inbound queues and the substrate inboxes of every
/// node in the process are empty; false if they do not drain in time.
bool wait_drained(std::chrono::milliseconds limit);

/// The benchmark's result record.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> errors;

  void metric(const std::string& name, double value, const std::string& unit);
  void note(const std::string& key, const std::string& value);
  void fail(const std::string& why);
  std::string to_json() const;
};

/// Counter delta of `name` over a phase.
double counter_delta(const Phase& p, std::string_view name);
/// Gauge high watermark of `name` at the end of a phase.
double gauge_peak(const Phase& p, std::string_view name);

}  // namespace perfbench
