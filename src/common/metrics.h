// metrics.h — the per-layer metrics registry: a process root plus one
// scope per module.
//
// The paper's project measured and projected system performance through the
// DRTS network monitor (§6.1, [Wang 85]), and §6.2 argues that a recursive
// system is only debuggable when one can observe *which layer* of *which
// module* did *what*, with *selectivity*. This registry is that observation
// surface in counter form: every Nucleus/ComMod layer owns a handful of
// named counters and latency histograms, addressable as "layer.name"
// (lcm.sends, nd.open_retries, ip.hops_forwarded, nsp.cache_hits,
// convert.mode.image, ali.recv_wait_ns, ...), snapshotted locally or —
// through the DRTS MonitorServer — over the NTCS itself. The simulated
// substrate reports through the same surface: its fault-injection engine
// counts simnet.dup, simnet.reordered and simnet.flaps, so a chaos run can
// correlate injected faults with each layer's recovery work
// (nd.frames_deduped, ip.extend_transient_retries, lcm.fault_backoffs).
//
// Scopes. Each Node owns a scope: a child MetricsRegistry of the process
// root, and the only home of every counter its layers (ND, IP, LCM, NSP,
// and a Name Server's) bump. A Gateway owns one for its gw.extend* counters
// and a simnet::Fabric one for its frame counters. A scope's counters are
// looked up once, when its owner is constructed, so they exist — at 0 —
// from construction on; tests read per-module numbers from the scope
// (node.metrics().snapshot()). The root's snapshot() reports, per name, its
// own value plus every live scope's, and a scope folds its counter values
// into the root's own when it is destroyed, so process-wide totals include
// modules already stopped and torn down. One lock, the root's
// metrics.registry, guards the root's maps and every scope's.
//
// Two call-site idioms, both paying one relaxed atomic add per event:
//
//  - counters of a scoped class: a Counter& member initialised from the
//    registry its owner was given (default member initialiser or
//    constructor init list), never a lookup inside a function body:
//
//      metrics::Counter& sends_ = metrics_.counter("lcm.sends");
//
//  - gauges, histograms, and counters bumped outside the scoped classes
//    (convert.*, trace.*, health.*, analysis.*, realnet.*,
//    simnet.inbox_shed): a cached static reference into the root, created
//    on first touch (so an untouched root metric never appears in a
//    snapshot). Depth/bound pairs and peaks do not sum across modules,
//    which is why gauges and histograms stay process-wide:
//
//      static metrics::Counter& c = metrics::counter("convert.mode.image");
//      c.inc();
//
// Names added by the scope fold for per-layer statistics that had no
// process-wide twin: lcm.tadds_promoted; nd.opens_accepted, nd.lvcs_closed,
// nd.tadds_promoted; ip.ivcs_accepted, ip.ivcs_closed, ip.messages_relayed;
// gw.extends_handled, gw.extends_failed; ns.registers, ns.lookups,
// ns.resolves, ns.forwards, ns.forward_hits, ns.liveness_probes,
// ns.bad_requests, ns.replications_sent, ns.replications_applied,
// ns.writes_rejected, ns.wrong_shard; simnet.frames_sent,
// simnet.frames_dropped, simnet.bytes_sent, simnet.connects_ok,
// simnet.connects_failed, simnet.channels_closed, simnet.frames_corrupted,
// simnet.flap_dropped.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotated.h"

namespace ntcs::metrics {

/// A monotonically increasing event counter. Relaxed ordering: counts are
/// observational, never used for synchronisation.
class Counter {
 public:
  void inc(std::uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  // sync: relaxed monotonic counter; snapshot readers accept skew. Kept
  // raw (not ntcs::Atomic): counters fire inside every layer and would
  // turn each inc() into an explored schedule point.
  std::atomic<std::uint64_t> v_{0};
};

/// A settable level: queue depth, window occupancy, channel count, table
/// size. Unlike a Counter it moves both ways; like a Counter it is relaxed
/// and purely observational. A gauge additionally tracks its high watermark
/// (relaxed CAS) so "did the depth ever reach the bound" stays answerable
/// after the burst has drained — the live value alone cannot witness a
/// transient that the sampler missed.
///
/// Convention (the health plane keys on it): a live structure publishes a
/// `<base>.depth` gauge next to a `<base>.bound` gauge holding its
/// configured capacity, so utilization is computable by any consumer —
/// the watchdog, ntcs_top, or an external Prometheus scraper.
class Gauge {
 public:
  void set(std::int64_t v) {
    v_.store(v, std::memory_order_relaxed);
    bump_peak(v);
  }
  void add(std::int64_t n = 1) {
    bump_peak(v_.fetch_add(n, std::memory_order_relaxed) + n);
  }
  void sub(std::int64_t n = 1) { v_.fetch_sub(n, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }
  std::int64_t peak() const { return peak_.load(std::memory_order_relaxed); }

 private:
  void bump_peak(std::int64_t v) {
    std::int64_t p = peak_.load(std::memory_order_relaxed);
    while (v > p &&
           !peak_.compare_exchange_weak(p, v, std::memory_order_relaxed)) {
    }
  }
  // sync: relaxed level + high-watermark CAS, observational only; raw
  // (not ntcs::Atomic) so the explorer never parks in a gauge update.
  std::atomic<std::int64_t> v_{0};
  std::atomic<std::int64_t> peak_{0};
};

/// Fixed-bucket latency histogram: bucket i counts samples whose value in
/// nanoseconds satisfies 2^(i-1) <= v < 2^i (bucket 0 counts v == 0).
/// Power-of-two buckets keep record() branch-free and allocation-free: the
/// bucket index is the bit width of the sample.
inline constexpr std::size_t kHistogramBuckets = 64;

class Histogram {
 public:
  void record(std::uint64_t ns) {
    const std::size_t b = std::min<std::size_t>(
        static_cast<std::size_t>(std::bit_width(ns)), kHistogramBuckets - 1);
    buckets_[b].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(ns, std::memory_order_relaxed);
    // Exact maximum (relaxed CAS): interpolated p99 hides a single 5 s
    // outlier completely; the max is the only honest witness of the tail.
    std::uint64_t m = max_.load(std::memory_order_relaxed);
    while (ns > m &&
           !max_.compare_exchange_weak(m, ns, std::memory_order_relaxed)) {
    }
  }
  void record(std::chrono::nanoseconds d) {
    record(d.count() < 0 ? 0 : static_cast<std::uint64_t>(d.count()));
  }

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_.at(i).load(std::memory_order_relaxed);
  }

  /// Estimated p-quantile (p in [0,1]) by linear interpolation inside the
  /// power-of-two bucket holding the target rank. 0 when empty.
  double percentile(double p) const;

 private:
  // sync: relaxed telemetry accumulators, same contract as Counter::v_.
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> max_{0};  // sync: relaxed CAS watermark, as above
};

/// Times a scope into a histogram (used for blocking waits: receive,
/// circuit open, request round trips).
class ScopedTimer {
 public:
  explicit ScopedTimer(Histogram& h)
      : h_(h), start_(std::chrono::steady_clock::now()) {}
  ~ScopedTimer() { h_.record(std::chrono::steady_clock::now() - start_); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  Histogram& h_;
  std::chrono::steady_clock::time_point start_;
};

enum class MetricKind : std::uint8_t { counter = 0, histogram = 1, gauge = 2 };

/// One metric's value as captured by snapshot(). For counters `count` is
/// the counter value and the rest is unused; for histograms `count` is the
/// sample count, `sum` the summed nanoseconds, `max` the largest sample,
/// and `buckets` the per-bucket sample counts (trailing zero buckets
/// trimmed); for gauges `gauge` is the live level and `gauge_peak` its
/// high watermark.
struct MetricValue {
  MetricKind kind = MetricKind::counter;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t max = 0;
  std::int64_t gauge = 0;
  std::int64_t gauge_peak = 0;
  std::vector<std::uint64_t> buckets;

  /// Histogram-only: same estimator as Histogram::percentile, computed
  /// from the captured buckets (works on snapshots and deltas alike).
  double percentile(double p) const;
};

/// A consistent point-in-time capture of every touched metric. "Consistent"
/// per metric (each load is atomic); the capture as a whole is not a global
/// barrier — exactly the semantics of the paper's monitor samples.
struct Snapshot {
  std::map<std::string, MetricValue, std::less<>> values;

  const MetricValue* find(std::string_view name) const;
  /// Counter value / histogram sample count, 0 when never touched.
  std::uint64_t value(std::string_view name) const;
  /// Gauge level, 0 when never touched (or not a gauge).
  std::int64_t gauge_value(std::string_view name) const;

  /// Per-name difference `this - since` (names missing from `since` keep
  /// their value; names only in `since` are dropped). Counter deltas
  /// subtract; histogram deltas subtract count, sum and buckets pairwise
  /// (max is kept from `this`: a maximum has no meaningful difference).
  /// Gauges are levels, not rates — they pass through unchanged.
  Snapshot delta(const Snapshot& since) const;

  /// Stable JSON rendering: {"counters": {...}, "gauges": {name: {"value":
  /// v, "peak": p}}, "histograms": {name: {"count": n, "sum_ns": s,
  /// "p50_ns": ..., "p90_ns": ..., "p99_ns": ..., "max_ns": m,
  /// "buckets": [[upper_bound_ns, count], ...]}}}.
  std::string to_json() const;

  /// Prometheus text exposition (version 0.0.4) of the full registry for
  /// external scrapers: counters as `ntcs_<name>_total`, gauges as two
  /// gauges (`ntcs_<name>` and `ntcs_<name>_peak`), histograms as
  /// cumulative `_bucket{le="..."}` series plus `_sum`/`_count`/`_max`.
  /// Metric-name characters outside [a-zA-Z0-9_] become '_'.
  std::string to_prometheus() const;
};

/// The registry: name -> metric, created on first touch. A root (the
/// process-wide instance(), or a standalone one in unit tests) holds every
/// kind of metric; a scope, constructed as a child of a root, holds
/// counters only.
class MetricsRegistry {
 public:
  MetricsRegistry();
  /// A scope of `root` (which must itself be a root): links itself into
  /// the root, which must outlive it.
  explicit MetricsRegistry(MetricsRegistry& root);
  /// A scope adds its counter values into the root's own counters and
  /// unlinks, so the root's totals keep what the scope counted.
  ~MetricsRegistry();
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  static MetricsRegistry& instance();

  /// Fetch-or-create. The returned reference is stable for the registry's
  /// lifetime, so call sites cache it (the intended idiom). histogram()
  /// and gauge() are for roots only.
  Counter& counter(std::string_view name);
  Histogram& histogram(std::string_view name);
  Gauge& gauge(std::string_view name);

  /// A root reports its own metrics with every live scope's counters added
  /// in, name by name; a scope reports its own counters.
  Snapshot snapshot() const;

 private:
  Counter& counter_locked(std::string_view name) REQUIRES(mu_);
  /// A scope's maps are guarded by its root's lock, which is the lock
  /// `mu_` names in both; this tells the analysis so.
  void assert_shares_lock() const ASSERT_CAPABILITY(mu_) {}

  // A root's lock; empty in a scope.
  std::optional<ntcs::Mutex> own_mu_;
  MetricsRegistry* const root_ = nullptr;  // null: this is a root
  // Leaf rank: instrumentation sites touch the registry from under any
  // layer lock (first-touch metric creation, scope construction), so
  // nothing may be acquired beneath it. The returned Counter/Histogram
  // references are lock-free.
  ntcs::Mutex& mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_
      GUARDED_BY(mu_);
  std::vector<const MetricsRegistry*> scopes_ GUARDED_BY(mu_);
};

/// Process-wide shorthands for root instrumentation sites.
inline Counter& counter(std::string_view name) {
  return MetricsRegistry::instance().counter(name);
}
inline Histogram& histogram(std::string_view name) {
  return MetricsRegistry::instance().histogram(name);
}
inline Gauge& gauge(std::string_view name) {
  return MetricsRegistry::instance().gauge(name);
}

}  // namespace ntcs::metrics
