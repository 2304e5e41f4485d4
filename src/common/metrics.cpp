#include "common/metrics.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

namespace ntcs::metrics {

MetricsRegistry::MetricsRegistry()
    : own_mu_(std::in_place, ntcs::lockrank::kMetricsRegistry,
              "metrics.registry"),
      mu_(*own_mu_) {}

MetricsRegistry::MetricsRegistry(MetricsRegistry& root)
    : root_(&root), mu_(root.mu_) {
  assert(root.root_ == nullptr && "a scope's parent must be a root");
  ntcs::LockGuard lk(root.mu_);
  root.scopes_.push_back(this);
}

MetricsRegistry::~MetricsRegistry() {
  if (root_ == nullptr) return;
  ntcs::LockGuard lk(mu_);
  root_->assert_shares_lock();
  for (const auto& [name, c] : counters_) {
    root_->counter_locked(name).inc(c->value());
  }
  std::erase(root_->scopes_, this);
}

MetricsRegistry& MetricsRegistry::instance() {
  // Intentionally leaked: call sites cache Counter&/Histogram& references
  // in function-local statics, and detached module threads may still be
  // bumping them during static destruction. An immortal registry makes the
  // cached references valid for the whole process lifetime.
  static MetricsRegistry* reg = new MetricsRegistry();
  return *reg;
}

Counter& MetricsRegistry::counter_locked(std::string_view name) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return *it->second;
}

Counter& MetricsRegistry::counter(std::string_view name) {
  ntcs::LockGuard lk(mu_);
  return counter_locked(name);
}

Histogram& MetricsRegistry::histogram(std::string_view name) {
  assert(root_ == nullptr && "histograms live on the root");
  ntcs::LockGuard lk(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return *it->second;
}

Gauge& MetricsRegistry::gauge(std::string_view name) {
  assert(root_ == nullptr && "gauges live on the root");
  ntcs::LockGuard lk(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

Snapshot MetricsRegistry::snapshot() const {
  Snapshot s;
  ntcs::LockGuard lk(mu_);
  for (const auto& [name, c] : counters_) {
    MetricValue v;
    v.kind = MetricKind::counter;
    v.count = c->value();
    s.values.emplace(name, std::move(v));
  }
  for (const MetricsRegistry* scope : scopes_) {
    scope->assert_shares_lock();
    for (const auto& [name, c] : scope->counters_) {
      s.values[name].count += c->value();
    }
  }
  for (const auto& [name, g] : gauges_) {
    MetricValue v;
    v.kind = MetricKind::gauge;
    v.gauge = g->value();
    v.gauge_peak = g->peak();
    s.values.emplace(name, std::move(v));
  }
  for (const auto& [name, h] : histograms_) {
    MetricValue v;
    v.kind = MetricKind::histogram;
    v.count = h->count();
    v.sum = h->sum();
    v.max = h->max();
    std::size_t top = 0;
    for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
      if (h->bucket(i) != 0) top = i + 1;
    }
    v.buckets.reserve(top);
    for (std::size_t i = 0; i < top; ++i) v.buckets.push_back(h->bucket(i));
    s.values.emplace(name, std::move(v));
  }
  return s;
}

const MetricValue* Snapshot::find(std::string_view name) const {
  auto it = values.find(name);
  return it == values.end() ? nullptr : &it->second;
}

std::uint64_t Snapshot::value(std::string_view name) const {
  const MetricValue* v = find(name);
  return v == nullptr ? 0 : v->count;
}

std::int64_t Snapshot::gauge_value(std::string_view name) const {
  const MetricValue* v = find(name);
  return v == nullptr ? 0 : v->gauge;
}

Snapshot Snapshot::delta(const Snapshot& since) const {
  Snapshot out;
  for (const auto& [name, now] : values) {
    const MetricValue* old = since.find(name);
    MetricValue d = now;
    if (old != nullptr && old->kind == now.kind &&
        now.kind != MetricKind::gauge) {
      d.count -= std::min(old->count, now.count);
      d.sum -= std::min(old->sum, now.sum);
      for (std::size_t i = 0;
           i < d.buckets.size() && i < old->buckets.size(); ++i) {
        d.buckets[i] -= std::min(old->buckets[i], d.buckets[i]);
      }
    }
    out.values.emplace(name, std::move(d));
  }
  return out;
}

namespace {

/// Shared percentile estimator over power-of-two buckets: find the bucket
/// holding rank p*count, then interpolate linearly between its bounds
/// (bucket 0 is exactly zero; bucket i covers [2^(i-1), 2^i)). The
/// interpolation error is bounded by the bucket width — coarse at the
/// tail, but rank-exact at bucket granularity, which is what a
/// shift-counted histogram can honestly promise.
double percentile_from_buckets(const std::vector<std::uint64_t>& buckets,
                               double p) {
  std::uint64_t count = 0;
  for (std::uint64_t b : buckets) count += b;
  if (count == 0) return 0.0;
  p = std::clamp(p, 0.0, 1.0);
  const double target = p * static_cast<double>(count);
  double cum = 0.0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    const double c = static_cast<double>(buckets[i]);
    if (c == 0.0) continue;
    if (cum + c >= target) {
      if (i == 0) return 0.0;  // the all-zeros bucket
      const double lower = static_cast<double>(1ULL << (i - 1));
      const double upper =
          i >= 63 ? 2.0 * lower : static_cast<double>(1ULL << i);
      const double frac = target <= cum ? 0.0 : (target - cum) / c;
      return lower + frac * (upper - lower);
    }
    cum += c;
  }
  return 0.0;  // unreachable: cum reaches count
}

void append_json_string(std::string& out, std::string_view s) {
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}

}  // namespace

double Histogram::percentile(double p) const {
  std::vector<std::uint64_t> b(kHistogramBuckets);
  for (std::size_t i = 0; i < kHistogramBuckets; ++i) b[i] = bucket(i);
  return percentile_from_buckets(b, p);
}

double MetricValue::percentile(double p) const {
  return percentile_from_buckets(buckets, p);
}

std::string Snapshot::to_json() const {
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, v] : values) {
    if (v.kind != MetricKind::counter) continue;
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": " + std::to_string(v.count);
  }
  out += "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : values) {
    if (v.kind != MetricKind::gauge) continue;
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    out += ": {\"value\": " + std::to_string(v.gauge) +
           ", \"peak\": " + std::to_string(v.gauge_peak) + "}";
  }
  out += "\n  },\n  \"histograms\": {";
  first = true;
  for (const auto& [name, v] : values) {
    if (v.kind != MetricKind::histogram) continue;
    out += first ? "\n    " : ",\n    ";
    first = false;
    append_json_string(out, name);
    char pbuf[128];
    std::snprintf(pbuf, sizeof(pbuf),
                  ", \"p50_ns\": %.0f, \"p90_ns\": %.0f, \"p99_ns\": %.0f",
                  v.percentile(0.50), v.percentile(0.90), v.percentile(0.99));
    out += ": {\"count\": " + std::to_string(v.count) +
           ", \"sum_ns\": " + std::to_string(v.sum) + pbuf +
           ", \"max_ns\": " + std::to_string(v.max) + ", \"buckets\": [";
    bool bfirst = true;
    for (std::size_t i = 0; i < v.buckets.size(); ++i) {
      if (v.buckets[i] == 0) continue;
      if (!bfirst) out += ", ";
      bfirst = false;
      // Bucket i covers [2^(i-1), 2^i); report the exclusive upper bound.
      const std::uint64_t upper =
          i >= 63 ? ~0ULL : (1ULL << i);
      out += "[" + std::to_string(upper) + ", " +
             std::to_string(v.buckets[i]) + "]";
    }
    out += "]}";
  }
  out += "\n  }\n}";
  return out;
}

namespace {

/// "lcm.request_rtt_ns" -> "ntcs_lcm_request_rtt_ns". Prometheus metric
/// names admit [a-zA-Z0-9_:]; everything else collapses to '_'.
std::string prom_name(std::string_view name) {
  std::string out = "ntcs_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

}  // namespace

std::string Snapshot::to_prometheus() const {
  std::string out;
  char buf[160];
  for (const auto& [name, v] : values) {
    const std::string p = prom_name(name);
    switch (v.kind) {
      case MetricKind::counter:
        out += "# TYPE " + p + "_total counter\n";
        out += p + "_total " + std::to_string(v.count) + "\n";
        break;
      case MetricKind::gauge:
        out += "# TYPE " + p + " gauge\n";
        out += p + " " + std::to_string(v.gauge) + "\n";
        out += "# TYPE " + p + "_peak gauge\n";
        out += p + "_peak " + std::to_string(v.gauge_peak) + "\n";
        break;
      case MetricKind::histogram: {
        out += "# TYPE " + p + " histogram\n";
        std::uint64_t cum = 0;
        for (std::size_t i = 0; i < v.buckets.size(); ++i) {
          if (v.buckets[i] == 0) continue;
          cum += v.buckets[i];
          // Bucket i covers [2^(i-1), 2^i); the exclusive upper bound is
          // the Prometheus `le` (close enough at power-of-two widths).
          const std::uint64_t upper = i >= 63 ? ~0ULL : (1ULL << i);
          std::snprintf(buf, sizeof buf, "%s_bucket{le=\"%llu\"} %llu\n",
                        p.c_str(), static_cast<unsigned long long>(upper),
                        static_cast<unsigned long long>(cum));
          out += buf;
        }
        out += p + "_bucket{le=\"+Inf\"} " + std::to_string(v.count) + "\n";
        out += p + "_sum " + std::to_string(v.sum) + "\n";
        out += p + "_count " + std::to_string(v.count) + "\n";
        out += "# TYPE " + p + "_max gauge\n";
        out += p + "_max " + std::to_string(v.max) + "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace ntcs::metrics
