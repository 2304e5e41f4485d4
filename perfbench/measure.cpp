#include "measure.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <unordered_map>

namespace perfbench {

namespace {

double clock_us(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) * 1e6 +
         static_cast<double>(ts.tv_nsec) / 1e3;
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// sync: relaxed; only distinguishes the span ids of different logs.
std::atomic<std::uint64_t> g_log_tags{0};

}  // namespace

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double process_cpu_us() { return clock_us(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_us() { return clock_us(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int thread_count() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return 0;
}

double Samples::quantile(double q) const {
  if (v_.empty()) return 0;
  std::vector<double> s = v_;
  std::sort(s.begin(), s.end());
  const double pos = q * static_cast<double>(s.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, s.size() - 1);
  return s[lo] + (s[hi] - s[lo]) * (pos - static_cast<double>(lo));
}

void LatencyHistogram::add_us(double us) {
  const auto ns = static_cast<std::uint64_t>(std::max(0.0, us * 1e3));
  std::size_t i = ns;
  if (ns >= kSub) {
    const int e = std::bit_width(ns) - 8;  // keep the top 8 bits
    i = static_cast<std::size_t>(e + 1) * kSub + ((ns >> e) & (kSub - 1));
  }
  ++counts_[std::min(i, kBuckets - 1)];
  ++n_;
}

void LatencyHistogram::merge(const LatencyHistogram& o) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += o.counts_[i];
  n_ += o.n_;
}

double LatencyHistogram::quantile_us(double q) const {
  if (n_ == 0) return 0;
  const double rank = q * static_cast<double>(n_ - 1);
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    if (static_cast<double>(before + counts_[i]) > rank) {
      double lo = static_cast<double>(i);
      double width = 1;
      if (i >= kSub) {
        const std::size_t e = i / kSub - 1;
        lo = std::ldexp(static_cast<double>(kSub + i % kSub), static_cast<int>(e));
        width = std::ldexp(1.0, static_cast<int>(e));
      }
      const double frac = (rank - static_cast<double>(before) + 0.5) /
                          static_cast<double>(counts_[i]);
      return (lo + frac * width) / 1e3;
    }
    before += counts_[i];
  }
  return 0;
}

SpanLog::SpanLog(bool enabled, std::size_t capacity)
    : enabled_(enabled),
      tag_(g_log_tags.fetch_add(1, std::memory_order_relaxed) + 1) {
  if (enabled_) spans_.reserve(capacity);
}

void SpanLog::add(const char* name, std::uint64_t id, std::uint64_t parent,
                  std::uint64_t op, std::int64_t start_ns,
                  std::int64_t end_ns) {
  if (!enabled_) return;
  if (spans_.size() == spans_.capacity()) {
    ++dropped_;
    return;
  }
  spans_.push_back(Span{name, id, parent, op, start_ns, end_ns});
}

std::map<std::string, SpanStat> span_stats(
    const std::vector<const SpanLog*>& logs) {
  std::unordered_map<std::uint64_t, std::int64_t> child_ns;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  struct Acc {
    std::uint64_t n = 0;
    double dur = 0;
    double self = 0;
  };
  std::map<std::string, Acc> acc;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      const auto dur = static_cast<double>(s.end_ns - s.start_ns);
      const auto it = child_ns.find(s.id);
      const double kids =
          it == child_ns.end() ? 0.0 : static_cast<double>(it->second);
      Acc& a = acc[s.name];
      ++a.n;
      a.dur += dur;
      a.self += dur - kids;
    }
  }
  std::map<std::string, SpanStat> out;
  for (const auto& [name, a] : acc) {
    const auto n = static_cast<double>(a.n);
    out[name] = SpanStat{a.n, a.dur / n / 1e3, a.self / n / 1e3};
  }
  return out;
}

bool write_spans(const std::string& path,
                 const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tid\tparent\top\tstart_ns\tend_ns\n");
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      std::fprintf(f, "%s\t%llu\t%llu\t%llu\t%lld\t%lld\n", s.name,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
  }
  return std::fclose(f) == 0;
}

double Phase::latency_us(double q) const {
  Samples s;
  for (const LatencyHistogram& h : latency) {
    if (h.size() > 0) s.add(h.quantile_us(q));
  }
  return s.median();
}

std::uint64_t Phase::latency_samples() const {
  std::uint64_t n = 0;
  for (const LatencyHistogram& h : latency) n += h.size();
  return n;
}

double Phase::throughput_rps() const {
  Samples s;
  for (double r : window_rps) s.add(r);
  return s.median();
}

Phase run_phase(int threads, double seconds, std::uint64_t seed, bool trace,
                const LoadBody& body) {
  constexpr double kWindowS = 0.5;
  const auto windows = static_cast<std::size_t>(std::max(1.0, seconds / kWindowS));
  Phase p;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::size_t> window{0};
  std::vector<LoadCtx> ctx(static_cast<std::size_t>(threads));
  p.spans.reserve(ctx.size());
  for (int i = 0; i < threads; ++i) p.spans.emplace_back(trace);
  for (int i = 0; i < threads; ++i) {
    LoadCtx& c = ctx[static_cast<std::size_t>(i)];
    c.index = i;
    c.seed = seed * 1000003ULL + static_cast<std::uint64_t>(i);
    c.stop = &stop;
    c.completed = &completed;
    c.window = &window;
    c.latency.resize(windows);
    c.spans = &p.spans[static_cast<std::size_t>(i)];
  }

  const auto before = ntcs::metrics::MetricsRegistry::instance().snapshot();
  const AllocCounts a0 = alloc_counts();
  const double cpu0 = process_cpu_us();
  const std::int64_t t0 = now_ns();
  {
    std::vector<std::jthread> workers;
    for (LoadCtx& c : ctx) {
      workers.emplace_back([&body, &c] {
        const double c0 = thread_cpu_us();
        body(c);
        c.cpu_us = thread_cpu_us() - c0;
      });
    }
    std::uint64_t last = 0;
    std::int64_t last_t = t0;
    for (std::size_t w = 0; w < windows; ++w) {
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(std::chrono::nanoseconds(
              t0 + static_cast<std::int64_t>((w + 1) * kWindowS * 1e9))));
      const std::uint64_t c = completed.load(std::memory_order_relaxed);
      const std::int64_t t = now_ns();
      p.window_rps.push_back(static_cast<double>(c - last) /
                             (static_cast<double>(t - last_t) / 1e9));
      last = c;
      last_t = t;
      window.store(w + 1, std::memory_order_relaxed);
      if (w == windows / 2) p.threads = thread_count();
    }
    stop.store(true, std::memory_order_relaxed);
  }  // joins the load threads
  p.process_cpu_us = process_cpu_us() - cpu0;
  const AllocCounts a1 = alloc_counts();
  p.allocs = AllocCounts{a1.count - a0.count, a1.bytes - a0.bytes};
  p.after = ntcs::metrics::MetricsRegistry::instance().snapshot();
  p.delta = p.after.delta(before);
  for (LoadCtx& c : ctx) {
    p.attempted += c.attempted;
    p.failed += c.failed;
    p.client_cpu_us += c.cpu_us;
    p.latency.resize(windows);
    for (std::size_t w = 0; w < windows; ++w) p.latency[w].merge(c.latency[w]);
    p.recovery_ms.merge(c.recovery_ms);
    p.locate_us.merge(c.locate_us);
    p.relocations += c.relocations;
    p.errors.insert(p.errors.end(), c.errors.begin(), c.errors.end());
  }
  return p;
}

bool wait_drained(std::chrono::milliseconds limit) {
  const auto deadline = std::chrono::steady_clock::now() + limit;
  for (;;) {
    const auto snap = ntcs::metrics::MetricsRegistry::instance().snapshot();
    if (snap.gauge_value("lcm.app_queue.depth") == 0 &&
        snap.gauge_value("simnet.inbox.depth") == 0 &&
        snap.gauge_value("realnet.inbox.depth") == 0) {
      return true;
    }
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
}

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics.emplace_back(name, std::make_pair(value, unit));
}

void Result::note(const std::string& key, const std::string& value) {
  info.emplace_back(key, value);
}

void Result::fail(const std::string& why) {
  correct = false;
  if (errors.size() < 20) errors.push_back(why);
}

std::string Result::to_json() const {
  std::ostringstream o;
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics) {
    o << (first ? "" : ", ") << '"' << json_escape(name) << "\": {\"value\": "
      << json_number(vu.first) << ", \"unit\": \"" << json_escape(vu.second)
      << "\"}";
    first = false;
  }
  o << "}, \"info\": {";
  first = true;
  for (const auto& [k, v] : info) {
    o << (first ? "" : ", ") << '"' << json_escape(k) << "\": \""
      << json_escape(v) << '"';
    first = false;
  }
  o << "}, \"errors\": [";
  first = true;
  for (const auto& e : errors) {
    o << (first ? "" : ", ") << '"' << json_escape(e) << '"';
    first = false;
  }
  o << "]}";
  return o.str();
}

double counter_delta(const Phase& p, std::string_view name) {
  return static_cast<double>(p.delta.value(name));
}

double gauge_peak(const Phase& p, std::string_view name) {
  const auto* v = p.after.find(name);
  return v == nullptr ? 0.0 : static_cast<double>(v->gauge_peak);
}

}  // namespace perfbench
