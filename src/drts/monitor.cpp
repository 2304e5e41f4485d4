#include "drts/monitor.h"

#include <cstdio>
#include <iterator>

#include "convert/packed.h"

namespace ntcs::drts {

using namespace std::chrono_literals;

namespace {

// Every harvest reply (metrics/traces/health/journal) leads with a u64
// truncated flag: 1 when the answering side clipped the harvest at its
// per-op cap, 0 when the reply is the whole story. Fleet mergers surface
// it so a clipped view is never silently presented as complete.

// Wire form of a metrics snapshot (packed mode, like every monitor
// message): u64 truncated, u64 entry count, then per entry: string name,
// u64 kind, u64 count, u64 sum, u64 max, i64 gauge, i64 gauge_peak,
// u64 bucket count, then that many u64 bucket values.
ntcs::Bytes encode_snapshot(const metrics::Snapshot& snap, bool truncated) {
  convert::Packer p;
  p.put_u64(truncated ? 1 : 0);
  p.put_u64(snap.values.size());
  for (const auto& [name, v] : snap.values) {
    p.put_string(name);
    p.put_u64(static_cast<std::uint64_t>(v.kind));
    p.put_u64(v.count);
    p.put_u64(v.sum);
    p.put_u64(v.max);
    p.put_i64(v.gauge);
    p.put_i64(v.gauge_peak);
    p.put_u64(v.buckets.size());
    for (std::uint64_t b : v.buckets) p.put_u64(b);
  }
  return std::move(p).take();
}

ntcs::Result<metrics::Snapshot> decode_snapshot(ntcs::BytesView bytes,
                                                bool* truncated) {
  convert::Unpacker u(bytes);
  auto trunc = u.get_u64();
  if (!trunc) return trunc.error();
  if (truncated != nullptr) *truncated = trunc.value() != 0;
  auto n = u.get_u64();
  if (!n) return n.error();
  metrics::Snapshot snap;
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    auto name = u.get_string();
    if (!name) return name.error();
    auto kind = u.get_u64();
    if (!kind) return kind.error();
    auto count = u.get_u64();
    if (!count) return count.error();
    auto sum = u.get_u64();
    if (!sum) return sum.error();
    auto max = u.get_u64();
    if (!max) return max.error();
    auto gauge = u.get_i64();
    if (!gauge) return gauge.error();
    auto peak = u.get_i64();
    if (!peak) return peak.error();
    auto nb = u.get_u64();
    if (!nb) return nb.error();
    if (nb.value() > metrics::kHistogramBuckets) {
      return ntcs::Error(ntcs::Errc::bad_message, "absurd bucket count");
    }
    metrics::MetricValue v;
    v.kind = static_cast<metrics::MetricKind>(kind.value());
    v.count = count.value();
    v.sum = sum.value();
    v.max = max.value();
    v.gauge = gauge.value();
    v.gauge_peak = peak.value();
    v.buckets.reserve(nb.value());
    for (std::uint64_t b = 0; b < nb.value(); ++b) {
      auto bv = u.get_u64();
      if (!bv) return bv.error();
      v.buckets.push_back(bv.value());
    }
    snap.values.emplace(std::move(name.value()), std::move(v));
  }
  return snap;
}

// Wire form of a span harvest (packed mode): u64 truncated, u64 span
// count, then per span: u64 trace_hi/trace_lo/span_id/parent_id, i64
// start/end, u64 flags, string layer/op/node.
ntcs::Bytes encode_spans(const std::vector<trace::Span>& spans,
                         bool truncated) {
  convert::Packer p;
  p.put_u64(truncated ? 1 : 0);
  p.put_u64(spans.size());
  for (const auto& s : spans) {
    p.put_u64(s.trace_hi);
    p.put_u64(s.trace_lo);
    p.put_u64(s.span_id);
    p.put_u64(s.parent_id);
    p.put_i64(s.start_ns);
    p.put_i64(s.end_ns);
    p.put_u64(s.flags);
    p.put_string(s.layer);
    p.put_string(s.op);
    p.put_string(s.node);
  }
  return std::move(p).take();
}

ntcs::Result<std::vector<trace::Span>> decode_spans(ntcs::BytesView bytes,
                                                    bool* truncated) {
  convert::Unpacker u(bytes);
  auto trunc = u.get_u64();
  if (!trunc) return trunc.error();
  if (truncated != nullptr) *truncated = trunc.value() != 0;
  auto n = u.get_u64();
  if (!n) return n.error();
  if (n.value() > kMaxTraceHarvest) {
    return ntcs::Error(ntcs::Errc::bad_message, "absurd span count");
  }
  std::vector<trace::Span> out;
  out.reserve(n.value());
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    trace::Span s;
    auto hi = u.get_u64();
    auto lo = u.get_u64();
    auto id = u.get_u64();
    auto parent = u.get_u64();
    auto start = u.get_i64();
    auto end = u.get_i64();
    auto flags = u.get_u64();
    auto layer = u.get_string();
    auto op = u.get_string();
    auto node = u.get_string();
    if (!hi || !lo || !id || !parent || !start || !end || !flags || !layer ||
        !op || !node) {
      return ntcs::Error(ntcs::Errc::bad_message, "truncated span harvest");
    }
    s.trace_hi = hi.value();
    s.trace_lo = lo.value();
    s.span_id = id.value();
    s.parent_id = parent.value();
    s.start_ns = start.value();
    s.end_ns = end.value();
    s.flags = static_cast<std::uint32_t>(flags.value());
    s.layer = std::move(layer.value());
    s.op = std::move(op.value());
    s.node = std::move(node.value());
    out.push_back(std::move(s));
  }
  return out;
}

// Wire form of a health report (packed mode): u64 truncated (always 0 —
// reports are tiny; the flag exists for harvest-reply symmetry), i64
// sample timestamp, u64 overall state, u64 layer count, then per layer:
// string name, u64 state, string evidence.
ntcs::Bytes encode_health(const health::HealthReport& r) {
  convert::Packer p;
  p.put_u64(0);
  p.put_i64(r.ts_ns);
  p.put_u64(static_cast<std::uint64_t>(r.overall));
  p.put_u64(r.layers.size());
  for (const auto& l : r.layers) {
    p.put_string(l.name);
    p.put_u64(static_cast<std::uint64_t>(l.state));
    p.put_string(l.evidence);
  }
  return std::move(p).take();
}

ntcs::Result<health::HealthReport> decode_health(ntcs::BytesView bytes,
                                                 bool* truncated) {
  convert::Unpacker u(bytes);
  auto trunc = u.get_u64();
  if (!trunc) return trunc.error();
  if (truncated != nullptr) *truncated = trunc.value() != 0;
  auto ts = u.get_i64();
  if (!ts) return ts.error();
  auto overall = u.get_u64();
  if (!overall) return overall.error();
  if (overall.value() > static_cast<std::uint64_t>(health::HealthState::stalled)) {
    return ntcs::Error(ntcs::Errc::bad_message, "absurd health state");
  }
  auto n = u.get_u64();
  if (!n) return n.error();
  health::HealthReport r;
  r.ts_ns = ts.value();
  r.overall = static_cast<health::HealthState>(overall.value());
  r.layers.reserve(n.value());
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    auto name = u.get_string();
    if (!name) return name.error();
    auto state = u.get_u64();
    if (!state) return state.error();
    if (state.value() >
        static_cast<std::uint64_t>(health::HealthState::stalled)) {
      return ntcs::Error(ntcs::Errc::bad_message, "absurd health state");
    }
    auto ev = u.get_string();
    if (!ev) return ev.error();
    health::LayerHealth l;
    l.name = std::move(name.value());
    l.state = static_cast<health::HealthState>(state.value());
    l.evidence = std::move(ev.value());
    r.layers.push_back(std::move(l));
  }
  return r;
}

// Wire form of a journal harvest (packed mode): u64 truncated, u64 event
// count, then per event: u64 seq, i64 ts, u64 trace_hi/trace_lo/a/b,
// u64 kind, string layer, string what.
ntcs::Bytes encode_journal(const std::vector<health::JournalEvent>& events,
                           bool truncated) {
  convert::Packer p;
  p.put_u64(truncated ? 1 : 0);
  p.put_u64(events.size());
  for (const auto& e : events) {
    p.put_u64(e.seq);
    p.put_i64(e.ts_ns);
    p.put_u64(e.trace_hi);
    p.put_u64(e.trace_lo);
    p.put_u64(e.a);
    p.put_u64(e.b);
    p.put_u64(static_cast<std::uint64_t>(e.kind));
    p.put_string(e.layer);
    p.put_string(e.what);
  }
  return std::move(p).take();
}

ntcs::Result<std::vector<health::JournalEvent>> decode_journal(
    ntcs::BytesView bytes, bool* truncated) {
  convert::Unpacker u(bytes);
  auto trunc = u.get_u64();
  if (!trunc) return trunc.error();
  if (truncated != nullptr) *truncated = trunc.value() != 0;
  auto n = u.get_u64();
  if (!n) return n.error();
  if (n.value() > kMaxJournalHarvest) {
    return ntcs::Error(ntcs::Errc::bad_message, "absurd event count");
  }
  std::vector<health::JournalEvent> out;
  out.reserve(n.value());
  for (std::uint64_t i = 0; i < n.value(); ++i) {
    health::JournalEvent e;
    auto seq = u.get_u64();
    auto ts = u.get_i64();
    auto hi = u.get_u64();
    auto lo = u.get_u64();
    auto a = u.get_u64();
    auto b = u.get_u64();
    auto kind = u.get_u64();
    auto layer = u.get_string();
    auto what = u.get_string();
    if (!seq || !ts || !hi || !lo || !a || !b || !kind || !layer || !what) {
      return ntcs::Error(ntcs::Errc::bad_message, "truncated journal harvest");
    }
    e.seq = seq.value();
    e.ts_ns = ts.value();
    e.trace_hi = hi.value();
    e.trace_lo = lo.value();
    e.a = a.value();
    e.b = b.value();
    e.kind = static_cast<health::EventKind>(kind.value());
    e.layer = std::move(layer.value());
    e.what = std::move(what.value());
    out.push_back(std::move(e));
  }
  return out;
}

}  // namespace

MonitorServer::MonitorServer(core::NodeConfig cfg, std::size_t ring_capacity)
    : ring_capacity_(ring_capacity) {
  if (cfg.name.empty()) cfg.name = std::string(kMonitorName);
  node_ = std::make_unique<core::Node>(std::move(cfg));
  // Health-plane pair for the sample ring. Set-from-size under mu_ (not
  // delta-based): with several monitors in one process the last writer
  // wins, which is the per-ring depth either way — never an aggregate
  // drifting past the per-ring bound.
  metrics::gauge("drts.monitor_ring.bound")
      .set(static_cast<std::int64_t>(ring_capacity_));
}

MonitorServer::~MonitorServer() { stop(); }

ntcs::Status MonitorServer::start() {
  if (node_->running()) return ntcs::Status::success();
  if (auto st = node_->start(); !st.ok()) return st;
  auto uadd = node_->commod().register_self({{"role", "monitor"}});
  if (!uadd) return uadd.error();
  node_->run([this](std::stop_token st) {
    node_->commod().serve(
        st, [this](const core::Incoming& in) { return handle_query(in); },
        [this](const core::Incoming& in) { record(in); });
  });
  return ntcs::Status::success();
}

ntcs::Bytes MonitorServer::handle_query(const core::Incoming& in) {
  // Statistics query. An empty payload is the original protocol
  // ("summary"); otherwise the payload selects the report.
  std::uint64_t op = kMonitorOpSummary;
  if (!in.payload.empty()) {
    convert::Unpacker u(in.payload);
    auto got = u.get_u64();
    if (got) op = got.value();
  }
  if (op == kMonitorOpMetrics) {
    // The per-layer registry, served over the NTCS itself. This query
    // path is internal traffic end to end, so answering it perturbs
    // none of the monitored-send metrics it reports (§6.1).
    auto snap = metrics::MetricsRegistry::instance().snapshot();
    bool clipped = false;
    while (snap.values.size() > kMaxMetricsHarvest) {
      // Alphabetically-last entries lose; a registry this large is
      // itself a bug the truncated flag is there to surface.
      snap.values.erase(std::prev(snap.values.end()));
      clipped = true;
    }
    return encode_snapshot(snap, clipped);
  }
  if (op == kMonitorOpTraces) {
    // Span-buffer harvest: the same recursive monitor path, serving
    // the process's trace ring. Query traffic is internal, so the
    // harvest itself never appears in the spans it returns.
    TraceQuery q;
    convert::Unpacker tu(in.payload);
    (void)tu.get_u64();  // op, already decoded above
    auto kind = tu.get_u64();
    auto hi = tu.get_u64();
    auto lo = tu.get_u64();
    auto since = tu.get_i64();
    if (kind && hi && lo && since) {
      q.kind = static_cast<TraceQuery::Kind>(kind.value());
      q.trace_hi = hi.value();
      q.trace_lo = lo.value();
      q.since_ns = since.value();
    }
    std::vector<trace::Span> spans;
    switch (q.kind) {
      case TraceQuery::Kind::by_trace:
        spans = trace::spans_for_trace(q.trace_hi, q.trace_lo);
        break;
      case TraceQuery::Kind::since:
        spans = trace::spans_since(q.since_ns);
        break;
      case TraceQuery::Kind::all:
      default:
        spans = trace::snapshot_spans();
        break;
    }
    bool clipped = false;
    if (spans.size() > kMaxTraceHarvest) {
      // Newest spans win (the ring already discarded the oldest).
      spans.erase(spans.begin(),
                  spans.begin() +
                      static_cast<std::ptrdiff_t>(spans.size() -
                                                  kMaxTraceHarvest));
      clipped = true;
    }
    return encode_spans(spans, clipped);
  }
  if (op == kMonitorOpHealth) {
    // The latest watchdog verdict — or, when no watchdog thread runs
    // in this process, a fresh sample so the answer is never stale.
    auto& reg = health::HealthRegistry::instance();
    return encode_health(reg.watchdog_running() ? reg.latest()
                                                  : reg.check_now());
  }
  if (op == kMonitorOpJournal) {
    // Flight-recorder drain. The payload may carry a per-query cap
    // after the op; it is clamped to kMaxJournalHarvest either way.
    std::uint64_t max = kMaxJournalHarvest;
    convert::Unpacker ju(in.payload);
    (void)ju.get_u64();  // op, already decoded above
    if (auto m = ju.get_u64(); m && m.value() > 0) max = m.value();
    if (max > kMaxJournalHarvest) max = kMaxJournalHarvest;
    auto events = health::journal_snapshot();
    bool clipped = false;
    if (events.size() > max) {
      // Newest events win (the ring already overwrote the oldest).
      events.erase(events.begin(),
                   events.begin() + static_cast<std::ptrdiff_t>(
                                        events.size() - max));
      clipped = true;
    }
    return encode_journal(events, clipped);
  }
  convert::Packer p;
  {
    ntcs::LockGuard lk(mu_);
    p.put_u64(count_);
    p.put_u64(total_bytes_);
  }
  return std::move(p).take();
}

void MonitorServer::record(const core::Incoming& in) {
  convert::Unpacker u(in.payload);
  MonitorRecord rec;
  auto src = u.get_u64();
  auto dst = u.get_u64();
  auto bytes = u.get_u64();
  auto ts = u.get_i64();
  auto req = u.get_bool();
  if (!src || !dst || !bytes || !ts || !req) return;  // malformed: drop
  rec.src = src.value();
  rec.dst = dst.value();
  rec.bytes = bytes.value();
  rec.timestamp_ns = ts.value();
  rec.request = req.value();
  ntcs::LockGuard lk(mu_);
  ring_.push_back(rec);
  while (ring_.size() > ring_capacity_) ring_.pop_front();
  static metrics::Gauge& g_depth = metrics::gauge("drts.monitor_ring.depth");
  g_depth.set(static_cast<std::int64_t>(ring_.size()));
  total_bytes_ += rec.bytes;
  ++count_;
  PairStats& ps = pairs_[{rec.src, rec.dst}];
  if (ps.count == 0) {
    ps.src = rec.src;
    ps.dst = rec.dst;
    ps.first_ts_ns = rec.timestamp_ns;
  }
  ++ps.count;
  ps.bytes += rec.bytes;
  ps.last_ts_ns = rec.timestamp_ns;
}

std::uint64_t MonitorServer::sample_count() const {
  ntcs::LockGuard lk(mu_);
  return count_;
}

std::uint64_t MonitorServer::total_bytes() const {
  ntcs::LockGuard lk(mu_);
  return total_bytes_;
}

std::vector<MonitorRecord> MonitorServer::samples() const {
  ntcs::LockGuard lk(mu_);
  return {ring_.begin(), ring_.end()};
}

std::vector<MonitorServer::PairStats> MonitorServer::pair_stats() const {
  ntcs::LockGuard lk(mu_);
  std::vector<PairStats> out;
  out.reserve(pairs_.size());
  for (const auto& [key, ps] : pairs_) out.push_back(ps);
  return out;
}

std::optional<MonitorServer::PairStats> MonitorServer::pair(
    std::uint64_t src, std::uint64_t dst) const {
  ntcs::LockGuard lk(mu_);
  auto it = pairs_.find({src, dst});
  if (it == pairs_.end()) return std::nullopt;
  return it->second;
}

std::string MonitorServer::report() const {
  ntcs::LockGuard lk(mu_);
  std::string out = "conversation            msgs      bytes   rate(msg/s)\n";
  char line[128];
  for (const auto& [key, ps] : pairs_) {
    std::snprintf(line, sizeof line, "U#%-6llu -> U#%-6llu %7llu %10llu %12.1f\n",
                  static_cast<unsigned long long>(ps.src),
                  static_cast<unsigned long long>(ps.dst),
                  static_cast<unsigned long long>(ps.count),
                  static_cast<unsigned long long>(ps.bytes),
                  ps.rate_per_sec());
    out += line;
  }
  return out;
}

MonitorClient::MonitorClient(core::Node& node) : node_(node) {}

void MonitorClient::emit(const core::MonitorSample& s) {
  core::UAdd monitor = core::UAdd::from_raw(monitor_uadd_raw_.load());
  if (!monitor.valid()) {
    // "If this is the first such communication, the monitor is first
    // located, and the connection established" (§6.1) — recursive naming
    // service traffic on this very send path.
    auto located = node_.nsp().lookup(std::string(kMonitorName));
    if (!located) {
      dropped_.fetch_add(1);
      return;
    }
    monitor = located.value();
    monitor_uadd_raw_.store(monitor.raw());
  }
  convert::Packer p;
  p.put_u64(s.src.raw());
  p.put_u64(s.dst.raw());
  p.put_u64(s.bytes);
  p.put_i64(s.timestamp_ns);
  p.put_bool(s.request);
  core::SendOptions opts;
  opts.internal = true;  // do not monitor the monitor
  auto st = node_.lcm().dgram(monitor, core::Payload::raw(std::move(p).take()),
                              opts);
  if (st.ok()) {
    emitted_.fetch_add(1);
  } else {
    dropped_.fetch_add(1);
  }
}

core::MonitorHook MonitorClient::hook() {
  return [this](const core::MonitorSample& s) { emit(s); };
}

ntcs::Result<MonitorSummary> query_monitor(core::Node& via,
                                           core::UAdd monitor) {
  core::SendOptions opts;
  opts.internal = true;
  opts.timeout = 2s;
  auto reply =
      via.lcm().request(monitor, core::Payload::raw(ntcs::Bytes{}), opts);
  if (!reply) return reply.error();
  convert::Unpacker u(reply.value().payload);
  auto count = u.get_u64();
  if (!count) return count.error();
  auto bytes = u.get_u64();
  if (!bytes) return bytes.error();
  return MonitorSummary{count.value(), bytes.value()};
}

ntcs::Result<metrics::Snapshot> query_metrics(core::Node& via,
                                              core::UAdd monitor,
                                              bool* truncated) {
  convert::Packer p;
  p.put_u64(kMonitorOpMetrics);
  core::SendOptions opts;
  opts.internal = true;
  opts.timeout = 2s;
  auto reply = via.lcm().request(monitor,
                                 core::Payload::raw(std::move(p).take()), opts);
  if (!reply) return reply.error();
  return decode_snapshot(reply.value().payload, truncated);
}

ntcs::Result<std::vector<trace::Span>> query_traces(core::Node& via,
                                                    core::UAdd monitor,
                                                    const TraceQuery& q,
                                                    bool* truncated) {
  convert::Packer p;
  p.put_u64(kMonitorOpTraces);
  p.put_u64(static_cast<std::uint64_t>(q.kind));
  p.put_u64(q.trace_hi);
  p.put_u64(q.trace_lo);
  p.put_i64(q.since_ns);
  core::SendOptions opts;
  opts.internal = true;
  opts.timeout = 2s;
  auto reply = via.lcm().request(monitor,
                                 core::Payload::raw(std::move(p).take()), opts);
  if (!reply) return reply.error();
  return decode_spans(reply.value().payload, truncated);
}

ntcs::Result<health::HealthReport> query_health(core::Node& via,
                                                core::UAdd monitor,
                                                bool* truncated) {
  convert::Packer p;
  p.put_u64(kMonitorOpHealth);
  core::SendOptions opts;
  opts.internal = true;
  opts.timeout = 2s;
  auto reply = via.lcm().request(monitor,
                                 core::Payload::raw(std::move(p).take()), opts);
  if (!reply) return reply.error();
  return decode_health(reply.value().payload, truncated);
}

ntcs::Result<std::vector<health::JournalEvent>> query_journal(
    core::Node& via, core::UAdd monitor, std::size_t max, bool* truncated) {
  convert::Packer p;
  p.put_u64(kMonitorOpJournal);
  p.put_u64(max);
  core::SendOptions opts;
  opts.internal = true;
  opts.timeout = 2s;
  auto reply = via.lcm().request(monitor,
                                 core::Payload::raw(std::move(p).take()), opts);
  if (!reply) return reply.error();
  return decode_journal(reply.value().payload, truncated);
}

}  // namespace ntcs::drts
