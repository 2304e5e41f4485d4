#include "common/health.h"

#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <type_traits>

#include "common/trace.h"

namespace ntcs::health {

// ---- flight recorder ------------------------------------------------------

namespace {

// The fixed-width marshalled form of one journal event (the RawSpan of the
// flight recorder). Must stay a multiple of 8 bytes with no interior
// padding holes that memcpy would leave undefined (the char arrays absorb
// the tail after `kind`).
struct RawEvent {
  std::uint64_t seq;
  std::int64_t ts_ns;
  std::uint64_t trace_hi;
  std::uint64_t trace_lo;
  std::uint64_t a;
  std::uint64_t b;
  std::uint32_t kind;
  char layer[12];
  char what[16];
};

static_assert(sizeof(RawEvent) ==
                  Journal::kEventWords * sizeof(std::uint64_t),
              "no interior padding expected");
static_assert(std::is_trivially_copyable_v<RawEvent>);

void copy_bounded(char* dst, std::size_t cap, std::string_view s) {
  const std::size_t n = s.size() < cap ? s.size() : cap;
  std::memcpy(dst, s.data(), n);
  if (n < cap) std::memset(dst + n, 0, cap - n);
}

std::string read_bounded(const char* src, std::size_t cap) {
  std::size_t n = 0;
  while (n < cap && src[n] != '\0') ++n;
  return std::string(src, n);
}

std::string_view kind_name(EventKind k) {
  switch (k) {
    case EventKind::transition: return "transition";
    case EventKind::shed: return "shed";
    case EventKind::failover: return "failover";
    case EventKind::busy: return "busy";
    case EventKind::retry: return "retry";
    case EventKind::stall: return "stall";
    case EventKind::health: return "health";
  }
  return "?";
}

// The process journal, resolved once per call site file — the only
// Journal::instance() touch outside tests (mirrors trace.cpp's
// process_buffer()).
Journal& process_journal() {
  static Journal& j = Journal::instance();
  return j;
}

}  // namespace

Journal::Journal(std::size_t capacity)
    : ring_(capacity, ntcs::lockrank::kJournal, "health.journal") {}

Journal::~Journal() = default;

Journal& Journal::instance() {
  // Intentionally leaked, same pattern as the span ring's singleton:
  // detached module threads may journal during static destruction.
  static Journal* j = new Journal();
  return *j;
}

void Journal::record(EventKind kind, std::string_view layer,
                     std::string_view what, std::uint64_t a, std::uint64_t b,
                     std::uint64_t trace_hi, std::uint64_t trace_lo) {
  const bool overwrote = ring_.push([&](std::uint64_t ticket) {
    RawEvent raw;
    raw.seq = ticket + 1;  // nonzero so a decoded event is distinguishable
    raw.ts_ns = trace::now_ns();
    raw.trace_hi = trace_hi;
    raw.trace_lo = trace_lo;
    raw.a = a;
    raw.b = b;
    raw.kind = static_cast<std::uint32_t>(kind);
    copy_bounded(raw.layer, sizeof(raw.layer), layer);
    copy_bounded(raw.what, sizeof(raw.what), what);
    SeqlockRing<kEventWords>::Record rec;
    std::memcpy(rec.data(), &raw, sizeof(raw));
    return rec;
  });
  if (overwrote) {
    // Overwrote an event nobody drained: the ring wrapped.
    static metrics::Counter& dropped =
        metrics::counter("health.journal_dropped");
    dropped.inc();
  }
}

std::vector<JournalEvent> Journal::snapshot() const {
  return ring_.drain<JournalEvent>(
      [](const SeqlockRing<kEventWords>::Record& rec)
          -> std::optional<JournalEvent> {
        RawEvent raw;
        std::memcpy(&raw, rec.data(), sizeof(raw));
        if (raw.seq == 0) return std::nullopt;
        JournalEvent e;
        e.seq = raw.seq;
        e.ts_ns = raw.ts_ns;
        e.trace_hi = raw.trace_hi;
        e.trace_lo = raw.trace_lo;
        e.a = raw.a;
        e.b = raw.b;
        e.kind = static_cast<EventKind>(raw.kind);
        e.layer = read_bounded(raw.layer, sizeof(raw.layer));
        e.what = read_bounded(raw.what, sizeof(raw.what));
        return e;
      });
}

void Journal::clear() { ring_.clear(); }

void journal_note(EventKind kind, std::string_view layer,
                  std::string_view what, std::uint64_t a, std::uint64_t b) {
  const trace::TraceContext ctx = trace::current();
  process_journal().record(kind, layer, what, a, b, ctx.hi, ctx.lo);
}

std::vector<JournalEvent> journal_snapshot() {
  return process_journal().snapshot();
}

void journal_clear() { process_journal().clear(); }

std::uint64_t journal_dropped() { return process_journal().dropped(); }

void journal_dump(std::string_view reason) {
  const std::vector<JournalEvent> events = journal_snapshot();
  std::fprintf(stderr,
               "=== ntcs flight recorder (%.*s): %zu events, %llu lost to "
               "wrap ===\n",
               static_cast<int>(reason.size()), reason.data(), events.size(),
               static_cast<unsigned long long>(journal_dropped()));
  for (const JournalEvent& e : events) {
    std::fprintf(stderr,
                 "  #%llu %+12lldns %-10s %-12s %-16s a=%llu b=%llu"
                 " trace=%016llx%016llx\n",
                 static_cast<unsigned long long>(e.seq),
                 static_cast<long long>(e.ts_ns),
                 std::string(kind_name(e.kind)).c_str(), e.layer.c_str(),
                 e.what.c_str(), static_cast<unsigned long long>(e.a),
                 static_cast<unsigned long long>(e.b),
                 static_cast<unsigned long long>(e.trace_hi),
                 static_cast<unsigned long long>(e.trace_lo));
  }
  std::fprintf(stderr, "=== end flight recorder ===\n");
  std::fflush(stderr);
}

namespace {

// sync: one-shot install flag, relaxed CAS — install_fatal_dump must be
// idempotent from any thread; the handler itself runs single-threaded
// (std::terminate).
std::atomic<bool> g_fatal_installed{false};
std::terminate_handler g_prev_terminate = nullptr;

[[noreturn]] void fatal_dump_handler() {
  journal_dump("fatal");
  if (g_prev_terminate != nullptr) g_prev_terminate();
  std::abort();
}

}  // namespace

void install_fatal_dump() {
  bool expected = false;
  if (!g_fatal_installed.compare_exchange_strong(expected, true,
                                                 std::memory_order_relaxed)) {
    return;
  }
  g_prev_terminate = std::set_terminate(&fatal_dump_handler);
}

// ---- the watchdog ---------------------------------------------------------

std::string_view to_string(HealthState s) {
  switch (s) {
    case HealthState::ok: return "ok";
    case HealthState::degraded: return "degraded";
    case HealthState::stalled: return "stalled";
  }
  return "?";
}

const LayerHealth* HealthReport::find(std::string_view name) const {
  for (const LayerHealth& l : layers) {
    if (l.name == name) return &l;
  }
  return nullptr;
}

std::string HealthReport::to_string() const {
  std::string out = "overall=";
  out += health::to_string(overall);
  for (const LayerHealth& l : layers) {
    out += "\n  ";
    out += l.name;
    out += ": ";
    out += health::to_string(l.state);
    if (!l.evidence.empty()) {
      out += " (";
      out += l.evidence;
      out += ")";
    }
  }
  return out;
}

HealthRegistry& HealthRegistry::instance() {
  // Intentionally leaked, like the metrics registry: layer loops cache
  // Heartbeat& references and may beat during static destruction.
  static HealthRegistry* reg = new HealthRegistry();
  return *reg;
}

Heartbeat& HealthRegistry::heartbeat(std::string_view name,
                                     std::chrono::nanoseconds stall_after) {
  ntcs::LockGuard lk(mu_);
  auto it = heartbeats_.find(name);
  if (it == heartbeats_.end()) {
    it = heartbeats_.emplace(std::string(name), std::make_unique<Heartbeat>())
             .first;
  }
  Heartbeat& hb = *it->second;
  hb.active_.store(true, std::memory_order_relaxed);
  hb.stall_after_ns = stall_after.count();
  hb.seen_epoch = hb.epoch();
  hb.changed_ns = trace::now_ns();
  return hb;
}

Beacon& HealthRegistry::beacon(std::string_view name) {
  ntcs::LockGuard lk(mu_);
  auto it = beacons_.find(name);
  if (it == beacons_.end()) {
    it = beacons_.emplace(std::string(name), std::make_unique<Beacon>()).first;
  }
  return *it->second;
}

void HealthRegistry::watch_rate(std::string_view counter,
                                std::string_view label,
                                std::uint64_t threshold) {
  ntcs::LockGuard lk(mu_);
  RateWatch& w = rate_watches_[std::string(counter)];
  w.label = std::string(label);
  w.threshold = threshold;
  w.primed = false;
}

namespace {

std::string format_ms(std::int64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%lldms",
                static_cast<long long>(ns / 1'000'000));
  return buf;
}

}  // namespace

HealthReport HealthRegistry::classify(const metrics::Snapshot& snap,
                                      std::int64_t now_ns) {
  HealthReport rep;
  rep.ts_ns = now_ns;

  // Stalled dispatch loops: an active heartbeat whose epoch has not moved
  // for its stall_after window.
  for (auto& [name, hb] : heartbeats_) {
    if (!hb->active()) continue;
    LayerHealth l;
    l.name = name;
    const std::uint64_t e = hb->epoch();
    if (e != hb->seen_epoch) {
      hb->seen_epoch = e;
      hb->changed_ns = now_ns;
    } else if (now_ns - hb->changed_ns > hb->stall_after_ns) {
      l.state = HealthState::stalled;
      l.evidence = "no heartbeat for " + format_ms(now_ns - hb->changed_ns) +
                   " (epoch " + std::to_string(e) + ")";
    }
    rep.layers.push_back(std::move(l));
  }

  // Wedged windows: a beacon still publishing a deadline that is already
  // past (plus grace). Normal deadline handling sweeps the waiter at its
  // deadline and republishes; only a sweep that never runs leaves the
  // beacon in the past.
  const std::int64_t grace = cfg_.beacon_grace.count();
  for (auto& [name, bc] : beacons_) {
    const std::int64_t v = bc->value();
    if (v == 0) continue;
    LayerHealth l;
    l.name = name;
    if (now_ns > v + grace) {
      l.state = HealthState::stalled;
      l.evidence =
          "waiter wedged " + format_ms(now_ns - v) + " past deadline";
    }
    rep.layers.push_back(std::move(l));
  }

  // Queues near their bound: every `<base>.depth` gauge with a
  // `<base>.bound` sibling at or above the utilization threshold.
  for (const auto& [name, v] : snap.values) {
    if (v.kind != metrics::MetricKind::gauge) continue;
    constexpr std::string_view kDepth = ".depth";
    if (name.size() <= kDepth.size() ||
        name.compare(name.size() - kDepth.size(), kDepth.size(), kDepth) !=
            0) {
      continue;
    }
    const std::string base = name.substr(0, name.size() - kDepth.size());
    const std::int64_t bound = snap.gauge_value(base + ".bound");
    if (bound <= 0) continue;
    const std::int64_t depth = v.gauge;
    if (static_cast<double>(depth) <
        cfg_.queue_utilization * static_cast<double>(bound)) {
      continue;
    }
    LayerHealth l;
    l.name = base;
    l.state = HealthState::degraded;
    char buf[96];
    std::snprintf(buf, sizeof buf, "queue at %lld/%lld (%.0f%%)",
                  static_cast<long long>(depth),
                  static_cast<long long>(bound),
                  100.0 * static_cast<double>(depth) /
                      static_cast<double>(bound));
    l.evidence = buf;
    rep.layers.push_back(std::move(l));
  }

  // Storms: a watched counter moving faster than its threshold between
  // consecutive samples (busy-pause storms, failover/address-fault storms).
  for (auto& [counter, w] : rate_watches_) {
    const std::uint64_t now_v = snap.value(counter);
    const std::uint64_t last = w.last;
    const bool primed = w.primed;
    w.last = now_v;
    w.primed = true;
    if (!primed) continue;
    const std::uint64_t delta = now_v >= last ? now_v - last : 0;
    const std::uint64_t thr =
        w.threshold != 0 ? w.threshold : cfg_.storm_threshold;
    if (delta < thr) continue;
    LayerHealth l;
    l.name = w.label;
    l.state = HealthState::degraded;
    l.evidence = std::to_string(delta) + " x " + counter +
                 " in one period (threshold " + std::to_string(thr) + ")";
    rep.layers.push_back(std::move(l));
  }

  for (const LayerHealth& l : rep.layers) {
    if (l.state > rep.overall) rep.overall = l.state;
  }
  return rep;
}

HealthReport HealthRegistry::check_now() {
  // Snapshot BEFORE locking: the metrics registry's mutex (rank
  // kMetricsRegistry = 910) ranks below kHealth = 930, so taking it while
  // holding mu_ would invert the order.
  const metrics::Snapshot snap = metrics::MetricsRegistry::instance().snapshot();
  const std::int64_t now = trace::now_ns();
  HealthReport rep;
  {
    ntcs::LockGuard lk(mu_);
    rep = classify(snap, now);
    // Journal per-layer state transitions (including recoveries), so the
    // flight recorder tells the story of when each layer went bad and
    // came back.
    for (const LayerHealth& l : rep.layers) {
      auto it = last_states_.find(l.name);
      const HealthState prev =
          it == last_states_.end() ? HealthState::ok : it->second;
      if (l.state != prev) {
        std::string what = std::string(to_string(prev)) + "->" +
                           std::string(to_string(l.state));
        journal_note(EventKind::health, l.name, what,
                     static_cast<std::uint64_t>(l.state));
        last_states_[l.name] = l.state;
      }
    }
    latest_ = rep;
  }
  return rep;
}

HealthReport HealthRegistry::latest() const {
  ntcs::LockGuard lk(mu_);
  return latest_;
}

void HealthRegistry::start_watchdog(WatchdogConfig cfg) {
  install_fatal_dump();
  {
    ntcs::LockGuard lk(mu_);
    if (running_.load(std::memory_order_relaxed)) return;
    cfg_ = cfg;
    stopping_ = false;
    if (!defaults_registered_) {
      defaults_registered_ = true;
      // Default storm watches: busy-pause storms (LCM flow control gone
      // pathological) and address-fault storms (failover churn).
      rate_watches_["lcm.busy_received"] = RateWatch{"lcm.busy_storm", 0, 0,
                                                     false};
      rate_watches_["lcm.address_faults"] =
          RateWatch{"lcm.failover_storm", 0, 0, false};
    }
    running_.store(true, std::memory_order_relaxed);
  }
  journal_note(EventKind::transition, "watchdog", "start");
  watchdog_ = std::jthread([this](std::stop_token st) { watchdog_main(st); });
}

void HealthRegistry::stop_watchdog() {
  {
    ntcs::LockGuard lk(mu_);
    if (!running_.load(std::memory_order_relaxed)) return;
    stopping_ = true;
  }
  cv_.notify_all();
  if (watchdog_.joinable()) {
    watchdog_.request_stop();
    watchdog_.join();
  }
  running_.store(false, std::memory_order_relaxed);
  journal_note(EventKind::transition, "watchdog", "stop");
}

bool HealthRegistry::watchdog_running() const {
  return running_.load(std::memory_order_relaxed);
}

void HealthRegistry::watchdog_main(const std::stop_token& st) {
  while (!st.stop_requested()) {
    check_now();
    ntcs::UniqueLock lk(mu_);
    if (stopping_) return;
    cv_.wait_for(lk, cfg_.period, [&] { return stopping_; });
    if (stopping_) return;
  }
}

}  // namespace ntcs::health
