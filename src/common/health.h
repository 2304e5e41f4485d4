// health.h — the live health plane: heartbeats, watchdog, flight recorder.
//
// The metrics registry (counters/histograms/gauges) and the span ring both
// answer "what happened"; nothing in the system answered "what is stuck
// RIGHT NOW". This header adds the live-state half of the paper's §6.1
// observability argument, in three pieces:
//
//  1. **Heartbeats + beacons** — the layers' side. A dispatch loop (node
//     pump, gateway worker, monitor server) registers a named Heartbeat
//     and bumps its relaxed epoch counter once per loop iteration; a
//     blocking structure (the LCM send window) publishes a Beacon holding
//     the deadline of its oldest parked waiter. Both are raw relaxed
//     atomics (one uncontended add/store per event, `// sync:` below) so
//     the hot paths carry no lock and the schedule explorer never parks
//     in them.
//
//  2. **The watchdog** — the sampling side. check_now() classifies every
//     layer as ok/degraded/stalled with evidence:
//       - a Heartbeat whose epoch has not moved for its stall_after
//         window => the dispatch loop is *stalled*;
//       - a Beacon whose published deadline lies in the past (plus grace)
//         => a send window is *wedged* past its waiters' deadlines;
//       - any `<base>.depth` gauge at >= 90% of its `<base>.bound`
//         sibling => that queue is *degraded* (near the shed cliff);
//       - a watched counter (busy frames, address faults) moving faster
//         than its storm threshold between samples => *degraded*.
//     start_watchdog() runs check_now() on a period in a background
//     thread, journals every per-layer state transition, and keeps the
//     latest HealthReport for harvest (drts::query_health serves it over
//     the NTCS itself).
//
//  3. **The flight recorder** — a lock-free overwrite-oldest event
//     journal (the span-ring pattern from trace.cpp: fetch_add ticket +
//     per-slot seqlock) recording state transitions, sheds, failovers,
//     busy pauses and retries with trace-ID correlation. Dumped to
//     stderr on std::terminate (install_fatal_dump) and on demand
//     (drts::query_journal / journal_dump).
//
// Lock ranks: kHealth (registry/report, leaf — a sample takes its metrics
// snapshot BEFORE locking) and kJournal (drain-only, exact kTraceBuffer
// analogue). See DESIGN.md "Observability plane".
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/annotated.h"
#include "common/metrics.h"
#include "common/seqlock_ring.h"

namespace ntcs::health {

// ---- flight recorder ------------------------------------------------------

enum class EventKind : std::uint32_t {
  transition = 0,  // lifecycle/state transition (start, stop, promote)
  shed = 1,        // a bounded queue dropped work at its bound
  failover = 2,    // naming/candidate rotation, standby promotion
  busy = 3,        // busy frame sent/received, admission paused
  retry = 4,       // fault retry / request reissue
  stall = 5,       // watchdog-detected stall or wedge
  health = 6,      // watchdog per-layer state transition
};

/// One decoded journal entry. `a`/`b` are event-specific numerics (queue
/// depth and bound for a shed, retries left for a retry, ...); trace_hi/lo
/// correlate with the distributed trace active at record time (0 when
/// untraced).
struct JournalEvent {
  std::uint64_t seq = 0;  // global write ticket: total order, gap = overwrite
  std::int64_t ts_ns = 0;
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  EventKind kind = EventKind::transition;
  std::string layer;  // truncated to 12 chars on record
  std::string what;   // truncated to 16 chars on record
};

/// The process flight recorder: fixed-capacity, overwrite-oldest,
/// lock-free writers (a SeqlockRing, like trace.h's SpanBuffer; readers
/// detect torn slots and skip them). Instantiable for tests; production
/// code records through journal_note().
class Journal {
 public:
  explicit Journal(std::size_t capacity = 8192);
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  static Journal& instance();

  void record(EventKind kind, std::string_view layer, std::string_view what,
              std::uint64_t a, std::uint64_t b, std::uint64_t trace_hi,
              std::uint64_t trace_lo);

  /// Ticket-ordered copy of every live slot (oldest surviving first).
  std::vector<JournalEvent> snapshot() const;
  void clear();
  std::uint64_t dropped() const { return ring_.dropped(); }
  std::size_t capacity() const { return ring_.capacity(); }

  /// One event marshalled into ring words (health.cpp's RawEvent).
  static constexpr std::size_t kEventWords = 10;

 private:
  // Drains take health.journal (kJournal).
  SeqlockRing<kEventWords> ring_;
};

/// Record into the process journal, correlating with the calling thread's
/// current trace context (if any). One relaxed ticket + 10 relaxed word
/// stores; safe under any lock and on any hot path.
void journal_note(EventKind kind, std::string_view layer,
                  std::string_view what, std::uint64_t a = 0,
                  std::uint64_t b = 0);

std::vector<JournalEvent> journal_snapshot();
void journal_clear();
std::uint64_t journal_dropped();

/// Human-readable dump of the process journal to stderr ("on demand").
void journal_dump(std::string_view reason);

/// Install a std::terminate handler that dumps the journal to stderr
/// before chaining to the previous handler — the flight recorder's "on
/// fatal error" contract. Idempotent.
void install_fatal_dump();

// ---- heartbeats and beacons -----------------------------------------------

/// A dispatch loop's liveness signal. beat() every loop iteration; the
/// watchdog declares the loop stalled when the epoch stops moving for the
/// heartbeat's stall_after window. retire() when the loop exits cleanly
/// (a retired heartbeat is skipped, not reported stalled).
class Heartbeat {
 public:
  void beat() { epoch_.fetch_add(1, std::memory_order_relaxed); }
  std::uint64_t epoch() const {
    return epoch_.load(std::memory_order_relaxed);
  }
  void retire() { active_.store(false, std::memory_order_relaxed); }
  bool active() const { return active_.load(std::memory_order_relaxed); }

 private:
  friend class HealthRegistry;
  // sync: relaxed liveness epoch + active flag; the watchdog tolerates
  // stale reads (a missed beat delays detection by one sample period).
  std::atomic<std::uint64_t> epoch_{0};
  std::atomic<bool> active_{true};
  // Watchdog-owned sampling history, guarded by HealthRegistry::mu_.
  std::uint64_t seen_epoch = 0;
  std::int64_t changed_ns = 0;
  std::int64_t stall_after_ns = 0;
};

/// A wedge beacon: a structure that parks waiters with deadlines
/// publishes the deadline of its oldest parked waiter (steady-clock ns;
/// 0 = nothing parked). A published deadline that stays in the past means
/// waiters are wedged behind slots nobody releases — the watchdog reports
/// the layer stalled.
class Beacon {
 public:
  void set(std::int64_t deadline_ns) {
    v_.store(deadline_ns, std::memory_order_relaxed);
  }
  void clear() { v_.store(0, std::memory_order_relaxed); }
  std::int64_t value() const { return v_.load(std::memory_order_relaxed); }

 private:
  // sync: relaxed telemetry level, same contract as Heartbeat::epoch_.
  std::atomic<std::int64_t> v_{0};
};

// ---- the watchdog ---------------------------------------------------------

enum class HealthState : std::uint8_t { ok = 0, degraded = 1, stalled = 2 };

std::string_view to_string(HealthState s);

struct LayerHealth {
  std::string name;
  HealthState state = HealthState::ok;
  std::string evidence;  // empty when ok
};

/// One watchdog sample: every registered heartbeat/beacon plus every
/// depth/bound gauge pair and storm watch, worst state wins overall.
struct HealthReport {
  HealthState overall = HealthState::ok;
  std::int64_t ts_ns = 0;
  std::vector<LayerHealth> layers;

  const LayerHealth* find(std::string_view name) const;
  std::string to_string() const;
};

struct WatchdogConfig {
  std::chrono::nanoseconds period{std::chrono::milliseconds(250)};
  /// Grace added to a beacon's published deadline before calling it
  /// wedged (normal deadline handling sweeps waiters *at* the deadline;
  /// only a sweep that never runs leaves the beacon in the past).
  std::chrono::nanoseconds beacon_grace{std::chrono::milliseconds(100)};
  /// `<base>.depth` / `<base>.bound` utilization at/above this is
  /// degraded.
  double queue_utilization = 0.90;
  /// Watched-counter delta per sample at/above this is a storm.
  std::uint64_t storm_threshold = 256;
};

/// Process-wide health registry + watchdog. Layers register heartbeats
/// and beacons at start and beat/publish from their loops; the watchdog
/// (background thread or an explicit check_now()) classifies and reports.
class HealthRegistry {
 public:
  HealthRegistry() = default;
  HealthRegistry(const HealthRegistry&) = delete;
  HealthRegistry& operator=(const HealthRegistry&) = delete;

  static HealthRegistry& instance();

  /// Fetch-or-create (re-activating a retired heartbeat of the same
  /// name). The reference is stable for the registry's lifetime — cache
  /// it, beat() per loop iteration.
  Heartbeat& heartbeat(
      std::string_view name,
      std::chrono::nanoseconds stall_after = std::chrono::seconds(1));

  Beacon& beacon(std::string_view name);

  /// Watch a counter's per-sample rate (busy storms, failover storms).
  /// Threshold 0 uses the config default.
  void watch_rate(std::string_view counter, std::string_view label,
                  std::uint64_t threshold = 0);

  /// Sample now: metrics snapshot first (unlocked), then classify under
  /// the kHealth lock. Journals per-layer state transitions. Works with
  /// or without the background watchdog (any two calls further apart
  /// than a heartbeat's stall_after detect its stall).
  HealthReport check_now();

  /// Most recent report (check_now or watchdog tick); empty before the
  /// first sample.
  HealthReport latest() const;

  /// Start/stop the background watchdog thread. Idempotent; also installs
  /// the fatal-dump terminate handler. The watchdog's default rate
  /// watches (lcm.busy_received, lcm.address_faults) are registered on
  /// first start.
  void start_watchdog(WatchdogConfig cfg = {});
  void stop_watchdog();
  bool watchdog_running() const;

 private:
  void watchdog_main(const std::stop_token& st);
  HealthReport classify(const metrics::Snapshot& snap, std::int64_t now_ns)
      REQUIRES(mu_);

  mutable ntcs::Mutex mu_{ntcs::lockrank::kHealth, "health.registry"};
  ntcs::CondVar cv_;  // watchdog pacing + stop wakeup
  std::map<std::string, std::unique_ptr<Heartbeat>, std::less<>> heartbeats_
      GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Beacon>, std::less<>> beacons_
      GUARDED_BY(mu_);
  struct RateWatch {
    std::string label;
    std::uint64_t threshold = 0;  // 0 = config default
    std::uint64_t last = 0;
    bool primed = false;
  };
  std::map<std::string, RateWatch, std::less<>> rate_watches_ GUARDED_BY(mu_);
  std::map<std::string, HealthState, std::less<>> last_states_ GUARDED_BY(mu_);
  HealthReport latest_ GUARDED_BY(mu_);
  WatchdogConfig cfg_ GUARDED_BY(mu_);
  bool stopping_ GUARDED_BY(mu_) = false;
  bool defaults_registered_ GUARDED_BY(mu_) = false;
  std::jthread watchdog_;
  // sync: running flag, relaxed — start/stop are externally serialised
  // (module lifecycle); readers only steer idempotence.
  std::atomic<bool> running_{false};
};

/// Process-wide shorthands (the instrumentation-site idiom, like
/// metrics::counter):
///   static health::Heartbeat& hb = health::heartbeat("pump.a");
///   hb.beat();
inline Heartbeat& heartbeat(
    std::string_view name,
    std::chrono::nanoseconds stall_after = std::chrono::seconds(1)) {
  return HealthRegistry::instance().heartbeat(name, stall_after);
}
inline Beacon& beacon(std::string_view name) {
  return HealthRegistry::instance().beacon(name);
}
inline HealthReport check_now() {
  return HealthRegistry::instance().check_now();
}

}  // namespace ntcs::health
