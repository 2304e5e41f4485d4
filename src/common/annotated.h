// annotated.h — capability-annotated locking primitives and the runtime
// lock-hierarchy validator.
//
// The Nucleus is a stack of concurrently-driven layers (ND → IP → LCM →
// NSP → ALI over the simnet substrate), and the locking discipline that
// keeps LvcState, the per-circuit send windows, the Fabric FIFOs and the
// metrics registry consistent used to exist only in the authors' heads.
// This header turns that discipline into two machine-checked contracts:
//
//  1. **Static**: Clang thread-safety attributes. `ntcs::Mutex` is a
//     CAPABILITY, `ntcs::LockGuard`/`ntcs::UniqueLock` are
//     SCOPED_CAPABILITYs, and shared state throughout src/ is annotated
//     GUARDED_BY its mutex. Under Clang the build runs with
//     `-Wthread-safety -Werror=thread-safety`; under GCC (which has no
//     such analysis) every attribute expands to nothing and the wrappers
//     are zero-overhead forwarding shims.
//
//  2. **Dynamic**: a lock-hierarchy registry. Every mutex is constructed
//     with a *rank* (see `lockrank` below — lower rank = acquired
//     earlier / held outermost). A thread-local held-lock stack checks,
//     on every acquisition, that the new lock's rank is strictly greater
//     than every ranked lock already held by the thread. A violation is
//     a *rank inversion*: two threads interleaving the same pair of
//     locks in opposite orders is the classic deadlock cycle, and rank
//     inversions are exactly the acquisitions that make such cycles
//     possible. Inversions are counted in `analysis.lock_inversions`
//     (metrics registry) and reported once per offending lock pair on
//     stderr. The validator is compiled in when NTCS_LOCK_RANK_CHECKS
//     is defined (CMake option NTCS_LOCK_CHECKS, default ON — including
//     RelWithDebInfo, so the tier-1 suite always runs under it) and
//     costs one thread-local stack scan (depth ≤ 4 in practice) per
//     lock; perf builds may configure it away.
//
// The condition-variable wrapper is a std::condition_variable waiting on
// the Mutex's own std::mutex; each wait tells the validator the lock is
// released and then re-acquired, so the held-lock bookkeeping stays exact
// across blocking waits.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

// ---- Clang thread-safety annotation macros --------------------------------
// The canonical attribute set from the Clang thread-safety docs. Under any
// compiler without the capability analysis these expand to nothing.
#if defined(__clang__) && defined(__has_attribute)
#if __has_attribute(capability)
#define NTCS_THREAD_ANNOTATION(x) __attribute__((x))
#endif
#endif
#ifndef NTCS_THREAD_ANNOTATION
#define NTCS_THREAD_ANNOTATION(x)
#endif

#define CAPABILITY(x) NTCS_THREAD_ANNOTATION(capability(x))
#define SCOPED_CAPABILITY NTCS_THREAD_ANNOTATION(scoped_lockable)
#define GUARDED_BY(x) NTCS_THREAD_ANNOTATION(guarded_by(x))
#define PT_GUARDED_BY(x) NTCS_THREAD_ANNOTATION(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) NTCS_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) NTCS_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))
#define REQUIRES(...) NTCS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define ACQUIRE(...) NTCS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define RELEASE(...) NTCS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) NTCS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))
#define EXCLUDES(...) NTCS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) NTCS_THREAD_ANNOTATION(assert_capability(x))
#define RETURN_CAPABILITY(x) NTCS_THREAD_ANNOTATION(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS NTCS_THREAD_ANNOTATION(no_thread_safety_analysis)

namespace ntcs {

// ---- the lock hierarchy ---------------------------------------------------
// One rank per lock *role*; lower rank = acquired earlier (outermost).
// A thread holding a lock of rank r may only acquire locks of rank > r.
// The numbering is derived from the empirical nesting in the codebase
// (documented per-edge below and in DESIGN.md §6), not from conceptual
// layering alone — e.g. the LCM-Layer's state lock is *outer* to the
// ND-Layer's because resolution results are pushed down into the ND
// physical-address cache while the LCM table lock is held.
//
// Rank 0 (kUnranked) exempts a mutex from ordering checks; it is for
// test scaffolding and genuinely order-free leaves only — production
// locks all carry a rank.
namespace lockrank {
inline constexpr std::uint16_t kUnranked = 0;

// DRTS managed-process control: held across module start/stop, which
// re-enters the whole Nucleus (register_self → NSP → LCM → ND → fabric),
// so it must be outermost of all.
inline constexpr std::uint16_t kDrtsProcessControl = 100;
// DRTS server state (monitor rollups, error-log ring, file tables):
// leaf-scoped copies, never held across NTCS calls.
inline constexpr std::uint16_t kDrtsServer = 110;

// NSP-Layer: the name-server database and static map below. Held only
// around table mutation/copy; NTCS traffic happens outside. kNspState
// itself names no production lock (the NSP-Layer's own lock guarded only
// its statistics, which now live in the module's metrics scope); it stays
// as the NSP-Layer rank analysis_test orders kNspLease against.
inline constexpr std::uint16_t kNspState = 200;
// The NSP shard-map + lease cache (client-side naming state: per-shard
// epochs, lease entries). Strictly leaf-scoped within the NSP-Layer: a
// lookup consults/mutates the cache under it, RELEASES it, and only then
// issues the LCM request — the lock is never held across a blocking
// naming-service call (the PR 4 validator found that shape twice
// elsewhere; the rank exists so analysis_test can pin the contract).
inline constexpr std::uint16_t kNspLease = 205;
inline constexpr std::uint16_t kNameServerDb = 210;
inline constexpr std::uint16_t kStaticResolver = 220;

// LCM-Layer: the connection/forward/pending tables lock is held while
// seeding the ND physical cache (lcm.state < nd.state); the per-circuit
// send window and per-request ticket locks are taken strictly after it
// and never nested with each other.
inline constexpr std::uint16_t kLcmState = 300;
inline constexpr std::uint16_t kLcmWindow = 310;
inline constexpr std::uint16_t kLcmRequest = 320;

// IP-Layer: route-extension waiters are held while relay state is
// installed (ip.extend_wait < ip.state); the state lock is never held
// across ND-Layer calls.
inline constexpr std::uint16_t kIpExtendWait = 400;
inline constexpr std::uint16_t kIpState = 410;

// ND-Layer: an open waiter's lock is held across the whole open attempt
// (nd.open_wait < nd.state < fabric, via close_channel on stale
// attempts); the per-LVC transmit lock serialises fragment trains across
// Endpoint::send (nd.tx < fabric).
inline constexpr std::uint16_t kNdOpenWait = 500;
inline constexpr std::uint16_t kNdState = 510;
inline constexpr std::uint16_t kNdTx = 520;

// Node identity (UAdd/phys snapshot): leaf below the layer locks.
inline constexpr std::uint16_t kIdentity = 600;

// simnet substrate: endpoint inbox and fabric core. The fabric never
// holds its lock across Endpoint::enqueue and endpoints never call back
// into the fabric under their inbox lock, so the two are unnested; both
// sit below every Nucleus lock that reaches them (nd.tx, nd.open_wait).
inline constexpr std::uint16_t kSimnetEndpoint = 700;
inline constexpr std::uint16_t kSimnetFabric = 710;

// realnet substrate (real loopback TCP sockets), same stratum as simnet:
// reached with ND-Layer locks held. The port lock guards the channel
// table (taken by connect/close and the listener/reader threads); each
// channel's tx lock serialises gather-writes onto its socket and is
// taken after the port lock (connect sends nothing, send looks up the
// channel under kRealnetPort then writes under kRealnetTx); the inbox
// lock is a strict leaf the reader threads and recv_for meet at.
inline constexpr std::uint16_t kRealnetPort = 720;
inline constexpr std::uint16_t kRealnetTx = 730;
inline constexpr std::uint16_t kRealnetInbox = 740;

// Leaf infrastructure: acquired last, never held across anything.
inline constexpr std::uint16_t kBlockingQueue = 800;
inline constexpr std::uint16_t kLog = 900;
inline constexpr std::uint16_t kMetricsRegistry = 910;
// Trace span-buffer drain lock (writes are lock-free; only snapshot/clear
// serialise here). Strict leaf: drains may run under the DRTS server lock
// and first-touch a metric, never the other way around.
inline constexpr std::uint16_t kTraceBuffer = 920;
// Health-plane registry/report lock (common/health.h). Leaf below
// everything: heartbeats and beacons are raw relaxed atomics (no lock at
// all on layer hot paths); this lock only serialises watchdog sampling
// and registration, and a sample never holds it across the metrics
// snapshot it consumes (kMetricsRegistry < kHealth — the snapshot is
// taken first, unlocked).
inline constexpr std::uint16_t kHealth = 930;
// Flight-recorder drain lock (common/health.h journal) — the exact
// analogue of kTraceBuffer for the event journal: record() is lock-free,
// only snapshot/clear/dump serialise here. Strict leaf.
inline constexpr std::uint16_t kJournal = 940;
}  // namespace lockrank

namespace analysis {
/// Process-wide count of detected rank inversions (same value the
/// `analysis.lock_inversions` metric carries; readable without touching
/// the metrics registry, e.g. from the validator's own failure paths).
std::uint64_t lock_inversions();

/// Number of ranked locks the calling thread currently holds.
std::size_t held_lock_depth();

/// Ranked-lock acquisition counting, for lock-budget tests. Off by
/// default; while on, every ranked acquisition (a CondVar wake included)
/// is counted process-wide, in total and per rank. Only the validator
/// counts, so with it compiled out the counts stay 0.
void count_lock_acquisitions(bool on);
std::uint64_t lock_acquisitions();
std::uint64_t lock_acquisitions(std::uint16_t rank);

// Internal hooks used by ntcs::Mutex (defined even when the validator is
// compiled out, as empty inlines, so annotated.h stays the only
// conditional surface).
#ifdef NTCS_LOCK_RANK_CHECKS
void note_acquire(const void* m, std::uint16_t rank, const char* name);
void note_release(const void* m);
#else
inline void note_acquire(const void*, std::uint16_t, const char*) {}
inline void note_release(const void*) {}
#endif

// ---- schedule-explorer interposition seam ---------------------------------
// When a thread is registered as a task of an active exploration run
// (src/analysis/sched.h), every Mutex/CondVar/Atomic operation first calls
// the matching sched_* hook so the cooperative scheduler can serialize it.
// `task` is set by the explorer on its task threads only; `suppress` lets
// validator-internal code (inversion reporting, metrics first-touch) take
// locks without creating schedule points, keeping decision indices
// deterministic across runs. On every other thread — all of production
// and tier-1 — sched_interposed() is one thread_local flag test.
struct SchedTls {
  bool task = false;
  int suppress = 0;
};
// Accessor instead of an extern thread_local object: GCC's UBSan
// false-positives ("member access within null pointer") on the cross-TU
// TLS wrapper of an extern thread_local class object; a function-local
// thread_local is constant-initialized, wrapper-free, and identical cost.
inline SchedTls& sched_tls() {
  static thread_local SchedTls t;
  return t;
}

inline bool sched_interposed() {
  const SchedTls& t = sched_tls();
  return t.task && t.suppress == 0;
}

/// RAII suppression for validator/infrastructure code paths that must not
/// become schedule points.
class SchedSuppress {
 public:
  SchedSuppress() { ++sched_tls().suppress; }
  ~SchedSuppress() { --sched_tls().suppress; }
  SchedSuppress(const SchedSuppress&) = delete;
  SchedSuppress& operator=(const SchedSuppress&) = delete;
};

namespace sched {
// Defined in src/analysis/sched.cpp (ntcs_analysis, mutually linked with
// ntcs_common). Declarations duplicated in analysis/sched.h.
void sched_mutex_lock(const void* m, const char* name);
bool sched_mutex_trylock(const void* m, const char* name);
void sched_mutex_unlock(const void* m);
void sched_cv_enqueue(const void* cv);
bool sched_cv_wait_parked(const void* cv, std::int64_t rel_ns);
void sched_cv_notify(const void* cv, bool all);
void sched_atomic_access(const void* loc, bool write, bool acquire,
                         bool release);
}  // namespace sched
}  // namespace analysis

// ---- the annotated mutex --------------------------------------------------

/// A standard mutex that (a) carries Clang capability annotations and
/// (b) participates in the runtime lock-hierarchy validator. Construct
/// with a rank from ntcs::lockrank and a static-storage name.
class CAPABILITY("mutex") Mutex {
 public:
  /// Unranked (ordering-exempt) mutex — test scaffolding only.
  Mutex() = default;
  Mutex(std::uint16_t rank, const char* name) : rank_(rank), name_(name) {}

  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  // Hook ordering is the explorer's core invariant (model-free =>
  // physically-free): a lock is model-granted *before* the physical
  // acquisition, and the physical release happens *before* the model one
  // — so a granted mu_.lock() can never block on a stale physical holder.
  void lock() ACQUIRE() {
    if (analysis::sched_interposed()) {
      analysis::sched::sched_mutex_lock(this, name_);
    }
    mu_.lock();
    analysis::note_acquire(this, rank_, name_);
  }
  void unlock() RELEASE() {
    analysis::note_release(this);
    mu_.unlock();
    if (analysis::sched_interposed()) {
      analysis::sched::sched_mutex_unlock(this);
    }
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (analysis::sched_interposed()) {
      // The model decides; when it grants, the mutex is physically free.
      if (!analysis::sched::sched_mutex_trylock(this, name_)) return false;
      mu_.lock();
      analysis::note_acquire(this, rank_, name_);
      return true;
    }
    if (!mu_.try_lock()) return false;
    analysis::note_acquire(this, rank_, name_);
    return true;
  }

  std::uint16_t rank() const { return rank_; }
  const char* name() const { return name_; }

  /// For code paths the static analysis cannot follow (e.g. a lock
  /// handed through a callback): assert at analysis level that the
  /// capability is held.
  void assert_held() const ASSERT_CAPABILITY(this) {}

 private:
  friend class CondVar;  // waits on mu_ itself

  std::mutex mu_;
  std::uint16_t rank_ = lockrank::kUnranked;
  const char* name_ = "unranked";
};

/// Scoped lock, the std::lock_guard analogue.
class SCOPED_CAPABILITY LockGuard {
 public:
  explicit LockGuard(Mutex& m) ACQUIRE(m) : mu_(m) { mu_.lock(); }
  ~LockGuard() RELEASE() { mu_.unlock(); }

  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  Mutex& mu_;
};

/// Relockable scoped lock, the std::unique_lock analogue; the lock a
/// CondVar waits with.
class SCOPED_CAPABILITY UniqueLock {
 public:
  explicit UniqueLock(Mutex& m) ACQUIRE(m) : mu_(&m), owned_(true) {
    mu_->lock();
  }
  ~UniqueLock() RELEASE() {
    if (owned_) mu_->unlock();
  }

  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;

  void lock() ACQUIRE() {
    mu_->lock();
    owned_ = true;
  }
  void unlock() RELEASE() {
    owned_ = false;
    mu_->unlock();
  }
  bool owns_lock() const { return owned_; }

 private:
  friend class CondVar;

  Mutex* mu_;
  bool owned_;
};

/// Condition variable over ntcs::Mutex: a std::condition_variable waiting
/// on the Mutex's own std::mutex, so a wait or notify takes no lock of its
/// own and constructing one allocates nothing. Around each blocking wait
/// the validator is told the lock is released and then re-acquired, so
/// the wake counts as an acquisition like any other. Predicate waits loop
/// over the plain wait, so a predicate always runs with the lock noted as
/// held. The wait overloads mirror the std ones used in this codebase.
/// (The thread-safety analysis treats the lock as held across a wait —
/// true at entry and exit, which is what GUARDED_BY cares about.)
/// Under an exploration run the underlying condition_variable is not used
/// at all: a wait enqueues the task in the scheduler's FIFO waiter
/// model, releases the lock through the interposed Mutex path, parks
/// until a modeled notify (or modeled timeout — timeouts fire only when
/// nothing else can run), and relocks. notify_one wakes the FIFO front;
/// std's "any waiter" latitude collapses to that one deterministic
/// choice. (The notify methods are schedule points, hence not noexcept.)
class CondVar {
 public:
  void notify_one() {
    if (analysis::sched_interposed()) {
      analysis::sched::sched_cv_notify(this, /*all=*/false);
      return;
    }
    cv_.notify_one();
  }
  void notify_all() {
    if (analysis::sched_interposed()) {
      analysis::sched::sched_cv_notify(this, /*all=*/true);
      return;
    }
    cv_.notify_all();
  }

  void wait(UniqueLock& lk) {
    if (analysis::sched_interposed()) {
      sched_wait(lk, -1);
      return;
    }
    park(lk);
  }

  template <typename Pred>
  void wait(UniqueLock& lk, Pred pred) {
    if (analysis::sched_interposed()) {
      while (!pred()) sched_wait(lk, -1);
      return;
    }
    while (!pred()) park(lk);
  }

  template <typename Rep, typename Period>
  std::cv_status wait_for(UniqueLock& lk,
                          const std::chrono::duration<Rep, Period>& d) {
    if (analysis::sched_interposed()) {
      return sched_wait(lk, rel_ns(d)) ? std::cv_status::timeout
                                       : std::cv_status::no_timeout;
    }
    return park_until(lk, std::chrono::steady_clock::now() + d);
  }

  template <typename Rep, typename Period, typename Pred>
  bool wait_for(UniqueLock& lk, const std::chrono::duration<Rep, Period>& d,
                Pred pred) {
    if (analysis::sched_interposed()) {
      while (!pred()) {
        if (sched_wait(lk, rel_ns(d))) return pred();
      }
      return true;
    }
    return park_until(lk, std::chrono::steady_clock::now() + d, pred);
  }

  template <typename Clock, typename Duration>
  std::cv_status wait_until(
      UniqueLock& lk, const std::chrono::time_point<Clock, Duration>& tp) {
    if (analysis::sched_interposed()) {
      return sched_wait(lk, rel_ns(tp - Clock::now()))
                 ? std::cv_status::timeout
                 : std::cv_status::no_timeout;
    }
    return park_until(lk, tp);
  }

  template <typename Clock, typename Duration, typename Pred>
  bool wait_until(UniqueLock& lk,
                  const std::chrono::time_point<Clock, Duration>& tp,
                  Pred pred) {
    if (analysis::sched_interposed()) {
      while (!pred()) {
        if (sched_wait(lk, rel_ns(tp - Clock::now()))) return pred();
      }
      return true;
    }
    return park_until(lk, tp, pred);
  }

 private:
  /// The Mutex's std::mutex, lent to cv_ for one wait: the validator sees
  /// the lock released for the wait and acquired again when it ends.
  struct Lend {
    explicit Lend(UniqueLock& lk)
        : m(*lk.mu_), inner(m.mu_, std::adopt_lock) {
      analysis::note_release(&m);
    }
    ~Lend() {
      analysis::note_acquire(&m, m.rank_, m.name_);
      (void)inner.release();
    }
    Lend(const Lend&) = delete;
    Lend& operator=(const Lend&) = delete;

    Mutex& m;
    std::unique_lock<std::mutex> inner;
  };

  void park(UniqueLock& lk) {
    Lend lent(lk);
    cv_.wait(lent.inner);
  }

  template <typename Clock, typename Duration>
  std::cv_status park_until(
      UniqueLock& lk, const std::chrono::time_point<Clock, Duration>& tp) {
    Lend lent(lk);
    return cv_.wait_until(lent.inner, tp);
  }

  template <typename Clock, typename Duration, typename Pred>
  bool park_until(UniqueLock& lk,
                  const std::chrono::time_point<Clock, Duration>& tp,
                  Pred& pred) {
    while (!pred()) {
      if (park_until(lk, tp) == std::cv_status::timeout) return pred();
    }
    return true;
  }

  template <typename Rep, typename Period>
  static std::int64_t rel_ns(const std::chrono::duration<Rep, Period>& d) {
    auto ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
    return ns < 0 ? 0 : ns;
  }

  /// The modeled wait; returns true when it ended by (modeled) timeout.
  /// rel_ns < 0 waits forever.
  bool sched_wait(UniqueLock& lk, std::int64_t rel_ns) {
    analysis::sched::sched_cv_enqueue(this);  // atomic with the release:
    lk.unlock();  // no schedule point runs between enqueue and unlock
    const bool timed_out = analysis::sched::sched_cv_wait_parked(this, rel_ns);
    lk.lock();
    return timed_out;
  }

  std::condition_variable cv_;
};

}  // namespace ntcs
