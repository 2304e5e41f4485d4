// annotated.cpp — the runtime half of the lock-hierarchy validator.
//
// Each thread keeps a fixed-depth stack of the ranked locks it holds.
// lock() pushes after acquiring, unlock() pops (searching from the top —
// out-of-order release through UniqueLock is legal). An acquisition whose
// rank is <= the rank of any held lock is a rank inversion; it is counted
// into `analysis.lock_inversions`, mirrored in a plain atomic readable
// without the registry, and reported on stderr once per (held, acquired)
// name pair so a chaos run cannot flood the log. While a test switches it
// on, it also counts ranked acquisitions, in total and per rank.
//
// Re-entrancy: reporting an inversion itself takes leaf locks (the
// metrics registry's map lock, stderr). A thread-local in_validator flag
// suppresses nested validation while reporting, so the validator can
// never recurse into itself or flag its own bookkeeping.
#include "common/annotated.h"

#include <atomic>
#include <cstdio>

#include "common/metrics.h"

namespace ntcs::analysis {

namespace {
// sync: monotonic count, relaxed; the validator's report path is the
// synchronization-free diagnostic of last resort by design.
std::atomic<std::uint64_t> g_inversions{0};
}  // namespace

std::uint64_t lock_inversions() {
  return g_inversions.load(std::memory_order_relaxed);
}

#ifdef NTCS_LOCK_RANK_CHECKS

namespace {

// Deep enough for every real chain (the longest in the tree is
// drts.process_control → lcm.state → nd.state → log, depth 4) with a wide
// margin; acquisitions past the cap are left untracked rather than UB.
constexpr std::size_t kMaxHeld = 32;

struct HeldLock {
  const void* m;
  std::uint16_t rank;
  const char* name;
};

struct ThreadLockState {
  HeldLock held[kMaxHeld];
  std::size_t depth = 0;
  bool in_validator = false;
};

thread_local ThreadLockState t_locks;

// Once-per-pair stderr reporting. Guarded by its own unranked mutex; only
// reached on the (rare) inversion path with in_validator set, so the
// acquisition below bypasses the validator and cannot recurse.
void report_once(const char* held_name, std::uint16_t held_rank,
                 const char* acq_name, std::uint16_t acq_rank) {
  static Mutex mu;
  static constexpr std::size_t kMaxPairs = 64;
  static struct {
    const char* a;
    const char* b;
  } seen[kMaxPairs];
  static std::size_t n_seen = 0;

  LockGuard lk(mu);
  for (std::size_t i = 0; i < n_seen; ++i) {
    if (seen[i].a == held_name && seen[i].b == acq_name) return;
  }
  if (n_seen < kMaxPairs) seen[n_seen++] = {held_name, acq_name};
  std::fprintf(stderr,
               "ntcs: LOCK RANK INVERSION: acquiring '%s' (rank %u) while "
               "holding '%s' (rank %u)\n",
               acq_name, acq_rank, held_name, held_rank);
}

// Acquisition counting for lock-budget tests. Every rank is below 1024;
// a higher one would count in the total only.
constexpr std::size_t kRankSlots = 1024;
// sync: relaxed; a test-only switch and observational counters, never
// used to order other memory.
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_acquisitions{0};  // sync: as above
// sync: as above
std::atomic<std::uint64_t> g_acquisitions_by_rank[kRankSlots];

}  // namespace

std::size_t held_lock_depth() { return t_locks.depth; }

void count_lock_acquisitions(bool on) {
  g_counting.store(on, std::memory_order_relaxed);
}

std::uint64_t lock_acquisitions() {
  return g_acquisitions.load(std::memory_order_relaxed);
}

std::uint64_t lock_acquisitions(std::uint16_t rank) {
  return rank < kRankSlots
             ? g_acquisitions_by_rank[rank].load(std::memory_order_relaxed)
             : 0;
}

void note_acquire(const void* m, std::uint16_t rank, const char* name) {
  ThreadLockState& s = t_locks;
  if (s.in_validator) return;
  if (rank != lockrank::kUnranked) {
    if (g_counting.load(std::memory_order_relaxed)) {
      g_acquisitions.fetch_add(1, std::memory_order_relaxed);
      if (rank < kRankSlots) {
        g_acquisitions_by_rank[rank].fetch_add(1, std::memory_order_relaxed);
      }
    }
    // The hierarchy demands strictly increasing ranks down the stack.
    for (std::size_t i = 0; i < s.depth; ++i) {
      if (s.held[i].rank != lockrank::kUnranked && s.held[i].rank >= rank) {
        g_inversions.fetch_add(1, std::memory_order_relaxed);
        s.in_validator = true;
        {
          // The reporting path takes the registry/report locks; under an
          // exploration run those must not become schedule points (they
          // only occur on failing schedules, so they would make decision
          // indices — and replay tokens — schedule-dependent).
          SchedSuppress suppress;
          static metrics::Counter* c =
              &metrics::counter("analysis.lock_inversions");
          c->inc();
          report_once(s.held[i].name, s.held[i].rank, name, rank);
        }
        s.in_validator = false;
        break;
      }
    }
  }
  if (s.depth < kMaxHeld) s.held[s.depth++] = {m, rank, name};
}

void note_release(const void* m) {
  ThreadLockState& s = t_locks;
  if (s.in_validator) return;
  for (std::size_t i = s.depth; i-- > 0;) {
    if (s.held[i].m == m) {
      for (std::size_t j = i; j + 1 < s.depth; ++j) s.held[j] = s.held[j + 1];
      --s.depth;
      return;
    }
  }
}

#else  // !NTCS_LOCK_RANK_CHECKS

std::size_t held_lock_depth() { return 0; }
void count_lock_acquisitions(bool) {}
std::uint64_t lock_acquisitions() { return 0; }
std::uint64_t lock_acquisitions(std::uint16_t) { return 0; }

#endif

}  // namespace ntcs::analysis
