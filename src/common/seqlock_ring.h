// seqlock_ring.h — the fixed-capacity, overwrite-oldest record ring behind
// the trace span buffer (trace.cpp) and the health journal (health.cpp).
//
// A record is `Words` 64-bit words; its owner marshals its own raw struct
// into them and back. Writers never block: a ticket picks the slot, and
// the slot's seqlock stamp brackets the payload stores. Drains take a
// leaf mutex (the owner's rank) that writers never touch; a reader racing
// a wrap-around writer detects the recycled stamp and skips the slot, so
// it never decodes a mix of two records.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/annotated.h"

namespace ntcs {

template <std::size_t Words>
class SeqlockRing {
 public:
  using Record = std::array<std::uint64_t, Words>;

  SeqlockRing(std::size_t capacity, std::uint16_t drain_rank,
              const char* drain_name)
      : capacity_(capacity == 0 ? 1 : capacity),
        slots_(new Slot[capacity_]),
        mu_(drain_rank, drain_name) {}

  /// Lock-free. Claims the next ticket, stores `encode(ticket)` in its
  /// slot, and returns true when that overwrote a record no drain had
  /// cleared (the ring wrapped; also counted in dropped()).
  template <typename Encode>
  bool push(Encode&& encode) {
    const std::uint64_t ticket = next_.fetch_add(1, std::memory_order_relaxed);
    const Record rec = encode(ticket);
    Slot& slot = slots_[ticket % capacity_];
    const std::uint64_t prev =
        slot.stamp.exchange(kBusyStamp, std::memory_order_acq_rel);
    const bool overwrote = prev != 0 && prev != kBusyStamp;
    if (overwrote) dropped_.fetch_add(1, std::memory_order_relaxed);
    for (std::size_t i = 0; i < Words; ++i) {
      slot.words[i].store(rec[i], std::memory_order_relaxed);
    }
    slot.stamp.store(ticket + 1, std::memory_order_release);
    return overwrote;
  }

  /// Every intact record, oldest ticket first, through `decode` (which
  /// returns std::optional<T>; nullopt leaves the record out).
  template <typename T, typename Decode>
  std::vector<T> drain(Decode&& decode) const {
    ntcs::LockGuard lk(mu_);
    const std::uint64_t hi = next_.load(std::memory_order_acquire);
    const std::uint64_t lo = hi > capacity_ ? hi - capacity_ : 0;
    std::vector<T> out;
    out.reserve(static_cast<std::size_t>(hi - lo));
    for (std::uint64_t t = lo; t < hi; ++t) {
      const Slot& slot = slots_[t % capacity_];
      const std::uint64_t s1 = slot.stamp.load(std::memory_order_acquire);
      if (s1 == 0 || s1 == kBusyStamp) continue;
      Record rec;
      for (std::size_t i = 0; i < Words; ++i) {
        rec[i] = slot.words[i].load(std::memory_order_relaxed);
      }
      // sync: seqlock read fence — orders the word loads before the stamp
      // re-check.
      std::atomic_thread_fence(std::memory_order_acquire);
      if (slot.stamp.load(std::memory_order_relaxed) != s1) continue;  // torn
      if (std::optional<T> v = decode(rec)) out.push_back(std::move(*v));
    }
    return out;
  }

  /// Drops every record. Tickets keep counting (stamps stay unique across
  /// clears); a zero stamp marks the slot empty, so overwriting it is not
  /// counted as a drop.
  void clear() {
    ntcs::LockGuard lk(mu_);
    for (std::size_t i = 0; i < capacity_; ++i) {
      slots_[i].stamp.store(0, std::memory_order_release);
    }
  }

  /// Records lost to ring wrap since construction.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return capacity_; }

 private:
  static constexpr std::uint64_t kBusyStamp = ~0ULL;

  // Deliberately NOT ntcs::Atomic: spans and journal notes are recorded
  // under layer locks and on every hot path, so the explorer must never
  // park here; the protocol is validated by its own torn-read skip, not by
  // happens-before edges.
  struct Slot {
    // sync: seqlock — the writer exchanges the stamp to kBusyStamp,
    // stores the words relaxed, then release-stores ticket + 1; a reader
    // acquire-loads it, copies the words, fences, and re-checks it.
    std::atomic<std::uint64_t> stamp{0};  // 0 empty, else as above
    std::atomic<std::uint64_t> words[Words]{};  // sync: seqlock payload
  };

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  // sync: next_ is the ticket allocator (relaxed fetch_add to claim,
  // acquire load in drain to bound the scan); dropped_ is a relaxed stat.
  std::atomic<std::uint64_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};  // sync: relaxed stat
  // Serialises drains and clears only; push() never touches it.
  mutable ntcs::Mutex mu_;
};

}  // namespace ntcs
