// trace.h — end-to-end distributed tracing for the NTCS (paper §6.1/§6.2).
//
// The paper's DRTS network monitor exists because a recursive, internetted
// system is only debuggable when one can see *which layer* on *which node*
// did *what* to a given message. The metrics registry (metrics.h) answers
// "how much"; this module answers "which one": a Dapper-style trace context
// rides the LCM wire header next to the correlation ID, every layer records
// spans into a per-process lock-free ring buffer, and the DRTS monitor
// harvests those buffers over the NTCS itself (monitor.h: query_traces).
//
// Span model: ALI entry points (send/request/request_async) open a *root*
// span and install its context in a thread-local. Because the whole send
// path is synchronous on the caller thread (ComMod -> LCM -> IP -> ND),
// downstream layers read the thread-local; receive-side layers (ND
// reassembly, IP relay) instead peek the context out of the frame they are
// forwarding. All spans are recorded flat as children of the root span
// carried on the wire, so merging per-node harvests needs no cross-node
// clock agreement beyond the simnet's shared steady_clock.
//
// Cost model: with sampling off (the default) every instrumentation site is
// one relaxed atomic load and a branch. When a root is sampled, recording a
// span is a ticket fetch_add plus ~13 relaxed word stores into a seqlock-
// stamped slot — no lock, no allocation. Only snapshot()/clear() take the
// buffer mutex (rank lockrank::kTraceBuffer, a leaf).
//
// Call-site idiom (mirrors the metrics static-ref rule, enforced by
// scripts/lint.sh): instrumentation sites use the free helpers below
// (record_child / ScopedSpan / RootSpan); `SpanBuffer::instance()` appears
// only inside trace.cpp.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/annotated.h"
#include "common/atomic.h"
#include "common/seqlock_ring.h"

namespace ntcs::trace {

/// The context that rides the wire: a 128-bit trace ID naming the whole
/// request tree plus the ID of the span that is the parent of whatever the
/// receiving site records. All-zero means "not traced".
struct TraceContext {
  std::uint64_t hi = 0;    ///< trace ID, high 64 bits
  std::uint64_t lo = 0;    ///< trace ID, low 64 bits
  std::uint64_t span = 0;  ///< parent span ID for children of this context

  bool valid() const { return (hi | lo) != 0; }
  friend bool operator==(const TraceContext&, const TraceContext&) = default;
};

// ---- sampling -------------------------------------------------------------

enum class SampleMode : std::uint32_t {
  off = 0,     ///< no roots opened; instrumentation sites cost one branch
  always = 1,  ///< every ALI entry opens a root span
  one_in_n = 2 ///< every Nth ALI entry per thread opens a root span
};

namespace detail {
// 0 = off so the hot-path check compiles to one relaxed load + branch.
// ntcs::Atomic so the schedule explorer sees this gate as a schedule
// point: a scenario toggling sampling concurrently with traced sends is
// explorable, not invisible.
extern ntcs::Atomic<std::uint32_t> g_mode;
}  // namespace detail

void set_sampling(SampleMode mode, std::uint32_t n = 1);
SampleMode sampling_mode();

/// The one-branch gate every instrumentation site checks first.
inline bool enabled() {
  return detail::g_mode.load(std::memory_order_relaxed) != 0;
}

/// Sampling decision for a *new* root (already-propagated contexts are
/// always recorded). Deterministic per thread in one_in_n mode.
bool sample_this();

// ---- context plumbing -----------------------------------------------------

/// Monotonic steady_clock nanoseconds (the span timestamp base).
std::int64_t now_ns();

/// Fresh nonzero 64-bit ID from a per-thread SplitMix64 stream seeded via
/// Rng::seed_from("trace.ids", thread ordinal).
std::uint64_t next_id();

/// A fresh root context: new 128-bit trace ID, span = the root span's ID.
TraceContext make_root();

/// The context installed on this thread (all-zero when none).
TraceContext current();

/// Installs `ctx` as the thread's current context for the scope, restoring
/// the previous one on destruction. Used where a request's context must be
/// re-entered off the original call stack (LCM reply / await-retry paths).
class ContextScope {
 public:
  explicit ContextScope(const TraceContext& ctx);
  ~ContextScope();
  ContextScope(const ContextScope&) = delete;
  ContextScope& operator=(const ContextScope&) = delete;

 private:
  TraceContext prev_;
};

// ---- the span buffer ------------------------------------------------------

/// A completed span as read back out of the buffer.
struct Span {
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t span_id = 0;
  std::uint64_t parent_id = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t flags = 0;     ///< op-specific detail (frame count, attempt #)
  std::string layer;           ///< "ali", "lcm", "ip", "nd"
  std::string op;              ///< "request", "hop", "fragment", ...
  std::string node;            ///< module identity name that recorded it
};

/// Fixed-capacity overwrite-oldest span ring: a SeqlockRing (lock-free
/// writers; a reader that loses the race to a wrap-around writer skips
/// the slot) holding each span as kSpanWords words. Instantiable for unit
/// tests; production sites reach the process-wide buffer through the free
/// helpers below.
class SpanBuffer {
 public:
  static constexpr std::size_t kDefaultCapacity = 64 * 1024;

  explicit SpanBuffer(std::size_t capacity = kDefaultCapacity);
  ~SpanBuffer();
  SpanBuffer(const SpanBuffer&) = delete;
  SpanBuffer& operator=(const SpanBuffer&) = delete;

  /// The process-wide buffer. Intentionally leaked, like the metrics
  /// registry: spans may still be recorded during static destruction.
  static SpanBuffer& instance();

  /// Lock-free. Strings longer than the slot's fixed fields are truncated.
  void record(const TraceContext& ctx, std::uint64_t span_id,
              std::uint64_t parent_id, std::int64_t start_ns,
              std::int64_t end_ns, std::string_view layer, std::string_view op,
              std::string_view node, std::uint32_t flags = 0);

  /// Every readable span, oldest first. Takes the drain mutex.
  std::vector<Span> snapshot() const;
  /// Spans belonging to one trace ID.
  std::vector<Span> for_trace(std::uint64_t hi, std::uint64_t lo) const;
  /// Spans whose start is at or after `ns`.
  std::vector<Span> since(std::int64_t ns) const;
  /// Empties the ring (drops every recorded span). Takes the drain mutex.
  void clear();

  /// Spans lost to ring wrap since construction (also mirrored into the
  /// process-wide `trace.spans_dropped` counter).
  std::uint64_t dropped() const { return ring_.dropped(); }

  std::size_t capacity() const { return ring_.capacity(); }

  /// One span marshalled into ring words (trace.cpp's RawSpan).
  static constexpr std::size_t kSpanWords = 13;

 private:
  // Drains take trace.buffer (a leaf rank; see annotated.h).
  SeqlockRing<kSpanWords> ring_;
};

// ---- instrumentation-site helpers ----------------------------------------
// These are the only way production code records spans (lint-gated): each
// writes into SpanBuffer::instance() through an internal static reference.

/// Process-buffer drains for harvest/report paths. These exist so the lint
/// gate can stay absolute: SpanBuffer::instance() appears only in
/// trace.cpp, never at call sites.
std::vector<Span> snapshot_spans();
std::vector<Span> spans_for_trace(std::uint64_t hi, std::uint64_t lo);
std::vector<Span> spans_since(std::int64_t ns);
void clear_spans();
std::uint64_t spans_dropped();

/// Records a completed child span of `ctx` with a fresh span ID into the
/// process buffer; returns the new span's ID. An invalid `ctx` records an
/// unparented zero-trace-ID event — used where the context is not
/// recoverable from the frame (ND dedup/resync drop the frame unseen).
std::uint64_t record_child(const TraceContext& ctx, std::string_view layer,
                           std::string_view op, std::string_view node,
                           std::int64_t start_ns, std::int64_t end_ns,
                           std::uint32_t flags = 0);

/// Records an instantaneous child event (start == end == now).
std::uint64_t record_event(const TraceContext& ctx, std::string_view layer,
                           std::string_view op, std::string_view node,
                           std::uint32_t flags = 0);

/// Opens a root span at ALI entry: if tracing is enabled, no context is
/// already installed (nested ALI calls join the enclosing root), and the
/// sampler picks this call, generates a fresh root context and installs it
/// for the scope. Records the root span on destruction.
class RootSpan {
 public:
  RootSpan(std::string_view layer, std::string_view op, std::string_view node);
  ~RootSpan();
  RootSpan(const RootSpan&) = delete;
  RootSpan& operator=(const RootSpan&) = delete;

  /// The installed context (invalid when this call was not sampled).
  const TraceContext& context() const { return ctx_; }

 private:
  TraceContext ctx_;  // valid only when this RootSpan opened a new root
  TraceContext prev_;
  std::int64_t start_ns_ = 0;
  std::string_view layer_;
  std::string_view op_;
  std::string_view node_;
};

/// Times a scope into a child span of the current thread-local context.
/// Inactive (zero-cost beyond one branch) when tracing is off or no
/// context is installed.
class ScopedSpan {
 public:
  ScopedSpan(std::string_view layer, std::string_view op,
             std::string_view node, std::uint32_t flags = 0);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  TraceContext ctx_;
  std::int64_t start_ns_ = 0;
  std::uint32_t flags_;
  std::string_view layer_;
  std::string_view op_;
  std::string_view node_;
};

}  // namespace ntcs::trace
