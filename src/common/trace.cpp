#include "common/trace.h"

#include <chrono>
#include <cstring>
#include <type_traits>

#include "common/metrics.h"
#include "common/rng.h"

namespace ntcs::trace {

namespace detail {
ntcs::Atomic<std::uint32_t> g_mode{static_cast<std::uint32_t>(SampleMode::off)};
}  // namespace detail

namespace {

// sync: sampling divisor, relaxed — paired with g_mode; a briefly stale N
// only shifts which spans get sampled.
std::atomic<std::uint32_t> g_sample_n{1};

thread_local TraceContext t_current;

// The process buffer, resolved once per call site file — the only
// SpanBuffer::instance() touch outside tests (lint-gated).
SpanBuffer& process_buffer() {
  static SpanBuffer& b = SpanBuffer::instance();
  return b;
}

}  // namespace

void set_sampling(SampleMode mode, std::uint32_t n) {
  g_sample_n.store(n == 0 ? 1 : n, std::memory_order_relaxed);
  detail::g_mode.store(static_cast<std::uint32_t>(mode),
                       std::memory_order_relaxed);
}

SampleMode sampling_mode() {
  return static_cast<SampleMode>(
      detail::g_mode.load(std::memory_order_relaxed));
}

bool sample_this() {
  switch (sampling_mode()) {
    case SampleMode::off:
      return false;
    case SampleMode::always:
      return true;
    case SampleMode::one_in_n: {
      const std::uint32_t n = g_sample_n.load(std::memory_order_relaxed);
      if (n <= 1) return true;
      thread_local std::uint32_t tick = 0;
      return tick++ % n == 0;
    }
  }
  return false;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t next_id() {
  // Per-thread deterministic stream: no global state, reproducible stream
  // *structure* for a given thread-creation order (rng.h's contract).
  thread_local Rng rng = [] {
    // sync: thread-ordinal allocator, relaxed fetch_add is the whole
    // contract.
    static std::atomic<std::uint64_t> ordinal{0};
    return Rng(seed_from("trace.ids",
                         ordinal.fetch_add(1, std::memory_order_relaxed)));
  }();
  std::uint64_t v = 0;
  do {
    v = rng.next();
  } while (v == 0);
  return v;
}

TraceContext make_root() {
  TraceContext ctx;
  ctx.hi = next_id();
  ctx.lo = next_id();
  ctx.span = next_id();
  return ctx;
}

TraceContext current() { return t_current; }

ContextScope::ContextScope(const TraceContext& ctx) : prev_(t_current) {
  t_current = ctx;
}

ContextScope::~ContextScope() { t_current = prev_; }

// ---- the span buffer ------------------------------------------------------

namespace {

// The fixed-width marshalled form of one span. Must stay a multiple of 8
// bytes with no interior padding holes that memcpy would leave undefined
// (the char arrays absorb the tail after `flags`).
struct RawSpan {
  std::uint64_t trace_hi;
  std::uint64_t trace_lo;
  std::uint64_t span_id;
  std::uint64_t parent_id;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::uint32_t flags;
  char layer[12];
  char op[20];
  char node[20];
};

static_assert(sizeof(RawSpan) ==
                  SpanBuffer::kSpanWords * sizeof(std::uint64_t),
              "no interior padding expected");
static_assert(std::is_trivially_copyable_v<RawSpan>);

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

}  // namespace

SpanBuffer::SpanBuffer(std::size_t capacity)
    : ring_(capacity, ntcs::lockrank::kTraceBuffer, "trace.buffer") {}

SpanBuffer::~SpanBuffer() = default;

SpanBuffer& SpanBuffer::instance() {
  // Intentionally leaked, exactly like MetricsRegistry::instance():
  // detached module threads may record spans during static destruction.
  static SpanBuffer* buf = new SpanBuffer();
  return *buf;
}

void SpanBuffer::record(const TraceContext& ctx, std::uint64_t span_id,
                        std::uint64_t parent_id, std::int64_t start_ns,
                        std::int64_t end_ns, std::string_view layer,
                        std::string_view op, std::string_view node,
                        std::uint32_t flags) {
  RawSpan raw;
  raw.trace_hi = ctx.hi;
  raw.trace_lo = ctx.lo;
  raw.span_id = span_id;
  raw.parent_id = parent_id;
  raw.start_ns = start_ns;
  raw.end_ns = end_ns;
  raw.flags = flags;
  copy_bounded(raw.layer, sizeof(raw.layer), layer);
  copy_bounded(raw.op, sizeof(raw.op), op);
  copy_bounded(raw.node, sizeof(raw.node), node);
  const bool overwrote = ring_.push([&](std::uint64_t) {
    SeqlockRing<kSpanWords>::Record rec;
    std::memcpy(rec.data(), &raw, sizeof(raw));
    return rec;
  });
  if (overwrote) {
    // Overwrote a span nobody drained: the ring wrapped.
    static metrics::Counter& dropped = metrics::counter("trace.spans_dropped");
    dropped.inc();
  }
}

std::vector<Span> SpanBuffer::snapshot() const {
  return ring_.drain<Span>(
      [](const SeqlockRing<kSpanWords>::Record& rec) -> std::optional<Span> {
        RawSpan raw;
        std::memcpy(&raw, rec.data(), sizeof(raw));
        if (raw.span_id == 0) return std::nullopt;
        Span s;
        s.trace_hi = raw.trace_hi;
        s.trace_lo = raw.trace_lo;
        s.span_id = raw.span_id;
        s.parent_id = raw.parent_id;
        s.start_ns = raw.start_ns;
        s.end_ns = raw.end_ns;
        s.flags = raw.flags;
        s.layer = read_bounded(raw.layer, sizeof(raw.layer));
        s.op = read_bounded(raw.op, sizeof(raw.op));
        s.node = read_bounded(raw.node, sizeof(raw.node));
        return s;
      });
}

std::vector<Span> SpanBuffer::for_trace(std::uint64_t hi,
                                        std::uint64_t lo) const {
  std::vector<Span> out;
  for (auto& s : snapshot()) {
    if (s.trace_hi == hi && s.trace_lo == lo) out.push_back(std::move(s));
  }
  return out;
}

std::vector<Span> SpanBuffer::since(std::int64_t ns) const {
  std::vector<Span> out;
  for (auto& s : snapshot()) {
    if (s.start_ns >= ns) out.push_back(std::move(s));
  }
  return out;
}

void SpanBuffer::clear() { ring_.clear(); }

// ---- instrumentation-site helpers ----------------------------------------

std::vector<Span> snapshot_spans() { return process_buffer().snapshot(); }

std::vector<Span> spans_for_trace(std::uint64_t hi, std::uint64_t lo) {
  return process_buffer().for_trace(hi, lo);
}

std::vector<Span> spans_since(std::int64_t ns) {
  return process_buffer().since(ns);
}

void clear_spans() { process_buffer().clear(); }

std::uint64_t spans_dropped() { return process_buffer().dropped(); }

std::uint64_t record_child(const TraceContext& ctx, std::string_view layer,
                           std::string_view op, std::string_view node,
                           std::int64_t start_ns, std::int64_t end_ns,
                           std::uint32_t flags) {
  const std::uint64_t id = next_id();
  process_buffer().record(ctx, id, ctx.valid() ? ctx.span : 0, start_ns,
                          end_ns, layer, op, node, flags);
  return id;
}

std::uint64_t record_event(const TraceContext& ctx, std::string_view layer,
                           std::string_view op, std::string_view node,
                           std::uint32_t flags) {
  const std::int64_t now = now_ns();
  return record_child(ctx, layer, op, node, now, now, flags);
}

RootSpan::RootSpan(std::string_view layer, std::string_view op,
                   std::string_view node)
    : layer_(layer), op_(op), node_(node) {
  if (!enabled()) return;
  if (t_current.valid()) return;  // nested ALI call joins the enclosing root
  if (!sample_this()) return;
  ctx_ = make_root();
  prev_ = t_current;
  t_current = ctx_;
  start_ns_ = now_ns();
}

RootSpan::~RootSpan() {
  if (!ctx_.valid()) return;
  t_current = prev_;
  process_buffer().record(ctx_, ctx_.span, 0, start_ns_, now_ns(), layer_,
                          op_, node_, 0);
}

ScopedSpan::ScopedSpan(std::string_view layer, std::string_view op,
                       std::string_view node, std::uint32_t flags)
    : flags_(flags), layer_(layer), op_(op), node_(node) {
  if (!enabled()) return;
  ctx_ = t_current;
  if (!ctx_.valid()) return;
  start_ns_ = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!ctx_.valid()) return;
  record_child(ctx_, layer_, op_, node_, start_ns_, now_ns(), flags_);
}

}  // namespace ntcs::trace
