// fuzz_lcm_header.cpp — LCM header decode plus the trace/flag peeks.
// The peeks are the gateway fast path: they read trace words and flags
// at fixed offsets without a full decode, so they must agree with
// decode_lcm on every input decode_lcm accepts, and must never read out
// of bounds on input it rejects; so must decode_lcm_view, the receive
// path's in-place decoder. Also drives the ND and IP envelope decoders,
// which share the ShiftReader plumbing.
#include <cstdint>

#include "core/wire/frames.h"

namespace wire = ntcs::core::wire;

namespace {

void require(bool cond) {
  if (!cond) __builtin_trap();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  ntcs::BytesView view(data, size);

  auto lcm = wire::decode_lcm(view);
  auto flags = wire::peek_lcm_flags(view);
  auto trace = wire::peek_lcm_trace(view);
  // The receive path's in-place decoder must accept exactly what the
  // reference accepts.
  auto lcm_view = wire::decode_lcm_view(view);
  require(lcm_view.ok() == lcm.ok());
  if (lcm.ok()) {
    const auto& h = lcm.value().header;
    const auto& hv = lcm_view.value().header;
    require(hv.kind == h.kind && hv.flags == h.flags && hv.src == h.src &&
            hv.dst == h.dst && hv.req_id == h.req_id && hv.mode == h.mode &&
            hv.src_arch == h.src_arch && hv.trace_hi == h.trace_hi &&
            hv.trace_lo == h.trace_lo && hv.trace_parent == h.trace_parent);
    const ntcs::BytesView pv = lcm_view.value().payload;
    require(ntcs::Bytes(pv.begin(), pv.end()) == lcm.value().payload);
    // The flags peek must see exactly what the full decode sees.
    require(flags.has_value() && *flags == h.flags);
    // The trace peek treats a zero trace id as untraced; otherwise it
    // must reproduce the decoded words.
    const bool traced = (h.flags & wire::kLcmFlagTraced) != 0 &&
                        (h.trace_hi | h.trace_lo) != 0;
    require(trace.has_value() == traced);
    if (traced) {
      require(trace->hi == h.trace_hi && trace->lo == h.trace_lo &&
              trace->parent == h.trace_parent);
    }
    // Canonical re-encode must round-trip.
    ntcs::Bytes wire2 =
        wire::encode_lcm(h, ntcs::BytesView(lcm.value().payload));
    auto again = wire::decode_lcm(ntcs::BytesView(wire2));
    require(again.ok());
    require(again.value().header.kind == h.kind);
    require(again.value().header.flags == h.flags);
    require(again.value().header.src == h.src);
    require(again.value().header.dst == h.dst);
    require(again.value().header.req_id == h.req_id);
    require(again.value().payload == lcm.value().payload);
  }

  // The ND/IP decoders must be total on arbitrary bytes (no crash, no
  // over-read); nothing to cross-check unless they accept.
  auto nd = wire::decode_nd(view);
  (void)wire::peek_nd_trace(view);
  if (nd.ok() && nd.value().kind == wire::NdKind::payload) {
    // A payload body is an opaque IP envelope; decoding it further must
    // also be total.
    (void)wire::decode_ip(ntcs::BytesView(nd.value().body));
  }
  (void)wire::decode_ip(view);
  (void)wire::decode_nd_view(view);
  (void)wire::decode_ip_view(view);
  return 0;
}
