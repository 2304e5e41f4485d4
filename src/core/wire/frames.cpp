#include "core/wire/frames.h"

#include <algorithm>
#include <cassert>

#include "convert/mode.h"
#include "convert/shift.h"

namespace ntcs::core::wire {

using convert::ShiftReader;
using convert::ShiftWriter;

namespace {

constexpr std::uint32_t kFragMoreBit = 1u << 31;
constexpr std::uint32_t kFragFirstBit = 1u << 23;
/// Cap on how much a first frame's announced total may pre-reserve: a
/// corrupted total-length field must not allocate the machine away. Larger
/// (legitimate) messages still reassemble; the buffer just grows normally.
constexpr std::uint32_t kMaxReserve = 4u << 20;

void put_string(ShiftWriter& w, std::string_view s) {
  w.put_u32(static_cast<std::uint32_t>(s.size()));
  w.put_raw(s);
}

ntcs::Result<std::string> get_string(ShiftReader& r) {
  auto len = r.get_u32();
  if (!len) return len.error();
  return r.get_raw_string(len.value());
}

/// Common prologue of every ND message; `body_hint` sizes the buffer for
/// what the caller appends next.
ntcs::Bytes nd_prologue(NdKind kind, std::size_t body_hint = 0) {
  ntcs::Bytes out;
  out.reserve(kNdPrologueSize + body_hint);
  ShiftWriter w(out);
  w.put_u32(kMagic);
  w.put_u32(kVersion);
  w.put_u32(static_cast<std::uint32_t>(kind));
  return out;
}

// Shift mode by hand (MSB first) at fixed offsets, matching ShiftWriter's
// and ShiftReader's stream layout: the in-place encoders and the view
// decoders.
void put_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

void put_be64(std::uint8_t* p, std::uint64_t v) {
  put_be32(p, static_cast<std::uint32_t>(v >> 32));
  put_be32(p + 4, static_cast<std::uint32_t>(v));
}

std::uint32_t get_be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

std::uint64_t get_be64(const std::uint8_t* p) {
  return (std::uint64_t{get_be32(p)} << 32) | get_be32(p + 4);
}

ntcs::Error underrun() {
  return ntcs::Error(ntcs::Errc::bad_message, "shift stream underrun");
}

}  // namespace

// ---------------------------------------------------------------- fragments

std::uint32_t make_frag_word(bool more, std::uint32_t chunk_len,
                             std::uint32_t seq, bool first) {
  return (more ? kFragMoreBit : 0u) | ((seq & kFragSeqMask) << 24) |
         (first ? kFragFirstBit : 0u) | (chunk_len & kFragLenMask);
}

bool frag_more(std::uint32_t word) { return (word & kFragMoreBit) != 0; }

bool frag_first(std::uint32_t word) { return (word & kFragFirstBit) != 0; }

std::uint32_t frag_len(std::uint32_t word) { return word & kFragLenMask; }

std::uint32_t frag_seq(std::uint32_t word) { return (word >> 24) & kFragSeqMask; }

std::vector<ntcs::Bytes> fragment(ntcs::BytesView msg, std::size_t mtu,
                                  std::uint32_t& seq) {
  std::vector<ntcs::Bytes> frames;
  const auto total = static_cast<std::uint32_t>(msg.size());
  std::size_t off = 0;
  bool first = true;
  do {
    const std::size_t hdr = first ? kFragHeaderMax : kFragHeaderSize;
    const std::size_t n =
        std::min(msg.size() - off, mtu > hdr ? mtu - hdr : std::size_t{1});
    ntcs::Bytes frame;
    frame.reserve(hdr + n);
    ShiftWriter w(frame);
    w.put_u32(make_frag_word(/*more=*/off + n < msg.size(),
                             static_cast<std::uint32_t>(n), seq, first));
    if (first) w.put_u32(total);
    w.put_raw(msg.subspan(off, n));
    seq = (seq + 1) & kFragSeqMask;
    frames.push_back(std::move(frame));
    off += n;
    first = false;
  } while (off < msg.size());
  return frames;
}

std::vector<ntcs::Bytes> fragment(ntcs::BytesView msg, std::size_t mtu) {
  std::uint32_t seq = 0;
  return fragment(msg, mtu, seq);
}

ntcs::Result<Reassembler::FeedResult> Reassembler::feed(ntcs::BytesView frame) {
  return feed_impl(frame, /*in_place=*/false);
}

ntcs::Result<Reassembler::FeedResult> Reassembler::feed_in_place(
    ntcs::BytesView frame) {
  return feed_impl(frame, /*in_place=*/true);
}

ntcs::Result<Reassembler::FeedResult> Reassembler::feed_impl(
    ntcs::BytesView frame, bool in_place) {
  ShiftReader r(frame);
  auto word = r.get_u32();
  if (!word) return word.error();
  const bool first = frag_first(word.value());
  std::uint32_t total = 0;
  if (first) {
    auto t = r.get_u32();
    if (!t) return t.error();
    total = t.value();
  }
  const std::uint32_t len = frag_len(word.value());
  if (r.remaining() != len) {
    return ntcs::Error(ntcs::Errc::bad_message,
                       "fragment length mismatches frame size");
  }
  FeedResult res;
  const std::uint32_t seq = frag_seq(word.value());
  // Wrap-aware forward distance from the last accepted frame. 1 is the
  // in-order successor; 0 a duplicate; just short of a full wrap is a late
  // straggler from behind (overtaken on the wire — reordering only shifts
  // frames by a handful of slots, so the stale zone is kept narrow: a
  // large "gap" after a loss burst must not read as staleness).
  const std::uint32_t dist = (seq - last_seq_) & kFragSeqMask;
  if (dist == 0 || dist > kFragSeqMask - kFragStaleWindow) {
    res.dropped = true;
    return res;
  }
  if (dist != 1) {
    // Frames went missing (lost, or overtaken and due to arrive stale):
    // whatever message they belonged to is unrecoverable. Resynchronise.
    acc_.clear();
    have_head_ = false;
    res.resynced = true;
  }
  last_seq_ = seq;
  if (first) {
    if (have_head_ || !acc_.empty()) {
      // The sender started a new message while we held a partial one —
      // its tail frames were lost without leaving a sequence gap we could
      // see (e.g. lost then resent range). The partial message is gone.
      acc_.clear();
      res.resynced = true;
    }
    if (in_place && !frag_more(word.value())) {
      // The whole message is this one frame: leave it where it lies.
      have_head_ = false;
      if (len != total) {
        // A corrupted total-length field (see the end-of-message check).
        res.resynced = true;
        return res;
      }
      res.complete = true;
      res.in_frame = true;
      return res;
    }
    have_head_ = true;
    expect_total_ = total;
    // The whole message's storage, reserved once; every chunk after this
    // appends in place.
    acc_.reserve(total < kMaxReserve ? total : kMaxReserve);
  } else if (!have_head_) {
    // Continuation of a message whose first frame we never accepted (it
    // was lost ahead of the resync point). The frame is sequence-valid —
    // consume its number — but its bytes belong to nothing.
    res.orphan = true;
    return res;
  }
  ntcs::append(acc_, r.rest());
  if (!frag_more(word.value())) {
    if (acc_.size() != expect_total_) {
      // Header corruption slipped past the length checks (a flipped bit
      // in a chunk-length or total-length field): the message cannot be
      // trusted. Drop it and restart cleanly at the next first frame.
      acc_.clear();
      have_head_ = false;
      res.resynced = true;
      return res;
    }
    res.complete = true;
  }
  return res;
}

ntcs::Bytes Reassembler::take() {
  ntcs::Bytes out;
  out.swap(acc_);
  have_head_ = false;
  expect_total_ = 0;
  return out;
}

// ---------------------------------------------------------------- ND layer

ntcs::Bytes encode_nd_open(const NdOpen& m) {
  ntcs::Bytes out = nd_prologue(NdKind::open, 16 + m.src_phys.size());
  ShiftWriter w(out);
  w.put_u64(m.src_uadd.raw());
  w.put_u32(m.src_arch);
  put_string(w, m.src_phys);
  return out;
}

ntcs::Bytes encode_nd_open_ack(const NdOpenAck& m) {
  ntcs::Bytes out = nd_prologue(NdKind::open_ack, 12);
  ShiftWriter w(out);
  w.put_u64(m.uadd.raw());
  w.put_u32(m.arch);
  return out;
}

ntcs::Bytes encode_nd_payload(ntcs::BytesView ip_envelope) {
  ntcs::Bytes out = nd_prologue(NdKind::payload, ip_envelope.size());
  ntcs::append(out, ip_envelope);
  return out;
}

ntcs::Result<NdMessage> decode_nd(ntcs::BytesView msg) {
  ShiftReader r(msg);
  auto magic = r.get_u32();
  if (!magic) return magic.error();
  if (magic.value() != kMagic) {
    return ntcs::Error(ntcs::Errc::bad_message, "bad magic");
  }
  auto version = r.get_u32();
  if (!version) return version.error();
  if (version.value() != kVersion) {
    return ntcs::Error(ntcs::Errc::bad_message, "protocol version mismatch");
  }
  auto kind = r.get_u32();
  if (!kind) return kind.error();

  NdMessage out;
  switch (static_cast<NdKind>(kind.value())) {
    case NdKind::open: {
      out.kind = NdKind::open;
      auto uadd = r.get_u64();
      if (!uadd) return uadd.error();
      out.open.src_uadd = UAdd::from_raw(uadd.value());
      auto arch = r.get_u32();
      if (!arch) return arch.error();
      out.open.src_arch = arch.value();
      auto phys = get_string(r);
      if (!phys) return phys.error();
      out.open.src_phys = std::move(phys.value());
      return out;
    }
    case NdKind::open_ack: {
      out.kind = NdKind::open_ack;
      auto uadd = r.get_u64();
      if (!uadd) return uadd.error();
      out.ack.uadd = UAdd::from_raw(uadd.value());
      auto arch = r.get_u32();
      if (!arch) return arch.error();
      out.ack.arch = arch.value();
      return out;
    }
    case NdKind::payload: {
      out.kind = NdKind::payload;
      out.body = ntcs::Bytes(r.rest().begin(), r.rest().end());
      return out;
    }
    default:
      return ntcs::Error(ntcs::Errc::bad_message, "unknown ND message kind");
  }
}

// ---------------------------------------------------------------- IP layer

namespace {

ntcs::Bytes ip_prologue(IpKind kind, std::uint64_t ivc,
                        std::size_t body_hint = 0) {
  ntcs::Bytes out;
  out.reserve(kIpPrologueSize + body_hint);
  ShiftWriter w(out);
  w.put_u32(static_cast<std::uint32_t>(kind));
  w.put_u64(ivc);
  return out;
}

}  // namespace

ntcs::Bytes encode_ip_data(std::uint64_t ivc, ntcs::BytesView lcm_msg) {
  ntcs::Bytes out = ip_prologue(IpKind::data, ivc, lcm_msg.size());
  ntcs::append(out, lcm_msg);
  return out;
}

ntcs::Bytes encode_ip_extend(std::uint64_t ivc, const ExtendBody& b) {
  std::size_t hint = 12;
  for (const RouteHop& hop : b.route) {
    hint += 8 + hop.net.size() + hop.phys.size();
  }
  ntcs::Bytes out = ip_prologue(IpKind::extend, ivc, hint);
  ShiftWriter w(out);
  w.put_u64(b.final_uadd.raw());
  w.put_u32(static_cast<std::uint32_t>(b.route.size()));
  for (const RouteHop& hop : b.route) {
    put_string(w, hop.net);
    put_string(w, hop.phys);
  }
  return out;
}

ntcs::Bytes encode_ip_extend_ok(std::uint64_t ivc) {
  return ip_prologue(IpKind::extend_ok, ivc);
}

ntcs::Bytes encode_ip_extend_fail(std::uint64_t ivc, std::uint32_t errc,
                                  const std::string& text) {
  ntcs::Bytes out = ip_prologue(IpKind::extend_fail, ivc, 8 + text.size());
  ShiftWriter w(out);
  w.put_u32(errc);
  put_string(w, text);
  return out;
}

ntcs::Bytes encode_ip_teardown(std::uint64_t ivc) {
  return ip_prologue(IpKind::teardown, ivc);
}

ntcs::Result<IpEnvelope> decode_ip(ntcs::BytesView envelope) {
  ShiftReader r(envelope);
  auto kind = r.get_u32();
  if (!kind) return kind.error();
  auto ivc = r.get_u64();
  if (!ivc) return ivc.error();

  IpEnvelope out;
  out.ivc = ivc.value();
  switch (static_cast<IpKind>(kind.value())) {
    case IpKind::data:
      out.kind = IpKind::data;
      out.body = ntcs::Bytes(r.rest().begin(), r.rest().end());
      return out;
    case IpKind::extend: {
      out.kind = IpKind::extend;
      auto final_uadd = r.get_u64();
      if (!final_uadd) return final_uadd.error();
      out.extend.final_uadd = UAdd::from_raw(final_uadd.value());
      auto count = r.get_u32();
      if (!count) return count.error();
      if (count.value() > 64) {
        return ntcs::Error(ntcs::Errc::bad_message, "absurd route length");
      }
      for (std::uint32_t i = 0; i < count.value(); ++i) {
        RouteHop hop;
        auto net = get_string(r);
        if (!net) return net.error();
        hop.net = std::move(net.value());
        auto phys = get_string(r);
        if (!phys) return phys.error();
        hop.phys = std::move(phys.value());
        out.extend.route.push_back(std::move(hop));
      }
      return out;
    }
    case IpKind::extend_ok:
      out.kind = IpKind::extend_ok;
      return out;
    case IpKind::extend_fail: {
      out.kind = IpKind::extend_fail;
      auto errc = r.get_u32();
      if (!errc) return errc.error();
      out.errc = errc.value();
      auto text = get_string(r);
      if (!text) return text.error();
      out.text = std::move(text.value());
      return out;
    }
    case IpKind::teardown:
      out.kind = IpKind::teardown;
      return out;
    default:
      return ntcs::Error(ntcs::Errc::bad_message, "unknown IP envelope kind");
  }
}

// ---------------------------------------------------------------- LCM layer

ntcs::Bytes encode_lcm(const LcmHeader& h, ntcs::BytesView payload) {
  // Every NTCS header travels shift-encoded (§5.2); count it so the
  // convert.mode.* breakdown covers all three modes.
  convert::note_mode(convert::XferMode::shift);
  ntcs::Bytes out;
  out.reserve(kLcmHeaderMax + payload.size());
  ShiftWriter w(out);
  w.put_u32(static_cast<std::uint32_t>(h.kind));
  w.put_u32(h.flags);
  w.put_u64(h.src.raw());
  w.put_u64(h.dst.raw());
  w.put_u32(h.req_id);
  w.put_u32(h.mode);
  w.put_u32(h.src_arch);
  if ((h.flags & kLcmFlagTraced) != 0) {
    w.put_u64(h.trace_hi);
    w.put_u64(h.trace_lo);
    w.put_u64(h.trace_parent);
  }
  w.put_raw(payload);
  return out;
}

ntcs::Result<LcmMessage> decode_lcm(ntcs::BytesView msg) {
  ShiftReader r(msg);
  LcmMessage out;
  auto kind = r.get_u32();
  if (!kind) return kind.error();
  if (kind.value() < 1 || kind.value() > 4) {
    return ntcs::Error(ntcs::Errc::bad_message, "unknown LCM message kind");
  }
  out.header.kind = static_cast<LcmKind>(kind.value());
  auto flags = r.get_u32();
  if (!flags) return flags.error();
  out.header.flags = flags.value();
  auto src = r.get_u64();
  if (!src) return src.error();
  out.header.src = UAdd::from_raw(src.value());
  auto dst = r.get_u64();
  if (!dst) return dst.error();
  out.header.dst = UAdd::from_raw(dst.value());
  auto req = r.get_u32();
  if (!req) return req.error();
  out.header.req_id = req.value();
  auto mode = r.get_u32();
  if (!mode) return mode.error();
  out.header.mode = mode.value();
  auto arch = r.get_u32();
  if (!arch) return arch.error();
  out.header.src_arch = arch.value();
  if ((out.header.flags & kLcmFlagTraced) != 0) {
    auto hi = r.get_u64();
    if (!hi) return hi.error();
    out.header.trace_hi = hi.value();
    auto lo = r.get_u64();
    if (!lo) return lo.error();
    out.header.trace_lo = lo.value();
    auto parent = r.get_u64();
    if (!parent) return parent.error();
    out.header.trace_parent = parent.value();
  }
  out.payload = ntcs::Bytes(r.rest().begin(), r.rest().end());
  return out;
}

std::optional<LcmTraceWords> peek_lcm_trace(ntcs::BytesView lcm_msg) {
  // Fixed shift-mode layout: kind(4) flags(4) src(8) dst(8) req_id(4)
  // mode(4) src_arch(4) = 36 bytes, then the three trace words.
  constexpr std::size_t kFlagsOff = 4;
  constexpr std::size_t kTraceOff = 36;
  if (lcm_msg.size() < kTraceOff + 24) return std::nullopt;
  ShiftReader fr(lcm_msg.subspan(kFlagsOff));
  auto flags = fr.get_u32();
  if (!flags || (flags.value() & kLcmFlagTraced) == 0) return std::nullopt;
  ShiftReader tr(lcm_msg.subspan(kTraceOff));
  LcmTraceWords w;
  auto hi = tr.get_u64();
  auto lo = tr.get_u64();
  auto parent = tr.get_u64();
  if (!hi || !lo || !parent) return std::nullopt;
  w.hi = hi.value();
  w.lo = lo.value();
  w.parent = parent.value();
  if ((w.hi | w.lo) == 0) return std::nullopt;
  return w;
}

std::optional<std::uint32_t> peek_lcm_flags(ntcs::BytesView lcm_msg) {
  // Fixed shift-mode layout: kind(4), then the flags word. 36 bytes is the
  // smallest (untraced) complete header; anything shorter is not LCM.
  constexpr std::size_t kFlagsOff = 4;
  constexpr std::size_t kHeaderMin = 36;
  if (lcm_msg.size() < kHeaderMin) return std::nullopt;
  ShiftReader fr(lcm_msg.subspan(kFlagsOff));
  auto flags = fr.get_u32();
  if (!flags) return std::nullopt;
  return flags.value();
}

std::optional<LcmTraceWords> peek_nd_trace(ntcs::BytesView nd_msg) {
  // ND prologue: magic(4) version(4) kind(4); IP data envelope: kind(4)
  // ivc(8); the LCM message starts at byte 24.
  constexpr std::size_t kNdPrologue = 12;
  constexpr std::size_t kIpPrologue = 12;
  if (nd_msg.size() < kNdPrologue + kIpPrologue) return std::nullopt;
  ShiftReader nr(nd_msg);
  auto magic = nr.get_u32();
  auto version = nr.get_u32();
  auto nd_kind = nr.get_u32();
  if (!magic || magic.value() != kMagic) return std::nullopt;
  if (!version || version.value() != kVersion) return std::nullopt;
  if (!nd_kind ||
      nd_kind.value() != static_cast<std::uint32_t>(NdKind::payload)) {
    return std::nullopt;
  }
  auto ip_kind = nr.get_u32();
  if (!ip_kind || ip_kind.value() != static_cast<std::uint32_t>(IpKind::data)) {
    return std::nullopt;
  }
  if (!nr.get_u64()) return std::nullopt;  // ivc
  return peek_lcm_trace(nr.rest());
}

// ---------------------------------------------------------------- gather send

std::uint8_t* HeaderBuf::prepend(std::size_t n) {
  assert(n <= start_ && "HeaderBuf holds one LCM, IP and ND header");
  start_ -= n;
  return buf_ + start_;
}

void HeaderBuf::push_lcm(const LcmHeader& h) {
  // Every NTCS header travels shift-encoded (§5.2); counted as encode_lcm
  // counts it.
  convert::note_mode(convert::XferMode::shift);
  const bool traced = (h.flags & kLcmFlagTraced) != 0;
  std::uint8_t* p = prepend(traced ? kLcmHeaderMax : kLcmHeaderSize);
  put_be32(p, static_cast<std::uint32_t>(h.kind));
  put_be32(p + 4, h.flags);
  put_be64(p + 8, h.src.raw());
  put_be64(p + 16, h.dst.raw());
  put_be32(p + 24, h.req_id);
  put_be32(p + 28, h.mode);
  put_be32(p + 32, h.src_arch);
  if (traced) {
    put_be64(p + 36, h.trace_hi);
    put_be64(p + 44, h.trace_lo);
    put_be64(p + 52, h.trace_parent);
  }
}

void HeaderBuf::push_ip_data(std::uint64_t ivc) {
  std::uint8_t* p = prepend(kIpPrologueSize);
  put_be32(p, static_cast<std::uint32_t>(IpKind::data));
  put_be64(p + 4, ivc);
}

void HeaderBuf::push_nd_payload() {
  std::uint8_t* p = prepend(kNdPrologueSize);
  put_be32(p, kMagic);
  put_be32(p + 4, kVersion);
  put_be32(p + 8, static_cast<std::uint32_t>(NdKind::payload));
}

FrameCursor::FrameCursor(ntcs::BytesView head, ntcs::BytesView body,
                         std::size_t mtu, std::uint32_t& seq)
    : head_(head), body_(body), mtu_(mtu), seq_(seq) {
  assert(head.size() <= HeaderBuf::kCapacity);
}

bool FrameCursor::next(Frame& f) {
  const std::size_t total = head_.size() + body_.size();
  if (!first_ && off_ >= total) return false;  // an empty message is 1 frame
  const std::size_t hdr = first_ ? kFragHeaderMax : kFragHeaderSize;
  const std::size_t n =
      std::min(total - off_, mtu_ > hdr ? mtu_ - hdr : std::size_t{1});
  const std::size_t end = off_ + n;
  put_be32(f.head, make_frag_word(/*more=*/end < total,
                                  static_cast<std::uint32_t>(n), seq_, first_));
  if (first_) put_be32(f.head + 4, static_cast<std::uint32_t>(total));
  f.head_len = hdr;
  seq_ = (seq_ + 1) & kFragSeqMask;
  // Message-header bytes in this frame's range join the frame header; the
  // rest of the range is a view of the payload.
  if (off_ < head_.size()) {
    const std::size_t k = std::min(end, head_.size()) - off_;
    std::copy_n(head_.data() + off_, k, f.head + f.head_len);
    f.head_len += k;
  }
  const std::size_t b0 = std::max(off_, head_.size()) - head_.size();
  const std::size_t b1 = end > head_.size() ? end - head_.size() : b0;
  f.body = body_.subspan(b0, b1 - b0);
  off_ = end;
  first_ = false;
  return true;
}

// ---------------------------------------------------------------- view decode

ntcs::Result<NdView> decode_nd_view(ntcs::BytesView msg) {
  if (msg.size() < kNdPrologueSize) return underrun();
  if (get_be32(msg.data()) != kMagic) {
    return ntcs::Error(ntcs::Errc::bad_message, "bad magic");
  }
  if (get_be32(msg.data() + 4) != kVersion) {
    return ntcs::Error(ntcs::Errc::bad_message, "protocol version mismatch");
  }
  const std::uint32_t kind = get_be32(msg.data() + 8);
  if (kind < static_cast<std::uint32_t>(NdKind::open) ||
      kind > static_cast<std::uint32_t>(NdKind::payload)) {
    return ntcs::Error(ntcs::Errc::bad_message, "unknown ND message kind");
  }
  return NdView{static_cast<NdKind>(kind), msg.subspan(kNdPrologueSize)};
}

ntcs::Result<IpView> decode_ip_view(ntcs::BytesView envelope) {
  if (envelope.size() < kIpPrologueSize) return underrun();
  const std::uint32_t kind = get_be32(envelope.data());
  if (kind < static_cast<std::uint32_t>(IpKind::data) ||
      kind > static_cast<std::uint32_t>(IpKind::teardown)) {
    return ntcs::Error(ntcs::Errc::bad_message, "unknown IP envelope kind");
  }
  return IpView{static_cast<IpKind>(kind), get_be64(envelope.data() + 4),
                envelope.subspan(kIpPrologueSize)};
}

ntcs::Result<LcmView> decode_lcm_view(ntcs::BytesView msg) {
  if (msg.size() < kLcmHeaderSize) return underrun();
  const std::uint8_t* p = msg.data();
  const std::uint32_t kind = get_be32(p);
  if (kind < static_cast<std::uint32_t>(LcmKind::data) ||
      kind > static_cast<std::uint32_t>(LcmKind::dgram)) {
    return ntcs::Error(ntcs::Errc::bad_message, "unknown LCM message kind");
  }
  LcmView out;
  LcmHeader& h = out.header;
  h.kind = static_cast<LcmKind>(kind);
  h.flags = get_be32(p + 4);
  h.src = UAdd::from_raw(get_be64(p + 8));
  h.dst = UAdd::from_raw(get_be64(p + 16));
  h.req_id = get_be32(p + 24);
  h.mode = get_be32(p + 28);
  h.src_arch = get_be32(p + 32);
  std::size_t size = kLcmHeaderSize;
  if ((h.flags & kLcmFlagTraced) != 0) {
    if (msg.size() < kLcmHeaderMax) return underrun();
    h.trace_hi = get_be64(p + 36);
    h.trace_lo = get_be64(p + 44);
    h.trace_parent = get_be64(p + 52);
    size = kLcmHeaderMax;
  }
  out.payload = msg.subspan(size);
  return out;
}

}  // namespace ntcs::core::wire
