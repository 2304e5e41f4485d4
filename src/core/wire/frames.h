// frames.h — the NTCS internal wire protocol.
//
// Everything here is encoded in shift mode (paper §5.2): headers are
// structures of four-byte integers moved to/from the byte stream with
// shift/mask routines, so they mean the same thing on every machine
// representation. Variable-length fields (physical address blobs, route
// lists) are length-prefixed byte strings — characters are single bytes on
// every testbed machine, so no conversion is needed for them either.
//
// Nesting on a local virtual circuit (one IPCS frame stream):
//
//   IPCS frame   = [frag word][chunk]                      (ND fragmentation)
//   ND message   = [magic][version][nd kind][body]          (after reassembly)
//     nd open     : body = NdOpen       (channel-open UAdd/arch exchange §3.3)
//     nd open ack : body = NdOpenAck
//     nd payload  : body = IP envelope
//   IP envelope  = [ip kind][ivc id][body]
//     data        : body = LCM message (opaque to gateways)
//     extend      : body = ExtendBody  (chained-circuit establishment §4)
//     extend ok   : body = empty
//     extend fail : body = [errc][text]
//     teardown    : body = empty
//   LCM message  = [lcm kind][flags][src][dst][req id][mode][src arch][payload]
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/error.h"
#include "core/addr.h"

namespace ntcs::core::wire {

inline constexpr std::uint32_t kMagic = 0x4E544353;  // "NTCS"
inline constexpr std::uint32_t kVersion = 1;

// ---------------------------------------------------------------- fragments

/// Fragment word: bit 31 = more-fragments, bits 24..30 = a 7-bit frame
/// sequence number (mod 128, per circuit per direction), bit 23 =
/// first-fragment-of-message, bits 0..22 = chunk length. The sequence
/// number lets the receiver suppress duplicated frames and detect
/// overtaken/lost ones — the ND-Layer's end of hiding "IPCS error
/// conventions" when the substrate misbehaves. The first-fragment flag
/// marks where a message starts; the first frame additionally carries the
/// message's total length as a fourth header byte-quad so the reassembler
/// can reserve the whole buffer once and append chunks in place.
inline constexpr std::uint32_t kFragSeqMask = 0x7Fu;
inline constexpr std::uint32_t kFragLenMask = 0x007FFFFFu;
/// Frames up to this far *behind* the last accepted one are stale
/// stragglers (dropped); larger backward distances read as forward gaps
/// (lost frames) instead. Reordering shifts frames by a few slots, loss
/// bursts can span dozens — hence a narrow stale zone.
inline constexpr std::uint32_t kFragStaleWindow = 16u;
std::uint32_t make_frag_word(bool more, std::uint32_t chunk_len,
                             std::uint32_t seq = 0, bool first = false);
bool frag_more(std::uint32_t word);
bool frag_first(std::uint32_t word);
std::uint32_t frag_len(std::uint32_t word);
std::uint32_t frag_seq(std::uint32_t word);

/// Frame header sizes: every frame starts with the fragment word; a
/// message's first frame adds the total-length word.
inline constexpr std::size_t kFragHeaderSize = 4;
inline constexpr std::size_t kFragHeaderMax = 8;

/// Split a message into MTU-sized IPCS frames, each a materialised
/// [frag word][total len, first frame only][chunk] buffer. The reference
/// fragmenter: the ND-Layer transmits through FrameCursor (below), which
/// must emit exactly these bytes. `seq` is the running per-circuit frame
/// counter; it is stamped into each frame and advanced past them.
std::vector<ntcs::Bytes> fragment(ntcs::BytesView msg, std::size_t mtu,
                                  std::uint32_t& seq);
/// Sequence-free convenience (tests, single-shot encodings): frames are
/// numbered from 0.
std::vector<ntcs::Bytes> fragment(ntcs::BytesView msg, std::size_t mtu);

/// Streaming reassembler for one virtual circuit. Frames normally arrive
/// in order; under fault injection they may be duplicated or overtaken,
/// and the sequence number sorts that out:
///   * a frame repeating the last sequence number is a duplicate — dropped;
///   * a frame a little behind (wrap-aware backward distance within
///     kFragStaleWindow) is stale — dropped;
///   * a small forward gap means frames were lost or overtaken — any
///     partial reassembly is discarded (that message is lost) and the
///     stream re-synchronises at the new frame.
class Reassembler {
 public:
  struct FeedResult {
    bool complete = false;  // this frame finished a message; call take()
    bool dropped = false;   // duplicate or stale frame, ignored
    bool resynced = false;  // forward gap: stream resynchronised
    bool orphan = false;    // continuation whose first frame was lost
    bool in_frame = false;  // feed_in_place: the message is in the frame
  };

  /// Feed one IPCS frame. Errors indicate a malformed frame (protocol
  /// violation); fault-induced anomalies come back in the FeedResult.
  ntcs::Result<FeedResult> feed(ntcs::BytesView frame);

  /// feed() for a caller that keeps the frame buffer: a message that fits
  /// in this one frame is not copied into the reassembly buffer. It is
  /// reported with `complete` and `in_frame` set, and its bytes are
  /// frame[kFragHeaderMax..]; take() is not called for it.
  ntcs::Result<FeedResult> feed_in_place(ntcs::BytesView frame);

  /// The completed message after feed() reported complete.
  ntcs::Bytes take();

  std::size_t pending_bytes() const { return acc_.size(); }

 private:
  ntcs::Result<FeedResult> feed_impl(ntcs::BytesView frame, bool in_place);

  ntcs::Bytes acc_;
  bool have_head_ = false;         // saw the current message's first frame
  std::uint32_t expect_total_ = 0; // its announced total length
  // Last accepted sequence number; initialised so the first frame (seq 0)
  // is in-order.
  std::uint32_t last_seq_ = kFragSeqMask;
};

// ---------------------------------------------------------------- ND layer

enum class NdKind : std::uint32_t {
  open = 1,      // first message on a new channel
  open_ack = 2,  // acceptor's answer
  payload = 3,   // everything else: an IP envelope
};

/// Channel-open exchange (§3.3): "information exchanged between modules
/// during the channel open protocol ... is then locally cached".
struct NdOpen {
  UAdd src_uadd;           // may be a TAdd during bootstrap (§3.4)
  std::uint32_t src_arch;  // convert::arch_wire_id
  std::string src_phys;    // so the acceptor can cache UAdd -> phys
};

struct NdOpenAck {
  UAdd uadd;  // acceptor's UAdd (or TAdd)
  std::uint32_t arch;
};

ntcs::Bytes encode_nd_open(const NdOpen& m);
ntcs::Bytes encode_nd_open_ack(const NdOpenAck& m);
ntcs::Bytes encode_nd_payload(ntcs::BytesView ip_envelope);

struct NdMessage {
  NdKind kind;
  NdOpen open;        // when kind == open
  NdOpenAck ack;      // when kind == open_ack
  ntcs::Bytes body;   // when kind == payload: the IP envelope
};

ntcs::Result<NdMessage> decode_nd(ntcs::BytesView msg);

// ---------------------------------------------------------------- IP layer

enum class IpKind : std::uint32_t {
  data = 1,
  extend = 2,
  extend_ok = 3,
  extend_fail = 4,
  teardown = 5,
};

/// One hop of a source-computed route: which network to continue on and the
/// physical address to connect to there. The last hop is the destination
/// module itself.
struct RouteHop {
  std::string net;
  std::string phys;
};

struct ExtendBody {
  UAdd final_uadd;
  std::vector<RouteHop> route;  // remaining hops, front is next
};

struct IpEnvelope {
  IpKind kind = IpKind::data;
  std::uint64_t ivc = 0;
  ExtendBody extend;       // kind == extend
  std::uint32_t errc = 0;  // kind == extend_fail
  std::string text;        // kind == extend_fail
  ntcs::Bytes body;        // kind == data: the LCM message
};

ntcs::Bytes encode_ip_data(std::uint64_t ivc, ntcs::BytesView lcm_msg);
ntcs::Bytes encode_ip_extend(std::uint64_t ivc, const ExtendBody& b);
ntcs::Bytes encode_ip_extend_ok(std::uint64_t ivc);
ntcs::Bytes encode_ip_extend_fail(std::uint64_t ivc, std::uint32_t errc,
                                  const std::string& text);
ntcs::Bytes encode_ip_teardown(std::uint64_t ivc);

ntcs::Result<IpEnvelope> decode_ip(ntcs::BytesView envelope);

// ---------------------------------------------------------------- LCM layer

enum class LcmKind : std::uint32_t {
  data = 1,     // one-way message on a conversation
  request = 2,  // synchronous send: expects a reply
  reply = 3,
  dgram = 4,    // connectionless protocol (best effort)
};

/// Flag bits in the LCM header flags word.
inline constexpr std::uint32_t kLcmFlagInternal = 1u << 0;  // NTCS/DRTS traffic
/// Header carries three optional trace words (trace ID hi/lo + parent span
/// ID) between `src_arch` and the payload. Version-tolerant: frames without
/// the bit decode exactly as before, and decoders that predate the bit skip
/// nothing (the words only exist when the bit is set).
inline constexpr std::uint32_t kLcmFlagTraced = 1u << 1;
/// Back-pressure signal (overload control): set on a `reply` frame to tell
/// the requester its request was *shed* at the receiver — no application
/// reply is coming. The sender's window logic pauses admission toward that
/// destination for a configured interval instead of retrying, and the
/// request completes with the retriable Errc::overloaded. A busy frame is
/// also marked kLcmFlagInternal (it is circuit bookkeeping, not data).
inline constexpr std::uint32_t kLcmFlagBusy = 1u << 2;

struct LcmHeader {
  LcmKind kind = LcmKind::data;
  std::uint32_t flags = 0;
  UAdd src;
  UAdd dst;
  std::uint32_t req_id = 0;
  std::uint32_t mode = 0;      // convert::xfer_mode_wire_id of the payload
  std::uint32_t src_arch = 0;  // convert::arch_wire_id
  // Distributed-trace context, meaningful only when kLcmFlagTraced is set:
  // 128-bit trace ID plus the sender-side parent span ID (trace.h).
  std::uint64_t trace_hi = 0;
  std::uint64_t trace_lo = 0;
  std::uint64_t trace_parent = 0;
};

ntcs::Bytes encode_lcm(const LcmHeader& h, ntcs::BytesView payload);

struct LcmMessage {
  LcmHeader header;
  ntcs::Bytes payload;
};

ntcs::Result<LcmMessage> decode_lcm(ntcs::BytesView msg);

/// The trace words of an LCM message, read without decoding the payload.
struct LcmTraceWords {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  std::uint64_t parent = 0;
};

/// Cheap fixed-offset peek at an LCM message's trace words; nullopt when
/// the frame is untraced (or too short to carry the header). Used by
/// forwarding/reassembly sites that must attribute a span to in-flight
/// traffic without paying a full decode.
std::optional<LcmTraceWords> peek_lcm_trace(ntcs::BytesView lcm_msg);

/// Cheap fixed-offset peek at an LCM message's flags word; nullopt when
/// the buffer is too short to hold an LCM header. Gateways use it on the
/// relay fast path to classify control-class (kLcmFlagInternal) frames —
/// which bypass per-peer fairness metering — without a full decode.
std::optional<std::uint32_t> peek_lcm_flags(ntcs::BytesView lcm_msg);

/// Same peek through an ND payload frame: ND prologue -> IP data envelope
/// -> LCM header. nullopt for non-payload ND kinds, non-data IP envelopes
/// and untraced messages.
std::optional<LcmTraceWords> peek_nd_trace(ntcs::BytesView nd_msg);

// ---------------------------------------------------------------- gather send

/// Fixed header sizes (shift mode: four-byte words, 64-bit values as two).
inline constexpr std::size_t kNdPrologueSize = 12;  // magic, version, kind
inline constexpr std::size_t kIpPrologueSize = 12;  // kind, ivc
inline constexpr std::size_t kLcmHeaderSize = 36;   // untraced LCM header
inline constexpr std::size_t kLcmHeaderMax = 60;    // plus three trace words

/// The nested headers of one outbound message, encoded in place in a fixed
/// buffer: each layer prepends its header in front of the ones above it
/// (LCM, then IP, then ND), so the bytes end up in wire order without a
/// heap allocation or a re-concatenation per layer. The payload never
/// enters this buffer; it travels beside it as a view down to the
/// substrate (FrameCursor), which gathers both into the frame.
class HeaderBuf {
 public:
  static constexpr std::size_t kCapacity =
      kNdPrologueSize + kIpPrologueSize + kLcmHeaderMax;

  void push_lcm(const LcmHeader& h);
  void push_ip_data(std::uint64_t ivc);
  void push_nd_payload();

  ntcs::BytesView view() const {
    return ntcs::BytesView(buf_ + start_, kCapacity - start_);
  }

 private:
  std::uint8_t* prepend(std::size_t n);

  std::uint8_t buf_[kCapacity];
  std::size_t start_ = kCapacity;
};

/// One outbound IPCS frame: a small header (fragment word, the total
/// length on a first frame, then whichever of the message's leading header
/// bytes fall in this frame) plus a view of the payload bytes that follow.
/// IpcsPort::send gathers the two.
struct Frame {
  std::uint8_t head[kFragHeaderMax + HeaderBuf::kCapacity];
  std::size_t head_len = 0;
  ntcs::BytesView body;

  ntcs::BytesView header() const { return ntcs::BytesView(head, head_len); }
};

/// Cuts a message given as `head ++ body` into MTU-sized frames without
/// materialising either: the zero-copy fragmentation path, byte-identical
/// to fragment() over the concatenation. `head` holds at most
/// HeaderBuf::kCapacity bytes; `seq` is the circuit's running frame
/// counter, stamped into each frame and advanced past them. Both views
/// must outlive the cursor.
class FrameCursor {
 public:
  FrameCursor(ntcs::BytesView head, ntcs::BytesView body, std::size_t mtu,
              std::uint32_t& seq);

  /// Fill `f` with the next frame; false once the message is exhausted.
  bool next(Frame& f);

 private:
  ntcs::BytesView head_;
  ntcs::BytesView body_;
  std::size_t mtu_;
  std::uint32_t& seq_;
  std::size_t off_ = 0;  // into head ++ body
  bool first_ = true;
};

// ---------------------------------------------------------------- view decode

// The receive path's decoders: fixed-offset reads over the one received
// buffer, returning views of what follows each header — no copies. On
// payload-carrying kinds (ND payload, IP data, every LCM message) they
// accept exactly what the reference decoders above accept, with the same
// fields and body bytes. On control kinds (ND open/ack, IP extend and
// extend-fail) they check only the prologue; callers parse the variable
// fields with the reference decoders.

struct NdView {
  NdKind kind = NdKind::payload;
  ntcs::BytesView body;  // everything after the ND prologue
};
ntcs::Result<NdView> decode_nd_view(ntcs::BytesView msg);

struct IpView {
  IpKind kind = IpKind::data;
  std::uint64_t ivc = 0;
  ntcs::BytesView body;  // everything after the IP prologue
};
ntcs::Result<IpView> decode_ip_view(ntcs::BytesView envelope);

struct LcmView {
  LcmHeader header;
  ntcs::BytesView payload;
};
ntcs::Result<LcmView> decode_lcm_view(ntcs::BytesView msg);

}  // namespace ntcs::core::wire
