// Unit tests for the NTCS wire protocol (S4): fragmentation, ND open
// exchange, IP envelopes, LCM headers — including malformed-input fuzzing —
// and the copy-once path's byte identity with the reference encoders and
// decoders.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/rng.h"
#include "convert/shift.h"
#include "core/wire/frames.h"

namespace ntcs::core::wire {
namespace {

TEST(Fragment, SmallMessageIsOneFrame) {
  Bytes msg = to_bytes("small");
  auto frames = fragment(msg, 1024);
  ASSERT_EQ(frames.size(), 1u);
  Reassembler r;
  auto done = r.feed(frames[0]);
  ASSERT_TRUE(done.ok());
  EXPECT_TRUE(done.value().complete);
  EXPECT_EQ(r.take(), msg);
}

TEST(Fragment, EmptyMessageStillFrames) {
  auto frames = fragment({}, 1024);
  ASSERT_EQ(frames.size(), 1u);
  Reassembler r;
  EXPECT_TRUE(r.feed(frames[0]).value().complete);
  EXPECT_TRUE(r.take().empty());
}

TEST(Fragment, ExactMtuBoundary) {
  constexpr std::size_t kMtu = 128;
  // A first frame carries an 8-byte header (frag word + total length).
  Bytes msg(kMtu - 8, 0xAA);  // exactly one chunk
  auto frames = fragment(msg, kMtu);
  EXPECT_EQ(frames.size(), 1u);
  Bytes msg2(kMtu - 8 + 1, 0xBB);  // one byte over
  EXPECT_EQ(fragment(msg2, kMtu).size(), 2u);
}

TEST(Fragment, LargeMessageRoundTrip) {
  Rng rng(5);
  Bytes msg(50000);
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next());
  auto frames = fragment(msg, 4096);
  EXPECT_GT(frames.size(), 10u);
  for (const auto& f : frames) EXPECT_LE(f.size(), 4096u);
  Reassembler r;
  for (std::size_t i = 0; i < frames.size(); ++i) {
    auto done = r.feed(frames[i]);
    ASSERT_TRUE(done.ok());
    EXPECT_EQ(done.value().complete, i + 1 == frames.size());
    EXPECT_FALSE(done.value().dropped);
  }
  EXPECT_EQ(r.take(), msg);
}

TEST(Fragment, LengthMismatchRejected) {
  Bytes frame;
  convert::ShiftWriter w(frame);
  w.put_u32(make_frag_word(false, 10));  // claims 10 bytes
  w.put_raw(std::string_view("abc"));    // carries 3
  Reassembler r;
  EXPECT_EQ(r.feed(frame).code(), Errc::bad_message);
}

TEST(Fragment, WordHelpers) {
  const auto w = make_frag_word(true, 12345);
  EXPECT_TRUE(frag_more(w));
  EXPECT_EQ(frag_len(w), 12345u);
  EXPECT_EQ(frag_seq(w), 0u);
  const auto w2 = make_frag_word(false, 0);
  EXPECT_FALSE(frag_more(w2));
  EXPECT_EQ(frag_len(w2), 0u);
  // The sequence field coexists with the flag and length bits and wraps
  // at 7 bits; the length field is 23 bits wide.
  const auto w3 = make_frag_word(true, kFragLenMask, 130);
  EXPECT_TRUE(frag_more(w3));
  EXPECT_EQ(frag_len(w3), kFragLenMask);
  EXPECT_EQ(frag_seq(w3), 130u & kFragSeqMask);
  EXPECT_FALSE(frag_first(w3));
  // The first-fragment flag is independent of the other fields.
  const auto w4 = make_frag_word(false, 7, 5, /*first=*/true);
  EXPECT_TRUE(frag_first(w4));
  EXPECT_FALSE(frag_more(w4));
  EXPECT_EQ(frag_len(w4), 7u);
  EXPECT_EQ(frag_seq(w4), 5u);
}

TEST(Fragment, SequenceNumbersRunAcrossMessages) {
  std::uint32_t seq = 126;  // about to wrap
  auto f1 = fragment(to_bytes("one"), 1024, seq);
  auto f2 = fragment(to_bytes("two"), 1024, seq);
  ASSERT_EQ(f1.size(), 1u);
  ASSERT_EQ(f2.size(), 1u);
  EXPECT_EQ(seq, 0u);  // 126 -> 127 -> wrap to 0
  Reassembler r;
  // Pre-position the receiver at seq 125 by feeding a synthetic stream.
  std::uint32_t warm = 0;
  Bytes msg = to_bytes("warm");
  for (int i = 0; i < 126; ++i) {
    auto f = fragment(msg, 1024, warm);
    ASSERT_TRUE(r.feed(f[0]).ok());
    r.take();
  }
  auto a = r.feed(f1[0]);
  ASSERT_TRUE(a.ok());
  EXPECT_TRUE(a.value().complete);
  EXPECT_FALSE(a.value().dropped);
  EXPECT_EQ(r.take(), to_bytes("one"));
  auto b = r.feed(f2[0]);  // crosses the 127 -> 0 wrap
  ASSERT_TRUE(b.ok());
  EXPECT_TRUE(b.value().complete);
  EXPECT_FALSE(b.value().dropped);
  EXPECT_EQ(r.take(), to_bytes("two"));
}

TEST(Fragment, DuplicateFrameIsDropped) {
  std::uint32_t seq = 0;
  auto frames = fragment(to_bytes("hello"), 1024, seq);
  ASSERT_EQ(frames.size(), 1u);
  Reassembler r;
  EXPECT_TRUE(r.feed(frames[0]).value().complete);
  EXPECT_EQ(r.take(), to_bytes("hello"));
  auto again = r.feed(frames[0]);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().dropped);
  EXPECT_FALSE(again.value().complete);
  EXPECT_EQ(r.pending_bytes(), 0u);
}

TEST(Fragment, StaleFrameFromBehindIsDropped) {
  std::uint32_t seq = 0;
  Bytes msg = to_bytes("x");
  auto f0 = fragment(msg, 1024, seq);
  auto f1 = fragment(msg, 1024, seq);
  auto f2 = fragment(msg, 1024, seq);
  Reassembler r;
  EXPECT_TRUE(r.feed(f0[0]).value().complete);
  r.take();
  EXPECT_TRUE(r.feed(f1[0]).value().complete);
  r.take();
  EXPECT_TRUE(r.feed(f2[0]).value().complete);
  r.take();
  // A late copy of frame 1 (overtaken on the wire) must not be delivered.
  auto late = r.feed(f1[0]);
  ASSERT_TRUE(late.ok());
  EXPECT_TRUE(late.value().dropped);
}

TEST(Fragment, GapDiscardsPartialMessageAndResyncs) {
  // A three-fragment message loses its middle frame; the trailing frame
  // resyncs the stream, its bytes are discarded (no first frame claims
  // them — no garbage ever reaches ND), and the next message comes
  // through intact.
  constexpr std::size_t kMtu = 16;  // 8-byte first chunk, 12-byte rest
  std::uint32_t seq = 0;
  Bytes big(30, 0xCD);
  auto frames = fragment(big, kMtu, seq);
  ASSERT_EQ(frames.size(), 3u);
  Reassembler r;
  EXPECT_FALSE(r.feed(frames[0]).value().complete);
  // frames[1] lost.
  auto tail = r.feed(frames[2]);
  ASSERT_TRUE(tail.ok());
  EXPECT_TRUE(tail.value().resynced);  // partial accumulation discarded
  EXPECT_TRUE(tail.value().orphan);   // continuation with no head: dropped
  EXPECT_FALSE(tail.value().complete);
  EXPECT_EQ(r.pending_bytes(), 0u);
  auto next = fragment(to_bytes("fresh"), kMtu, seq);
  ASSERT_EQ(next.size(), 1u);
  auto got = r.feed(next[0]);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().complete);
  EXPECT_FALSE(got.value().resynced);
  EXPECT_EQ(r.take(), to_bytes("fresh"));
}

TEST(Fragment, InterruptedMessageRestartsAtNextFirstFrame) {
  // The sender abandons a message mid-stream (its tail was lost and
  // retransmission starts a fresh message with consecutive sequence
  // numbers): the new first frame evicts the stale partial.
  constexpr std::size_t kMtu = 16;
  std::uint32_t seq = 0;
  auto partial = fragment(Bytes(30, 0x11), kMtu, seq);
  ASSERT_EQ(partial.size(), 3u);
  Reassembler r;
  EXPECT_FALSE(r.feed(partial[0]).value().complete);
  EXPECT_FALSE(r.feed(partial[1]).value().complete);
  // partial[2] never arrives; instead a new message starts at seq 3.
  auto fresh = fragment(to_bytes("clean"), kMtu, seq);
  ASSERT_EQ(fresh.size(), 1u);
  auto got = r.feed(fresh[0]);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().resynced);  // old partial thrown away
  EXPECT_TRUE(got.value().complete);
  EXPECT_EQ(r.take(), to_bytes("clean"));
}

TEST(Fragment, TotalLengthMismatchDropsMessage) {
  // A corrupted chunk-length that still passes the per-frame size check
  // shows up as a total-length mismatch at end of message; the message
  // must be dropped, not delivered truncated.
  std::uint32_t seq = 0;
  auto frames = fragment(to_bytes("abcdef"), 1024, seq);
  ASSERT_EQ(frames.size(), 1u);
  // Rewrite the announced total (bytes 4..7 of the first frame header).
  Bytes evil = frames[0];
  evil[7] = static_cast<std::uint8_t>(evil[7] + 1);
  Reassembler r;
  auto fed = r.feed(evil);
  ASSERT_TRUE(fed.ok());
  EXPECT_FALSE(fed.value().complete);
  EXPECT_TRUE(fed.value().resynced);
  EXPECT_EQ(r.pending_bytes(), 0u);
  // The stream recovers at the next message.
  auto next = fragment(to_bytes("ok"), 1024, seq);
  auto got = r.feed(next[0]);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(got.value().complete);
  EXPECT_EQ(r.take(), to_bytes("ok"));
}

TEST(NdFrames, OpenRoundTrip) {
  NdOpen open;
  open.src_uadd = UAdd::temporary(42);
  open.src_arch = 3;
  open.src_phys = "tcp:vax1:5001";
  auto bytes = encode_nd_open(open);
  auto back = decode_nd(bytes);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().kind, NdKind::open);
  EXPECT_EQ(back.value().open.src_uadd, open.src_uadd);
  EXPECT_TRUE(back.value().open.src_uadd.is_temporary());
  EXPECT_EQ(back.value().open.src_arch, 3u);
  EXPECT_EQ(back.value().open.src_phys, "tcp:vax1:5001");
}

TEST(NdFrames, OpenAckRoundTrip) {
  NdOpenAck ack;
  ack.uadd = UAdd::permanent(1001);
  ack.arch = 1;
  auto back = decode_nd(encode_nd_open_ack(ack));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().kind, NdKind::open_ack);
  EXPECT_EQ(back.value().ack.uadd, ack.uadd);
}

TEST(NdFrames, PayloadCarriesBody) {
  Bytes body = to_bytes("ip envelope here");
  auto back = decode_nd(encode_nd_payload(body));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().kind, NdKind::payload);
  EXPECT_EQ(back.value().body, body);
}

TEST(NdFrames, BadMagicRejected) {
  Bytes bytes = encode_nd_payload(to_bytes("x"));
  bytes[0] ^= 0xFF;
  EXPECT_EQ(decode_nd(bytes).code(), Errc::bad_message);
}

TEST(NdFrames, BadVersionRejected) {
  Bytes bytes = encode_nd_payload(to_bytes("x"));
  bytes[7] ^= 0x01;  // low byte of the version word
  EXPECT_EQ(decode_nd(bytes).code(), Errc::bad_message);
}

TEST(IpFrames, DataRoundTrip) {
  auto env = decode_ip(encode_ip_data(777, to_bytes("lcm message")));
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env.value().kind, IpKind::data);
  EXPECT_EQ(env.value().ivc, 777u);
  EXPECT_EQ(to_string(env.value().body), "lcm message");
}

TEST(IpFrames, ExtendRoundTrip) {
  ExtendBody body;
  body.final_uadd = UAdd::permanent(1234);
  body.route = {{"lan-b", "tcp:gw2:5003"}, {"lan-c", "tcp:mc:5004"}};
  auto env = decode_ip(encode_ip_extend(9, body));
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env.value().kind, IpKind::extend);
  EXPECT_EQ(env.value().extend.final_uadd, body.final_uadd);
  ASSERT_EQ(env.value().extend.route.size(), 2u);
  EXPECT_EQ(env.value().extend.route[0].net, "lan-b");
  EXPECT_EQ(env.value().extend.route[1].phys, "tcp:mc:5004");
}

TEST(IpFrames, ExtendEmptyRoute) {
  ExtendBody body;
  body.final_uadd = UAdd::permanent(1);
  auto env = decode_ip(encode_ip_extend(3, body));
  ASSERT_TRUE(env.ok());
  EXPECT_TRUE(env.value().extend.route.empty());
}

TEST(IpFrames, ExtendFailCarriesError) {
  auto env = decode_ip(encode_ip_extend_fail(
      5, static_cast<std::uint32_t>(Errc::no_route), "no gateway"));
  ASSERT_TRUE(env.ok());
  EXPECT_EQ(env.value().kind, IpKind::extend_fail);
  EXPECT_EQ(env.value().errc, static_cast<std::uint32_t>(Errc::no_route));
  EXPECT_EQ(env.value().text, "no gateway");
}

TEST(IpFrames, ControlMessagesRoundTrip) {
  EXPECT_EQ(decode_ip(encode_ip_extend_ok(8)).value().kind, IpKind::extend_ok);
  EXPECT_EQ(decode_ip(encode_ip_teardown(8)).value().kind, IpKind::teardown);
  EXPECT_EQ(decode_ip(encode_ip_teardown(8)).value().ivc, 8u);
}

TEST(LcmFrames, HeaderRoundTrip) {
  LcmHeader h;
  h.kind = LcmKind::request;
  h.flags = kLcmFlagInternal;
  h.src = UAdd::permanent(1001);
  h.dst = UAdd::permanent(1);
  h.req_id = 42;
  h.mode = 1;
  h.src_arch = 2;
  Bytes payload = to_bytes("body");
  auto back = decode_lcm(encode_lcm(h, payload));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().header.kind, LcmKind::request);
  EXPECT_EQ(back.value().header.flags, kLcmFlagInternal);
  EXPECT_EQ(back.value().header.src, h.src);
  EXPECT_EQ(back.value().header.dst, h.dst);
  EXPECT_EQ(back.value().header.req_id, 42u);
  EXPECT_EQ(back.value().header.mode, 1u);
  EXPECT_EQ(back.value().header.src_arch, 2u);
  EXPECT_EQ(back.value().payload, payload);
}

TEST(LcmFrames, AllKindsRoundTrip) {
  for (LcmKind kind : {LcmKind::data, LcmKind::request, LcmKind::reply,
                       LcmKind::dgram}) {
    LcmHeader h;
    h.kind = kind;
    auto back = decode_lcm(encode_lcm(h, {}));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value().header.kind, kind);
  }
}

TEST(LcmFrames, UnknownKindRejected) {
  LcmHeader h;
  h.kind = LcmKind::data;
  Bytes bytes = encode_lcm(h, {});
  bytes[3] = 99;  // low byte of the kind word
  EXPECT_EQ(decode_lcm(bytes).code(), Errc::bad_message);
}

TEST(Fuzz, TruncationsNeverCrash) {
  // Every prefix of every valid message must decode to an error or a
  // value — never crash or read out of bounds.
  NdOpen open;
  open.src_uadd = UAdd::permanent(5);
  open.src_arch = 1;
  open.src_phys = "tcp:m:1";
  ExtendBody eb;
  eb.final_uadd = UAdd::permanent(9);
  eb.route = {{"n1", "p1"}, {"n2", "p2"}};
  LcmHeader lh;
  lh.kind = LcmKind::reply;
  const std::vector<Bytes> messages = {
      encode_nd_open(open),
      encode_nd_open_ack({UAdd::permanent(2), 0}),
      encode_nd_payload(to_bytes("xyz")),
      encode_ip_extend(4, eb),
      encode_ip_data(4, to_bytes("d")),
      encode_lcm(lh, to_bytes("payload")),
  };
  for (const Bytes& msg : messages) {
    for (std::size_t cut = 0; cut < msg.size(); ++cut) {
      Bytes prefix(msg.begin(), msg.begin() + static_cast<long>(cut));
      (void)decode_nd(prefix);
      (void)decode_ip(prefix);
      (void)decode_lcm(prefix);
    }
  }
  SUCCEED();
}

TEST(Fuzz, RandomBytesNeverCrash) {
  Rng rng(31337);
  for (int i = 0; i < 2000; ++i) {
    Bytes junk(rng.next_below(200));
    for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next());
    (void)decode_nd(junk);
    (void)decode_ip(junk);
    (void)decode_lcm(junk);
    Reassembler r;
    (void)r.feed(junk);
  }
  SUCCEED();
}

// ---------------------------------------------------------------- gather path

/// The frames the gather path cuts from `head ++ body`, each materialised
/// as header ++ body so they compare with fragment()'s output.
std::vector<Bytes> gather_frames(BytesView head, BytesView body,
                                 std::size_t mtu, std::uint32_t& seq) {
  std::vector<Bytes> out;
  FrameCursor cursor(head, body, mtu, seq);
  Frame f;
  while (cursor.next(f)) {
    Bytes frame(f.header().begin(), f.header().end());
    append(frame, f.body);
    out.push_back(std::move(frame));
  }
  return out;
}

LcmHeader sample_header(bool traced) {
  LcmHeader h;
  h.kind = LcmKind::request;
  h.flags = kLcmFlagInternal;
  h.src = UAdd::permanent(1001);
  h.dst = UAdd::permanent(2002);
  h.req_id = 0xA5A5A5A5u;
  h.mode = 1;
  h.src_arch = 3;
  if (traced) {
    h.flags |= kLcmFlagTraced;
    h.trace_hi = 0x0102030405060708ULL;
    h.trace_lo = 0x1112131415161718ULL;
    h.trace_parent = 0x2122232425262728ULL;
  }
  return h;
}

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
  return b;
}

TEST(GatherPath, DataFramesMatchTheReferenceEncoders) {
  // The one gather path must put exactly the bytes of encode_lcm ->
  // encode_ip_data -> encode_nd_payload -> fragment on the wire. A 16-byte
  // MTU splits the headers themselves across frames.
  constexpr std::uint64_t kIvc = 0x0000000100000002ULL;
  Rng rng(12);
  for (const std::size_t mtu : {std::size_t{16}, std::size_t{4096}}) {
    for (const bool traced : {false, true}) {
      const LcmHeader h = sample_header(traced);
      for (const std::size_t size :
           {std::size_t{0}, std::size_t{64}, mtu - 1, mtu, mtu + 1,
            std::size_t{64} << 10}) {
        SCOPED_TRACE("mtu=" + std::to_string(mtu) + " traced=" +
                     std::to_string(traced) + " size=" + std::to_string(size));
        const Bytes payload = random_bytes(rng, size);
        std::uint32_t seq_ref = 120;  // runs across the 7-bit wrap
        const auto reference = fragment(
            encode_nd_payload(encode_ip_data(kIvc, encode_lcm(h, payload))),
            mtu, seq_ref);
        HeaderBuf head;
        head.push_lcm(h);
        head.push_ip_data(kIvc);
        head.push_nd_payload();
        std::uint32_t seq = 120;
        EXPECT_EQ(gather_frames(head.view(), payload, mtu, seq), reference);
        EXPECT_EQ(seq, seq_ref);
      }
    }
  }
}

TEST(GatherPath, EnvelopeEntryPointsAreTheDegenerateCase) {
  // IpLayer::send(lcm_msg) and NdLayer::send(envelope) gather an encoded
  // message as the body behind fewer in-place headers; the open exchange
  // gathers a whole ND message behind none.
  constexpr std::size_t kMtu = 64;
  Rng rng(13);
  const Bytes lcm_msg = encode_lcm(sample_header(false), random_bytes(rng, 200));
  const Bytes envelope = encode_ip_data(77, lcm_msg);
  std::uint32_t seq_ref = 0;
  const auto reference = fragment(encode_nd_payload(envelope), kMtu, seq_ref);

  HeaderBuf ip_head;
  ip_head.push_ip_data(77);
  ip_head.push_nd_payload();
  std::uint32_t seq = 0;
  EXPECT_EQ(gather_frames(ip_head.view(), lcm_msg, kMtu, seq), reference);

  HeaderBuf nd_head;
  nd_head.push_nd_payload();
  seq = 0;
  EXPECT_EQ(gather_frames(nd_head.view(), envelope, kMtu, seq), reference);

  NdOpen open;
  open.src_uadd = UAdd::permanent(5);
  open.src_phys = "tcp:m:1";
  const Bytes open_msg = encode_nd_open(open);
  seq_ref = seq = 9;
  EXPECT_EQ(gather_frames({}, open_msg, kMtu, seq),
            fragment(open_msg, kMtu, seq_ref));
}

TEST(GatherPath, ReceivedFramesDecodeInPlace) {
  // One frame: the reassembler leaves the message in the frame. Many
  // frames: it reassembles. Either way the view decoders recover the
  // header fields and the payload bytes.
  constexpr std::size_t kMtu = 4096;
  Rng rng(14);
  for (const std::size_t size : {std::size_t{64}, 3 * kMtu}) {
    const LcmHeader h = sample_header(true);
    const Bytes payload = random_bytes(rng, size);
    HeaderBuf head;
    head.push_lcm(h);
    head.push_ip_data(42);
    head.push_nd_payload();
    std::uint32_t seq = 0;
    const auto frames = gather_frames(head.view(), payload, kMtu, seq);
    Reassembler r;
    Bytes msg;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      auto fed = r.feed_in_place(frames[i]);
      ASSERT_TRUE(fed.ok());
      EXPECT_EQ(fed.value().complete, i + 1 == frames.size());
      EXPECT_EQ(fed.value().in_frame, frames.size() == 1);
      if (fed.value().in_frame) {
        msg.assign(frames[i].begin() + kFragHeaderMax, frames[i].end());
      } else if (fed.value().complete) {
        msg = r.take();
      }
    }
    EXPECT_EQ(r.pending_bytes(), 0u);
    auto nd = decode_nd_view(msg);
    ASSERT_TRUE(nd.ok());
    ASSERT_EQ(nd.value().kind, NdKind::payload);
    auto ip = decode_ip_view(nd.value().body);
    ASSERT_TRUE(ip.ok());
    EXPECT_EQ(ip.value().kind, IpKind::data);
    EXPECT_EQ(ip.value().ivc, 42u);
    auto lcm = decode_lcm_view(ip.value().body);
    ASSERT_TRUE(lcm.ok());
    EXPECT_EQ(lcm.value().header.req_id, h.req_id);
    EXPECT_EQ(lcm.value().header.trace_parent, h.trace_parent);
    EXPECT_EQ(Bytes(lcm.value().payload.begin(), lcm.value().payload.end()),
              payload);
  }
}

TEST(GatherPath, InPlaceFeedKeepsTheReassemblerChecks) {
  // A one-frame message whose total-length word disagrees with its chunk
  // is dropped exactly as feed() drops it, and a duplicate is suppressed.
  std::uint32_t seq = 0;
  auto frames = fragment(to_bytes("abcdef"), 1024, seq);
  Bytes evil = frames[0];
  evil[7] = static_cast<std::uint8_t>(evil[7] + 1);
  Reassembler r;
  auto fed = r.feed_in_place(evil);
  ASSERT_TRUE(fed.ok());
  EXPECT_FALSE(fed.value().complete);
  EXPECT_TRUE(fed.value().resynced);
  auto next = fragment(to_bytes("ok"), 1024, seq);
  EXPECT_TRUE(r.feed_in_place(next[0]).value().in_frame);
  auto again = r.feed_in_place(next[0]);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.value().dropped);
  EXPECT_FALSE(again.value().complete);
}

// ---------------------------------------------------------------- view decode

/// Counts of inputs each view decoder accepted, so the corpus check below
/// cannot pass vacuously.
struct Accepted {
  int nd = 0;
  int ip = 0;
  int lcm = 0;
};

void expect_views_agree(BytesView in, Accepted& acc) {
  auto lcm_ref = decode_lcm(in);
  auto lcm = decode_lcm_view(in);
  ASSERT_EQ(lcm.ok(), lcm_ref.ok());
  if (lcm.ok()) {
    ++acc.lcm;
    const LcmHeader& a = lcm.value().header;
    const LcmHeader& b = lcm_ref.value().header;
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.flags, b.flags);
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.req_id, b.req_id);
    EXPECT_EQ(a.mode, b.mode);
    EXPECT_EQ(a.src_arch, b.src_arch);
    EXPECT_EQ(a.trace_hi, b.trace_hi);
    EXPECT_EQ(a.trace_lo, b.trace_lo);
    EXPECT_EQ(a.trace_parent, b.trace_parent);
    EXPECT_EQ(Bytes(lcm.value().payload.begin(), lcm.value().payload.end()),
              lcm_ref.value().payload);
  }
  // ND and IP: control kinds are only prologue-checked by the views, so
  // agreement is exact on the payload-carrying kinds and one-way (the
  // reference accepts => the view accepts, same kind) on the others.
  auto nd_ref = decode_nd(in);
  auto nd = decode_nd_view(in);
  if (nd_ref.ok()) {
    ASSERT_TRUE(nd.ok());
    EXPECT_EQ(nd.value().kind, nd_ref.value().kind);
  }
  if (nd.ok() && nd.value().kind == NdKind::payload) {
    ++acc.nd;
    ASSERT_TRUE(nd_ref.ok());
    EXPECT_EQ(Bytes(nd.value().body.begin(), nd.value().body.end()),
              nd_ref.value().body);
  }
  auto ip_ref = decode_ip(in);
  auto ip = decode_ip_view(in);
  if (ip_ref.ok()) {
    ASSERT_TRUE(ip.ok());
    EXPECT_EQ(ip.value().kind, ip_ref.value().kind);
    EXPECT_EQ(ip.value().ivc, ip_ref.value().ivc);
  }
  if (ip.ok() && ip.value().kind == IpKind::data) {
    ++acc.ip;
    ASSERT_TRUE(ip_ref.ok());
    EXPECT_EQ(Bytes(ip.value().body.begin(), ip.value().body.end()),
              ip_ref.value().body);
  }
}

TEST(ViewDecoders, AgreeWithReferenceDecodersOverFuzzCorpus) {
  // Every checked-in fuzz input, and its suffixes at the frame, ND and IP
  // header boundaries (so frames and envelopes in the corpus reach the
  // inner decoders too).
  namespace fs = std::filesystem;
  Accepted acc;
  int inputs = 0;
  for (const auto& entry :
       fs::recursive_directory_iterator(NTCS_FUZZ_CORPUS_DIR)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream file(entry.path(), std::ios::binary);
    const Bytes data((std::istreambuf_iterator<char>(file)),
                     std::istreambuf_iterator<char>());
    for (const std::size_t off : {0, 4, 8, 12, 20, 24, 32}) {
      if (off > data.size()) continue;
      SCOPED_TRACE(entry.path().string() + " +" + std::to_string(off));
      expect_views_agree(BytesView(data).subspan(off), acc);
      ++inputs;
    }
  }
  EXPECT_GT(inputs, 30);
  EXPECT_GT(acc.nd, 0);
  EXPECT_GT(acc.ip, 0);
  EXPECT_GT(acc.lcm, 0);
}

TEST(ViewDecoders, AgreeOnTruncationsAndBitFlips) {
  // Beyond the corpus: every prefix and random single-bit damage of a
  // traced data message at each nesting level.
  const Bytes lcm_msg = encode_lcm(sample_header(true), to_bytes("payload!"));
  const Bytes envelope = encode_ip_data(5, lcm_msg);
  const Bytes nd_msg = encode_nd_payload(envelope);
  Accepted acc;
  Rng rng(99);
  for (const Bytes* msg : {&lcm_msg, &envelope, &nd_msg}) {
    for (std::size_t cut = 0; cut <= msg->size(); ++cut) {
      expect_views_agree(BytesView(*msg).first(cut), acc);
    }
    for (int i = 0; i < 500; ++i) {
      Bytes mutated = *msg;
      mutated[rng.next_below(mutated.size())] ^=
          static_cast<std::uint8_t>(1u << rng.next_below(8));
      expect_views_agree(mutated, acc);
    }
  }
  EXPECT_GT(acc.lcm, 0);
}

TEST(Fuzz, BitFlipsNeverCrash) {
  ExtendBody eb;
  eb.final_uadd = UAdd::permanent(9);
  eb.route = {{"net-with-a-longer-name", "tcp:machine:12345"}};
  const Bytes base = encode_ip_extend(11, eb);
  Rng rng(4242);
  for (int i = 0; i < 2000; ++i) {
    Bytes mutated = base;
    mutated[rng.next_below(mutated.size())] ^=
        static_cast<std::uint8_t>(1u << rng.next_below(8));
    (void)decode_ip(mutated);
  }
  SUCCEED();
}

}  // namespace
}  // namespace ntcs::core::wire
