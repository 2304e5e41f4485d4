#include "core/ali/commod.h"

#include "common/health.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace ntcs::core {

ComMod::ComMod(LcmLayer& lcm, NspLayer& nsp,
               std::shared_ptr<Identity> identity)
    : lcm_(lcm), nsp_(nsp), identity_(std::move(identity)) {}

ntcs::Status ComMod::check_dst(UAdd dst, std::size_t size) const {
  if (!dst.valid()) {
    return ntcs::Status(ntcs::Errc::bad_argument, "invalid destination UAdd");
  }
  if (size > kMaxAppMessage) {
    return ntcs::Status(ntcs::Errc::too_big,
                        "message exceeds ALI maximum (" +
                            std::to_string(kMaxAppMessage) + " bytes)");
  }
  return ntcs::Status::success();
}

ntcs::Result<UAdd> ComMod::register_self(const nsp::AttrMap& attrs) {
  if (identity_->name().empty()) {
    return ntcs::Error(ntcs::Errc::bad_argument, "module has no logical name");
  }
  RegistrationInfo info;
  info.attrs = attrs;
  return nsp_.register_module(info);
}

ntcs::Result<UAdd> ComMod::locate(std::string_view name) {
  if (name.empty()) {
    return ntcs::Error(ntcs::Errc::bad_argument, "empty logical name");
  }
  return nsp_.lookup(std::string(name));
}

ntcs::Result<std::vector<UAdd>> ComMod::locate_attrs(
    const nsp::AttrMap& attrs) {
  if (attrs.empty()) {
    return ntcs::Error(ntcs::Errc::bad_argument, "empty attribute set");
  }
  return nsp_.lookup_attrs(attrs);
}

ntcs::Result<std::vector<ntcs::Result<UAdd>>> ComMod::locate_many(
    const std::vector<std::string>& names) {
  if (names.empty()) {
    return ntcs::Error(ntcs::Errc::bad_argument, "empty name list");
  }
  for (const std::string& name : names) {
    if (name.empty()) {
      return ntcs::Error(ntcs::Errc::bad_argument, "empty logical name");
    }
  }
  return nsp_.lookup_many(names);
}

ntcs::Status ComMod::deregister() { return nsp_.deregister(identity_->uadd()); }

ntcs::Status ComMod::send(UAdd dst, ntcs::BytesView bytes) {
  if (auto st = check_dst(dst, bytes.size()); !st.ok()) return st;
  trace::RootSpan root("ali", "send", identity_->name());
  return lcm_.send(dst, bytes);
}

ntcs::Status ComMod::send(UAdd dst, const Payload& p) {
  if (auto st = check_dst(dst, p.image.size()); !st.ok()) return st;
  trace::RootSpan root("ali", "send", identity_->name());
  return lcm_.send(dst, p);
}

ntcs::Result<Reply> ComMod::request(UAdd dst, ntcs::BytesView bytes,
                                    std::chrono::nanoseconds timeout) {
  if (auto st = check_dst(dst, bytes.size()); !st.ok()) return st.error();
  SendOptions opts;
  opts.timeout = timeout;
  trace::RootSpan root("ali", "request", identity_->name());
  // The request's ticket owns its payload (for retries): one copy, moved
  // in.
  return lcm_.request(dst,
                      Payload::raw(ntcs::Bytes(bytes.begin(), bytes.end())),
                      opts);
}

ntcs::Result<Reply> ComMod::request(UAdd dst, const Payload& p,
                                    std::chrono::nanoseconds timeout) {
  if (auto st = check_dst(dst, p.image.size()); !st.ok()) return st.error();
  SendOptions opts;
  opts.timeout = timeout;
  trace::RootSpan root("ali", "request", identity_->name());
  return lcm_.request(dst, p, opts);
}

ntcs::Result<RequestTicket> ComMod::request_async(
    UAdd dst, ntcs::BytesView bytes, std::chrono::nanoseconds timeout) {
  if (auto st = check_dst(dst, bytes.size()); !st.ok()) return st.error();
  SendOptions opts;
  opts.timeout = timeout;
  // The root covers the *issue* leg only; the reply's arrival is traced by
  // the receive-side complete event (the ticket carries the context for
  // the await/retry path).
  trace::RootSpan root("ali", "request_async", identity_->name());
  return lcm_.request_async(
      dst, Payload::raw(ntcs::Bytes(bytes.begin(), bytes.end())), opts);
}

ntcs::Result<RequestTicket> ComMod::request_async(
    UAdd dst, const Payload& p, std::chrono::nanoseconds timeout) {
  if (auto st = check_dst(dst, p.image.size()); !st.ok()) return st.error();
  SendOptions opts;
  opts.timeout = timeout;
  trace::RootSpan root("ali", "request_async", identity_->name());
  return lcm_.request_async(dst, p, opts);
}

ntcs::Result<Reply> ComMod::await(const RequestTicket& t) {
  return lcm_.await(t);
}

ntcs::Result<Incoming> ComMod::receive(std::chrono::nanoseconds timeout) {
  // How long modules sit blocked at the ALI is the paper's headline latency
  // number (§7); the histogram shape tells polling from event-driven apart.
  static metrics::Histogram& m_wait = metrics::histogram("ali.recv_wait_ns");
  metrics::ScopedTimer timer(m_wait);
  return lcm_.receive(timeout);
}

ntcs::Status ComMod::reply(const ReplyCtx& ctx, ntcs::BytesView bytes) {
  if (bytes.size() > kMaxAppMessage) {
    return ntcs::Status(ntcs::Errc::too_big, "reply exceeds ALI maximum");
  }
  return lcm_.reply(ctx, bytes);
}

ntcs::Status ComMod::reply(const ReplyCtx& ctx, const Payload& p) {
  if (p.image.size() > kMaxAppMessage) {
    return ntcs::Status(ntcs::Errc::too_big, "reply exceeds ALI maximum");
  }
  return lcm_.reply(ctx, p);
}

ntcs::Status ComMod::dgram(UAdd dst, ntcs::BytesView bytes) {
  if (auto st = check_dst(dst, bytes.size()); !st.ok()) return st;
  return lcm_.dgram(dst, bytes);
}

void ComMod::serve(const std::stop_token& st, const RequestHandler& on_request,
                   const OtherHandler& on_other) {
  // The loop iterates at least every poll, so the default 1s stall window
  // leaves ~10 missed iterations of slack.
  constexpr std::chrono::milliseconds kPoll{100};
  health::Heartbeat& hb = health::heartbeat("serve." + identity_->name());
  while (!st.stop_requested()) {
    hb.beat();
    auto in = lcm_.receive(kPoll);
    if (!in) {
      if (in.code() == ntcs::Errc::timeout) continue;
      break;  // queue closed: the node is stopping
    }
    if (in.value().is_request) {
      const ntcs::Bytes out = on_request(in.value());
      (void)lcm_.reply(in.value().reply_ctx, out);
    } else if (on_other) {
      on_other(in.value());
    }
  }
  // A cleanly stopped server must not read as a stalled one.
  hb.retire();
}

ntcs::Result<Payload> ComMod::payload_for(const convert::Record& rec) const {
  const convert::MessageSchema& schema = rec.schema();
  Payload p;
  if (schema.fixed_size()) {
    // A contiguous struct: the image is this machine's memory layout and
    // the pack routine is schema-generated.
    auto image = schema.to_image(rec, identity_->arch());
    if (!image) return image.error();
    p.image = std::move(image.value());
    convert::Record copy = rec;
    p.pack = [schema_ptr = &schema, copy = std::move(copy)] {
      return schema_ptr->pack(copy);
    };
    return p;
  }
  // Variable-size messages are "not a contiguous block of memory" in the
  // paper's sense; they always travel packed, so the packed stream *is*
  // the image (characters are representation-free on every machine).
  auto packed = schema.pack(rec);
  if (!packed) return packed.error();
  p.image = std::move(packed.value());
  return p;
}

ntcs::Result<convert::Record> ComMod::decode_body(
    ntcs::BytesView payload, convert::XferMode mode, convert::Arch src_arch,
    const convert::MessageSchema& s) const {
  if (mode == convert::XferMode::packed || !s.fixed_size()) {
    return s.unpack(payload);
  }
  // Image mode: the sender's layout — chosen precisely because it is
  // compatible with ours.
  return s.from_image(payload, src_arch);
}

ntcs::Result<convert::Record> ComMod::decode(
    const Incoming& in, const convert::MessageSchema& s) const {
  return decode_body(in.payload, in.mode, in.src_arch, s);
}

ntcs::Result<convert::Record> ComMod::decode(
    const Reply& r, const convert::MessageSchema& s) const {
  return decode_body(r.payload, r.mode, r.src_arch, s);
}

ntcs::Status ComMod::ping_name_server() { return nsp_.ping(); }

}  // namespace ntcs::core
