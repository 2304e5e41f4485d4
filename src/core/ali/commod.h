// commod.h — the Application Level Interface / ComMod (paper §2.1, §2.4).
//
// "Each application process must bind with a passive communication module
// (ComMod), which is the only aspect of the NTCS visible to the
// application. To the application, the ComMod is the NTCS."
//
// The ALI-Layer "simply provides the application interface primitives from
// the Nucleus and NSP-Layer services, tailors the error returns, and
// performs parameter checking. It may be better described as a thin
// veneer." Three primitive classes (§1.3): basic communication (async
// send, sync send/receive/reply, datagrams, and serve — the one server
// loop every service module runs), resource location (register/locate),
// and utilities (stats, ping, schema payload helpers).
//
// Concurrency (DESIGN.md §6): the ComMod is deliberately the one layer
// with no lock of its own — it holds no mutable shared state (identity
// updates are atomic swaps inside Identity). Every guarded table it
// touches lives in the LCM/NSP layers below, so ALI calls enter the lock
// hierarchy at lcm.state/nsp.state rank with nothing held above them.
#pragma once

#include <chrono>
#include <functional>
#include <memory>
#include <stop_token>
#include <string_view>

#include "common/bytes.h"
#include "common/error.h"
#include "convert/schema.h"
#include "core/lcm/lcm_layer.h"
#include "core/nsp/nsp_layer.h"

namespace ntcs::core {

/// Largest application message the ALI-Layer accepts.
inline constexpr std::size_t kMaxAppMessage = 1 << 20;

/// serve() handlers: a request's reply bytes, and everything else (sends
/// and datagrams).
using RequestHandler = std::function<ntcs::Bytes(const Incoming&)>;
using OtherHandler = std::function<void(const Incoming&)>;

class ComMod {
 public:
  ComMod(LcmLayer& lcm, NspLayer& nsp, std::shared_ptr<Identity> identity);

  ComMod(const ComMod&) = delete;
  ComMod& operator=(const ComMod&) = delete;

  // ---- resource location primitives -------------------------------------
  /// Register this module with the naming service; returns its new UAdd.
  ntcs::Result<UAdd> register_self(const nsp::AttrMap& attrs = {});
  /// Logical name -> UAdd. "An application module need only obtain an
  /// address once; module relocation will then occur as required, during
  /// all communication, transparent at this interface."
  ntcs::Result<UAdd> locate(std::string_view name);
  /// Attribute-based location (all matches).
  ntcs::Result<std::vector<UAdd>> locate_attrs(const nsp::AttrMap& attrs);
  /// Batch location: all names resolved in one pipelined sweep over the
  /// Name Server circuit. Result i answers names[i].
  ntcs::Result<std::vector<ntcs::Result<UAdd>>> locate_many(
      const std::vector<std::string>& names);
  ntcs::Status deregister();

  // ---- basic communication primitives ------------------------------------
  /// Asynchronous send of representation-free bytes (image mode).
  ntcs::Status send(UAdd dst, ntcs::BytesView bytes);
  /// Asynchronous send with application pack/unpack (§5.1).
  ntcs::Status send(UAdd dst, const Payload& p);
  /// Synchronous send/receive/reply round trip. Under destination
  /// overload the call can fail fast with Errc::overloaded — either
  /// rejected locally (the queue-depth wait estimate already exceeds
  /// `timeout`, or the peer's busy signal is still in force) or shed
  /// remotely (the peer's inbound queue was full and it answered with a
  /// busy frame). overloaded is retriable: nothing was partially applied;
  /// back off and try again.
  ntcs::Result<Reply> request(UAdd dst, ntcs::BytesView bytes,
                              std::chrono::nanoseconds timeout =
                                  std::chrono::seconds(5));
  ntcs::Result<Reply> request(UAdd dst, const Payload& p,
                              std::chrono::nanoseconds timeout =
                                  std::chrono::seconds(5));
  /// Pipelined request issue: returns immediately with a ticket; up to the
  /// Nucleus' window depth of requests ride one circuit concurrently.
  /// Subject to the same admission control as request(): fails (here or at
  /// await()) with the retriable Errc::overloaded when the destination
  /// cannot serve the request within its deadline.
  ntcs::Result<RequestTicket> request_async(UAdd dst, ntcs::BytesView bytes,
                                            std::chrono::nanoseconds timeout =
                                                std::chrono::seconds(5));
  ntcs::Result<RequestTicket> request_async(UAdd dst, const Payload& p,
                                            std::chrono::nanoseconds timeout =
                                                std::chrono::seconds(5));
  /// Redeem a request_async ticket (once): blocks until the reply or the
  /// ticket's deadline.
  ntcs::Result<Reply> await(const RequestTicket& t);
  /// Blocking receive of the next message addressed to this module.
  ntcs::Result<Incoming> receive(std::chrono::nanoseconds timeout);
  ntcs::Status reply(const ReplyCtx& ctx, ntcs::BytesView bytes);
  ntcs::Status reply(const ReplyCtx& ctx, const Payload& p);
  /// Connectionless best-effort datagram.
  ntcs::Status dgram(UAdd dst, ntcs::BytesView bytes);
  /// The server loop: answer each request with on_request's bytes and
  /// hand sends and datagrams to on_other (dropped when it is empty),
  /// until `st` is set or the receive queue closes. Runs on the node's
  /// service thread (Node::run). It beats the `serve.<name>` heartbeat
  /// every iteration and retires it on exit. Unlike receive()/reply(), it
  /// records no ali.recv_wait_ns sample and applies no kMaxAppMessage
  /// cap to replies.
  void serve(const std::stop_token& st, const RequestHandler& on_request,
             const OtherHandler& on_other = {});

  // ---- schema helpers (the §5.1 "automatic code generator" in use) -------
  /// Build an outbound payload from a schema record: the memory image in
  /// this machine's representation plus the generated pack routine. The
  /// Nucleus picks image or packed per destination (§5).
  ntcs::Result<Payload> payload_for(const convert::Record& rec) const;
  ntcs::Result<convert::Record> decode(const Incoming& in,
                                       const convert::MessageSchema& s) const;
  ntcs::Result<convert::Record> decode(const Reply& r,
                                       const convert::MessageSchema& s) const;

  // ---- utilities -----------------------------------------------------------
  UAdd self() const { return identity_->uadd(); }
  const std::string& name() const { return identity_->name(); }
  convert::Arch arch() const { return identity_->arch(); }
  ntcs::Status ping_name_server();
  LcmLayer& lcm() { return lcm_; }
  NspLayer& nsp() { return nsp_; }

 private:
  ntcs::Status check_dst(UAdd dst, std::size_t size) const;
  ntcs::Result<convert::Record> decode_body(ntcs::BytesView payload,
                                            convert::XferMode mode,
                                            convert::Arch src_arch,
                                            const convert::MessageSchema& s)
      const;

  LcmLayer& lcm_;
  NspLayer& nsp_;
  std::shared_ptr<Identity> identity_;
};

}  // namespace ntcs::core
