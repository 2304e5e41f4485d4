#include "core/nd/nd_layer.h"

#include <thread>

#include "common/health.h"
#include "common/metrics.h"
#include "common/trace.h"

namespace ntcs::core {

namespace {

/// Live LVC count for the health plane; republished (set, not delta) after
/// every lvcs_ mutation while the layer lock is still held, so the gauge
/// can never drift from the table.
void publish_channels(std::size_t n) {
  static metrics::Gauge& g = metrics::gauge("nd.channels");
  g.set(static_cast<std::int64_t>(n));
}

}  // namespace

NdLayer::NdLayer(IpcsBackend& backend, std::string local_name,
                 std::shared_ptr<Identity> identity,
                 metrics::MetricsRegistry& metrics, NdConfig cfg)
    : backend_(backend),
      local_name_(std::move(local_name)),
      identity_(std::move(identity)),
      cfg_(cfg),
      log_("nd", identity_->name()),
      rng_(ntcs::seed_from(local_name_, 0x4E444C59ULL /* "NDLY" */)),
      metrics_(metrics) {}

NdLayer::~NdLayer() { shutdown(); }

ntcs::Status NdLayer::bind() {
  auto port = backend_.bind(local_name_);
  if (!port) return port.error();
  port_ = std::move(port.value());
  identity_->set_phys(PhysAddr{port_->phys()});
  log_.debug("bound at " + port_->phys());
  return ntcs::Status::success();
}

PhysAddr NdLayer::local_phys() const {
  return port_ ? PhysAddr{port_->phys()} : PhysAddr{};
}

ntcs::Result<LvcId> NdLayer::open(const PhysAddr& dst) {
  if (!port_) {
    return ntcs::Error(ntcs::Errc::bad_argument, "ND-Layer not bound");
  }
  static metrics::Histogram& m_open_ns = metrics::histogram("nd.open_ns");
  opens_.inc();
  metrics::ScopedTimer open_timer(m_open_ns);
  // Retry on open (§2.2: "no automatic relocation or recovery from failed
  // channels (except for retry on open)"), spacing attempts with capped
  // exponential backoff + jitter so a flapping link is eventually caught
  // in its up phase and concurrent openers don't retry in lockstep.
  ntcs::Backoff backoff(cfg_.open_backoff);
  ntcs::Error last(ntcs::Errc::address_fault, "open never attempted");
  for (int attempt = 0; attempt < cfg_.open_attempts; ++attempt) {
    if (attempt != 0) {
      std::chrono::nanoseconds delay;
      {
        ntcs::LockGuard lk(mu_);
        delay = backoff.next(rng_);
        health::journal_note(health::EventKind::retry, "nd", "open_retry",
                             static_cast<std::uint64_t>(attempt));
      }
      open_retries_.inc();
      std::this_thread::sleep_for(delay);
    }
    auto chan = port_->connect(dst.blob);
    if (!chan) {
      last = chan.error();
      // A partitioned network will not heal within the retry window; a
      // malformed address never will.
      if (last.code() == ntcs::Errc::bad_argument ||
          last.code() == ntcs::Errc::unsupported) {
        return last;
      }
      continue;
    }
    const LvcId lvc = chan.value();
    auto waiter = std::make_shared<OpenWaiter>();
    {
      ntcs::LockGuard lk(mu_);
      LvcState st;
      st.initiated_by_us = true;
      st.peer.phys = dst;
      lvcs_[lvc] = std::move(st);
      open_waiters_[lvc] = waiter;
      publish_channels(lvcs_.size());
    }
    // The open exchange (§3.3): introduce ourselves; the pump thread fills
    // the waiter when the peer's ack arrives.
    wire::NdOpen intro;
    intro.src_uadd = identity_->uadd();
    intro.src_arch = convert::arch_wire_id(identity_->arch());
    intro.src_phys = port_->phys();
    auto sent = send_frames(lvc, nullptr, {}, wire::encode_nd_open(intro));
    if (!sent.ok()) {
      last = sent.error();
      {
        ntcs::LockGuard lk(mu_);
        lvcs_.erase(lvc);
        open_waiters_.erase(lvc);
        publish_channels(lvcs_.size());
      }
      // The IPCS channel exists even though the introduction never made
      // it out; without this close it would linger in the substrate (a
      // real socket fd, on the realnet backend) until port teardown.
      (void)port_->close_channel(lvc);
      continue;
    }
    ntcs::UniqueLock wl(waiter->mu);
    const bool got = waiter->cv.wait_for(
        wl, cfg_.open_ack_timeout, [&] { return waiter->result.has_value(); });
    {
      ntcs::LockGuard lk(mu_);
      open_waiters_.erase(lvc);
    }
    if (!got) {
      last = ntcs::Error(ntcs::Errc::timeout, "open ack timed out");
      (void)close(lvc);
      continue;
    }
    if (!waiter->result->ok()) {
      last = waiter->result->error();
      {
        ntcs::LockGuard lk(mu_);
        lvcs_.erase(lvc);
        publish_channels(lvcs_.size());
      }
      // Usually the channel died (the waiter was failed by a `closed`
      // delivery) and this is a no-op, but a nacked-yet-alive channel
      // must not be stranded in the substrate.
      (void)port_->close_channel(lvc);
      continue;
    }
    const PeerInfo& peer = waiter->result->value();
    if (peer.uadd.valid() && !peer.uadd.is_temporary()) {
      cache_phys(peer.uadd, dst);
    }
    log_.debug("opened LVC " + std::to_string(lvc) + " to " + dst.blob +
               " peer=" + peer.uadd.to_string());
    return lvc;
  }
  return last;
}

ntcs::Status NdLayer::send(LvcId lvc, ntcs::BytesView ip_envelope) {
  wire::HeaderBuf head;
  return send(lvc, head, ip_envelope);
}

ntcs::Status NdLayer::send(LvcId lvc, wire::HeaderBuf& head,
                           ntcs::BytesView body) {
  if (!port_) {
    return ntcs::Status(ntcs::Errc::bad_argument, "ND-Layer not bound");
  }
  std::shared_ptr<TxState> tx;
  {
    ntcs::LockGuard lk(mu_);
    auto it = lvcs_.find(lvc);
    if (it == lvcs_.end()) {
      return ntcs::Status(ntcs::Errc::address_fault, "LVC is gone");
    }
    tx = it->second.tx;
  }
  msgs_sent_.inc();
  head.push_nd_payload();
  return send_frames(lvc, std::move(tx), head.view(), body);
}

ntcs::Status NdLayer::send_frames(LvcId lvc, std::shared_ptr<TxState> tx,
                                  ntcs::BytesView head, ntcs::BytesView body) {
  // Hold the circuit's transmit lock across all fragments so concurrent
  // senders on the same LVC cannot interleave mid-message, and stamp each
  // fragment with the circuit's running frame number.
  if (!tx) {
    ntcs::LockGuard lk(mu_);
    auto it = lvcs_.find(lvc);
    if (it != lvcs_.end()) tx = it->second.tx;
  }
  if (!tx) {
    // The circuit vanished between lookup and here (or this is the open
    // handshake racing creation); private state preserves the invariant.
    tx = std::make_shared<TxState>();
  }
  const trace::TraceContext tctx =
      trace::enabled() ? trace::current() : trace::TraceContext{};
  const std::int64_t frag_start = tctx.valid() ? trace::now_ns() : 0;
  std::size_t frames = 0;
  {
    ntcs::LockGuard tx_lk(tx->mu);
    // Zero-copy fragmentation: each frame is a stack-encoded header (the
    // fragment word plus any of the message's own header bytes) and a view
    // of the payload, gathered by the IPCS into its frame buffer. No
    // per-layer or per-fragment Bytes is ever materialised.
    wire::FrameCursor cursor(head, body, port_->mtu(), tx->seq);
    wire::Frame f;
    while (cursor.next(f)) {
      auto st = port_->send(lvc, f.header(), f.body);
      if (!st.ok()) {
        // Normalise the two IPCSs' failure vocabulary to an address fault,
        // except for conditions the layers above treat specially.
        if (st.code() == ntcs::Errc::partitioned ||
            st.code() == ntcs::Errc::too_big) {
          return st;
        }
        return ntcs::Status(ntcs::Errc::address_fault, st.error().what());
      }
      ++frames;
    }
  }
  frag_copies_avoided_.inc(frames);
  if (tctx.valid()) {
    trace::record_child(tctx, "nd", "fragment", identity_->name(), frag_start,
                        trace::now_ns(), static_cast<std::uint32_t>(frames));
  }
  return ntcs::Status::success();
}

ntcs::Status NdLayer::close(LvcId lvc) {
  {
    ntcs::LockGuard lk(mu_);
    if (lvcs_.erase(lvc) == 0) {
      return ntcs::Status(ntcs::Errc::not_found, "no such LVC");
    }
    publish_channels(lvcs_.size());
  }
  lvcs_closed_.inc();
  if (port_) (void)port_->close_channel(lvc);
  return ntcs::Status::success();
}

ntcs::Result<std::optional<NdEvent>> NdLayer::pump(
    std::chrono::nanoseconds timeout) {
  if (!port_) return ntcs::Error(ntcs::Errc::closed, "not bound");
  auto d = port_->recv_for(timeout);
  if (!d) return d.error();
  return handle_delivery(std::move(d.value()));
}

ntcs::Result<std::optional<NdEvent>> NdLayer::handle_delivery(IpcsDelivery d) {
  switch (d.kind) {
    case IpcsDeliveryKind::opened: {
      // IPCS-level connection; the NTCS-level open completes when the
      // peer's NdOpen arrives. On a self-connect (a module opening a
      // circuit to its own endpoint) the channel already has state created
      // by open() — overwriting it here would reset the transmit sequence
      // counter and the reassembler mid-handshake, so only create state
      // for channels some other endpoint initiated.
      ntcs::LockGuard lk(mu_);
      auto [it, inserted] = lvcs_.try_emplace(d.chan);
      if (inserted) it->second.peer.phys = PhysAddr{d.peer_phys};
      publish_channels(lvcs_.size());
      return std::optional<NdEvent>{};
    }
    case IpcsDeliveryKind::closed: {
      std::shared_ptr<OpenWaiter> waiter;
      bool known = false;
      {
        ntcs::LockGuard lk(mu_);
        known = lvcs_.erase(d.chan) != 0;
        publish_channels(lvcs_.size());
        auto wit = open_waiters_.find(d.chan);
        if (wit != open_waiters_.end()) {
          waiter = wit->second;
          open_waiters_.erase(wit);
        }
      }
      if (waiter) {
        ntcs::LockGuard wl(waiter->mu);
        waiter->result =
            ntcs::Error(ntcs::Errc::address_fault, "channel died during open");
        waiter->cv.notify_all();
      }
      if (!known) return std::optional<NdEvent>{};
      lvcs_closed_.inc();
      NdEvent ev;
      ev.kind = NdEvent::Kind::closed;
      ev.lvc = d.chan;
      return std::optional<NdEvent>{std::move(ev)};
    }
    case IpcsDeliveryKind::data: {
      ntcs::Bytes complete;
      std::size_t offset = 0;
      bool peer_temporary = false;
      {
        ntcs::LockGuard lk(mu_);
        auto it = lvcs_.find(d.chan);
        if (it == lvcs_.end()) {
          return std::optional<NdEvent>{};  // stray frame after close
        }
        auto fed = it->second.reassembler.feed_in_place(d.payload);
        if (!fed) {
          log_.warn("dropping malformed frame: " + fed.error().to_string());
          return std::optional<NdEvent>{};
        }
        if (fed.value().dropped) {
          // Duplicate or stale frame from a misbehaving substrate — the
          // application must never see it twice (or late).
          frames_deduped_.inc();
          if (trace::enabled()) {
            // A dropped frame never reassembles, so its trace context is
            // unrecoverable: a context-free event marks where dedup work
            // happened (exempt from the orphan check by its zero trace ID).
            trace::record_event(trace::TraceContext{}, "nd", "dedup",
                                identity_->name());
          }
          return std::optional<NdEvent>{};
        }
        if (fed.value().resynced || fed.value().orphan) {
          // Frames went missing mid-stream; that message is lost (ND
          // offers no retransmission — failures are "simply passed
          // upward") but the stream continues cleanly from here. Orphan
          // continuations (head frame lost before the resync point) are
          // part of the same loss event.
          frames_resynced_.inc();
          if (trace::enabled()) {
            trace::record_event(trace::TraceContext{}, "nd", "resync",
                                identity_->name());
          }
        }
        if (!fed.value().complete) return std::optional<NdEvent>{};
        if (fed.value().in_frame) {
          // A one-frame message: the delivered frame is adopted as the
          // message buffer, past its fragment header.
          complete = std::move(d.payload);
          offset = wire::kFragHeaderMax;
        } else {
          complete = it->second.reassembler.take();
        }
        // The LCM-Layer's TAdd purge (§3.4) needs this, and the lock is
        // already held.
        peer_temporary = it->second.open_complete &&
                         it->second.peer.uadd.is_temporary();
      }
      if (trace::enabled()) {
        // Receive side has no thread-local context: peek it out of the
        // reassembled frame (ND prologue -> IP data -> LCM trace words).
        const ntcs::BytesView msg = ntcs::BytesView(complete).subspan(offset);
        if (auto tw = wire::peek_nd_trace(msg)) {
          trace::record_event(
              trace::TraceContext{tw->hi, tw->lo, tw->parent}, "nd",
              "reassemble", identity_->name(),
              static_cast<std::uint32_t>(msg.size()));
        }
      }
      return handle_message(d.chan, std::move(complete), offset,
                            peer_temporary);
    }
  }
  return std::optional<NdEvent>{};
}

ntcs::Result<std::optional<NdEvent>> NdLayer::handle_message(
    LvcId lvc, ntcs::Bytes buffer, std::size_t offset, bool peer_temporary) {
  const ntcs::BytesView msg = ntcs::BytesView(buffer).subspan(offset);
  auto view = wire::decode_nd_view(msg);
  if (!view) {
    log_.warn("dropping undecodable ND message: " + view.error().to_string());
    return std::optional<NdEvent>{};
  }
  if (view.value().kind == wire::NdKind::payload) {
    msgs_received_.inc();
    NdEvent ev;
    ev.kind = NdEvent::Kind::message;
    ev.lvc = lvc;
    ev.buffer = std::move(buffer);
    ev.offset = offset + wire::kNdPrologueSize;
    ev.peer_temporary = peer_temporary;
    return std::optional<NdEvent>{std::move(ev)};
  }
  // The open exchange carries variable fields: the reference decoder.
  auto decoded = wire::decode_nd(msg);
  if (!decoded) {
    log_.warn("dropping undecodable ND message: " +
              decoded.error().to_string());
    return std::optional<NdEvent>{};
  }
  wire::NdMessage& m = decoded.value();
  switch (m.kind) {
    case wire::NdKind::open: {
      {
        ntcs::LockGuard lk(mu_);
        auto it = lvcs_.find(lvc);
        if (it == lvcs_.end()) return std::optional<NdEvent>{};
        it->second.peer.uadd = m.open.src_uadd;
        auto arch = convert::arch_from_wire_id(m.open.src_arch);
        it->second.peer.arch = arch.value_or(convert::Arch::vax780);
        it->second.peer.phys = PhysAddr{m.open.src_phys};
        it->second.open_complete = true;
        // Cache the peer's UAdd -> phys mapping learned from the exchange
        // (§3.3) — unless it is a TAdd, which has no meaning for location.
        if (m.open.src_uadd.valid() && !m.open.src_uadd.is_temporary()) {
          phys_cache_[m.open.src_uadd] = PhysAddr{m.open.src_phys};
        }
      }
      opens_accepted_.inc();
      wire::NdOpenAck ack;
      ack.uadd = identity_->uadd();
      ack.arch = convert::arch_wire_id(identity_->arch());
      (void)send_frames(lvc, nullptr, {}, wire::encode_nd_open_ack(ack));
      NdEvent ev;
      ev.kind = NdEvent::Kind::opened;
      ev.lvc = lvc;
      return std::optional<NdEvent>{std::move(ev)};
    }
    case wire::NdKind::open_ack: {
      std::shared_ptr<OpenWaiter> waiter;
      PeerInfo info;
      {
        ntcs::LockGuard lk(mu_);
        auto it = lvcs_.find(lvc);
        if (it == lvcs_.end()) return std::optional<NdEvent>{};
        it->second.peer.uadd = m.ack.uadd;
        auto arch = convert::arch_from_wire_id(m.ack.arch);
        it->second.peer.arch = arch.value_or(convert::Arch::vax780);
        it->second.open_complete = true;
        info = it->second.peer;
        auto wit = open_waiters_.find(lvc);
        if (wit != open_waiters_.end()) waiter = wit->second;
      }
      if (waiter) {
        ntcs::LockGuard wl(waiter->mu);
        waiter->result = info;
        waiter->cv.notify_all();
      }
      return std::optional<NdEvent>{};
    }
    case wire::NdKind::payload:
      break;  // handled above
  }
  return std::optional<NdEvent>{};
}

std::optional<PeerInfo> NdLayer::peer(LvcId lvc) const {
  ntcs::LockGuard lk(mu_);
  auto it = lvcs_.find(lvc);
  if (it == lvcs_.end() || !it->second.open_complete) return std::nullopt;
  return it->second.peer;
}

std::optional<convert::Arch> NdLayer::peer_arch(LvcId lvc) const {
  ntcs::LockGuard lk(mu_);
  auto it = lvcs_.find(lvc);
  if (it == lvcs_.end() || !it->second.open_complete) return std::nullopt;
  return it->second.peer.arch;
}

void NdLayer::promote_peer(LvcId lvc, UAdd real) {
  ntcs::LockGuard lk(mu_);
  auto it = lvcs_.find(lvc);
  if (it == lvcs_.end()) return;
  if (it->second.peer.uadd.is_temporary() && !real.is_temporary()) {
    it->second.peer.uadd = real;
    if (it->second.peer.phys.valid()) {
      phys_cache_[real] = it->second.peer.phys;
    }
    tadds_promoted_.inc();
    log_.debug("promoted peer TAdd to " + real.to_string() + " on LVC " +
               std::to_string(lvc));
  }
}

void NdLayer::cache_phys(UAdd uadd, PhysAddr phys) {
  if (!uadd.valid() || uadd.is_temporary()) return;
  ntcs::LockGuard lk(mu_);
  phys_cache_[uadd] = std::move(phys);
}

std::optional<PhysAddr> NdLayer::cached_phys(UAdd uadd) const {
  ntcs::LockGuard lk(mu_);
  auto it = phys_cache_.find(uadd);
  if (it == phys_cache_.end()) return std::nullopt;
  return it->second;
}

void NdLayer::uncache_phys(UAdd uadd) {
  ntcs::LockGuard lk(mu_);
  phys_cache_.erase(uadd);
}

void NdLayer::shutdown() {
  if (port_) port_->close();
}

}  // namespace ntcs::core
