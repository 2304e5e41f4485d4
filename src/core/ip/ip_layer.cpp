#include "core/ip/ip_layer.h"

#include <algorithm>
#include <deque>
#include <thread>

#include "common/metrics.h"
#include "common/trace.h"

namespace ntcs::core {

IpLayer::IpLayer(NdLayer& nd, std::shared_ptr<Identity> identity,
                 metrics::MetricsRegistry& metrics, NetName local_net,
                 IpConfig cfg)
    : nd_(nd),
      identity_(std::move(identity)),
      local_net_(std::move(local_net)),
      cfg_(cfg),
      log_("ip", identity_->name()),
      rng_(ntcs::seed_from(identity_->name(), 0x49504C59ULL /* "IPLY" */)),
      metrics_(metrics) {
  relay_fair_rate_.store(cfg_.relay_fair_rate, std::memory_order_relaxed);
}

namespace {

/// Spend one token from a relayed circuit's bucket, refilling it first
/// from wall-clock progress. Pure atomics (pump fast path). The burst cap
/// (rate/10, floor 32) bounds both how far a bucket can save up and how
/// deep into debt racing spenders can briefly drive it.
bool relay_admit(IpLayer::RelayMeter& m, std::uint64_t rate,
                 std::int64_t now_ns) {
  const auto burst = static_cast<std::int64_t>(
      std::max<std::uint64_t>(rate / 10, 32));
  std::int64_t last = m.last_refill_ns.load(std::memory_order_relaxed);
  if (last == 0) {
    // First frame on this circuit: prime a full bucket.
    if (m.last_refill_ns.compare_exchange_strong(last, now_ns,
                                                 std::memory_order_relaxed)) {
      m.tokens.store(burst, std::memory_order_relaxed);
    }
  } else if (now_ns > last) {
    // Gap clamped to 1s: anything longer refills to the burst cap anyway,
    // and the clamp keeps the multiplication overflow-proof.
    const auto gap = std::min<std::uint64_t>(
        static_cast<std::uint64_t>(now_ns - last), 1000000000u);
    const auto add = static_cast<std::int64_t>(gap * rate / 1000000000u);
    if (add > 0 &&
        m.last_refill_ns.compare_exchange_strong(last, now_ns,
                                                 std::memory_order_relaxed)) {
      std::int64_t cur = m.tokens.load(std::memory_order_relaxed);
      std::int64_t want;
      do {
        want = std::min(burst, cur + add);
      } while (!m.tokens.compare_exchange_weak(cur, want,
                                               std::memory_order_relaxed));
    }
  }
  if (m.tokens.fetch_sub(1, std::memory_order_relaxed) > 0) return true;
  m.tokens.fetch_add(1, std::memory_order_relaxed);  // no deep debt
  return false;
}

}  // namespace

void IpLayer::set_topology_source(TopologySource src) {
  ntcs::LockGuard lk(mu_);
  topo_source_ = std::move(src);
}

void IpLayer::set_gateway(GatewayHook* gw) {
  ntcs::LockGuard lk(mu_);
  gateway_ = gw;
}

void IpLayer::invalidate_topology() {
  ntcs::LockGuard lk(mu_);
  topo_cache_.reset();
}

void IpLayer::set_prime_gateways(std::vector<GatewayRecord> primes) {
  ntcs::LockGuard lk(mu_);
  static_gws_ = std::move(primes);
}

ntcs::Result<std::vector<GatewayRecord>> IpLayer::topology(bool static_only) {
  TopologySource src;
  {
    ntcs::LockGuard lk(mu_);
    if (static_only) return static_gws_;
    if (topo_cache_) return *topo_cache_;
    src = topo_source_;
  }
  std::vector<GatewayRecord> merged;
  {
    ntcs::LockGuard lk(mu_);
    merged = static_gws_;
  }
  if (src) {
    auto got = src();  // blocking naming-service query — app thread only
    if (got) {
      // Dynamic registrations shadow static entries with the same UAdd.
      for (GatewayRecord& g : got.value()) {
        bool replaced = false;
        for (GatewayRecord& m : merged) {
          if (m.uadd == g.uadd) {
            m = g;
            replaced = true;
            break;
          }
        }
        if (!replaced) merged.push_back(std::move(g));
      }
      topology_fetches_.inc();
      ntcs::LockGuard lk(mu_);
      topo_cache_ = merged;
      return merged;
    }
    // Naming service unreachable: fall back to the static table, which is
    // enough to reach the Name Server and the primes.
  }
  if (merged.empty()) {
    return ntcs::Error(ntcs::Errc::no_route,
                       "no topology source (naming service unavailable)");
  }
  return merged;
}

void IpLayer::blacklist_hop(const std::string& phys) {
  ntcs::LockGuard lk(mu_);
  hop_blacklist_[phys] =
      std::chrono::steady_clock::now() + cfg_.gateway_blacklist;
}

bool IpLayer::hop_blacklisted(const std::string& phys) const {
  ntcs::LockGuard lk(mu_);
  auto it = hop_blacklist_.find(phys);
  return it != hop_blacklist_.end() &&
         it->second > std::chrono::steady_clock::now();
}

ntcs::Result<std::vector<wire::RouteHop>> IpLayer::compute_route(
    const ResolvedDest& dst) {
  // Same network (or unspecified): the IVC is a single LVC.
  if (dst.net.empty() || dst.net == local_net_) {
    return std::vector<wire::RouteHop>{{local_net_, dst.phys.blob}};
  }
  const bool static_only =
      dst.uadd.valid() && !dst.uadd.is_temporary() &&
      dst.uadd.raw() < kFirstDynamicUAdd;
  auto gws = topology(static_only);
  if (!gws) return gws.error();

  // Breadth-first search over networks; gateways are the edges. The route
  // is computed here, autonomously (§4.2: establishment decentralised,
  // topology centralised).
  struct Step {
    NetName net;
    int via_gw;       // index into gws
    NetName via_net;  // network we were on when taking via_gw
  };
  std::unordered_map<std::string, Step> visited;
  // bound: |networks| — each net enters the frontier at most once (visited
  // gate below).
  std::deque<NetName> frontier;
  visited[local_net_] = Step{local_net_, -1, {}};
  frontier.push_back(local_net_);
  while (!frontier.empty() && visited.find(dst.net) == visited.end()) {
    const NetName cur = frontier.front();
    frontier.pop_front();
    for (std::size_t g = 0; g < gws.value().size(); ++g) {
      const GatewayRecord& gw = gws.value()[g];
      const bool on_cur = std::find(gw.nets.begin(), gw.nets.end(), cur) !=
                          gw.nets.end();
      if (!on_cur) continue;
      // Route around attachments that just failed to open (failover).
      auto cur_it = std::find(gw.nets.begin(), gw.nets.end(), cur);
      const auto cur_idx = static_cast<std::size_t>(cur_it - gw.nets.begin());
      if (hop_blacklisted(gw.phys[cur_idx].blob)) continue;
      for (const NetName& next : gw.nets) {
        if (next == cur || visited.count(next) != 0) continue;
        visited[next] = Step{next, static_cast<int>(g), cur};
        frontier.push_back(next);
      }
    }
  }
  auto it = visited.find(dst.net);
  if (it == visited.end()) {
    return ntcs::Error(ntcs::Errc::no_route,
                       "no gateway path from " + local_net_ + " to " + dst.net);
  }
  // Reconstruct the gateway chain destination-first.
  std::vector<wire::RouteHop> hops;
  hops.push_back({dst.net, dst.phys.blob});
  NetName cur = dst.net;
  while (cur != local_net_) {
    const Step& step = visited.at(cur);
    const GatewayRecord& gw = gws.value()[static_cast<std::size_t>(step.via_gw)];
    // The hop is taken *on* step.via_net, connecting to the gateway's
    // attachment there.
    auto nit = std::find(gw.nets.begin(), gw.nets.end(), step.via_net);
    const std::size_t idx = static_cast<std::size_t>(nit - gw.nets.begin());
    hops.push_back({step.via_net, gw.phys[idx].blob});
    cur = step.via_net;
  }
  std::reverse(hops.begin(), hops.end());
  return hops;
}

ntcs::Result<IvcHandle> IpLayer::open_ivc(const ResolvedDest& dst) {
  static metrics::Histogram& m_open_ns = metrics::histogram("ip.open_ivc_ns");
  metrics::ScopedTimer open_timer(m_open_ns);
  trace::ScopedSpan open_span("ip", "open_ivc", identity_->name());
  // Transient failures (a flapping or congested link) retry the same route
  // after a backoff; permanent ones (dead gateway, stale registry) get at
  // most one topology refresh before the error goes upward.
  ntcs::Backoff backoff(cfg_.extend_backoff);
  bool topo_refreshed = false;
  ntcs::Error last(ntcs::Errc::no_route, "IVC open never attempted");
  for (int attempt = 0; attempt < std::max(cfg_.extend_attempts, 1);
       ++attempt) {
    if (attempt != 0) {
      std::chrono::nanoseconds delay;
      {
        ntcs::LockGuard lk(mu_);
        delay = backoff.next(rng_);
      }
      std::this_thread::sleep_for(delay);
    }
    auto route = compute_route(dst);
    if (!route) return route.error();
    auto& hops = route.value();
    const wire::RouteHop first = hops.front();
    hops.erase(hops.begin());

    auto lvc = nd_.open(PhysAddr{first.phys});
    if (!lvc) {
      last = lvc.error();
      const ntcs::Errc code = last.code();
      if (code == ntcs::Errc::timeout || code == ntcs::Errc::partitioned) {
        // The hop is reachable in principle — the link is misbehaving.
        // Blacklisting it would punish a healthy gateway for its wire.
        extend_transient_retries_.inc();
        continue;
      }
      // A dead first-hop *gateway* is routed around: blacklist the
      // attachment, refresh the registry, recompute (§4.2 failover).
      if (!topo_refreshed && !hops.empty()) {
        blacklist_hop(first.phys);
        invalidate_topology();
        topo_refreshed = true;
        continue;
      }
      return lvc.error();
    }
    IvcHandle h;
    h.lvc = lvc.value();
    std::shared_ptr<ExtendWait> waiter;
    {
      ntcs::LockGuard lk(mu_);
      h.ivc = next_ivc_++;
      ivcs_[h] = IvcState{IvcRole::originator, false};
    }
    waiter = register_extend_waiter(h);
    wire::ExtendBody body;
    body.final_uadd = dst.uadd;
    body.route = hops;
    auto sent = nd_.send(h.lvc, wire::encode_ip_extend(h.ivc, body));
    ntcs::Status outcome = ntcs::Status::success();
    if (!sent.ok()) {
      outcome = sent;
    } else {
      ntcs::UniqueLock wl(waiter->mu);
      if (!waiter->cv.wait_for(wl, cfg_.extend_timeout,
                               [&] { return waiter->result.has_value(); })) {
        outcome = ntcs::Status(ntcs::Errc::timeout, "IVC extend timed out");
      } else {
        outcome = *waiter->result;
      }
    }
    unregister_extend_waiter(h);
    if (outcome.ok()) {
      {
        ntcs::LockGuard lk(mu_);
        auto it = ivcs_.find(h);
        if (it != ivcs_.end()) it->second.established = true;
      }
      ivcs_opened_.inc();
      log_.debug("IVC open to " + dst.uadd.to_string() + " via " +
                 std::to_string(hops.size()) + " onward hop(s)");
      return h;
    }
    {
      ntcs::LockGuard lk(mu_);
      ivcs_.erase(h);
    }
    extend_failures_.inc();
    // Do not leave a useless LVC behind if this node opened it just now
    // and nothing else multiplexes on it yet.
    bool lvc_in_use = false;
    {
      ntcs::LockGuard lk(mu_);
      for (const auto& [other, st] : ivcs_) {
        if (other.lvc == h.lvc) {
          lvc_in_use = true;
          break;
        }
      }
    }
    if (!lvc_in_use) (void)nd_.close(h.lvc);
    last = outcome.error();
    if (outcome.code() == ntcs::Errc::no_route) {
      if (topo_refreshed) return outcome.error();
      invalidate_topology();  // stale gateway registry: refresh and retry
      topo_refreshed = true;
      continue;
    }
    if (outcome.code() == ntcs::Errc::timeout ||
        outcome.code() == ntcs::Errc::partitioned ||
        outcome.code() == ntcs::Errc::address_fault) {
      // The extend died en route (flap mid-handshake, circuit killed):
      // transient — the same route may well work on the next try.
      extend_transient_retries_.inc();
      continue;
    }
    return outcome.error();
  }
  return last;
}

ntcs::Status IpLayer::send(IvcHandle h, ntcs::BytesView lcm_msg) {
  wire::HeaderBuf head;
  return send(h, head, lcm_msg);
}

ntcs::Status IpLayer::send(IvcHandle h, wire::HeaderBuf& head,
                           ntcs::BytesView payload) {
  {
    ntcs::LockGuard lk(mu_);
    auto it = ivcs_.find(h);
    if (it == ivcs_.end() || !it->second.established) {
      return ntcs::Status(ntcs::Errc::address_fault, "IVC is gone");
    }
  }
  const trace::TraceContext tctx =
      trace::enabled() ? trace::current() : trace::TraceContext{};
  const std::int64_t hop_start = tctx.valid() ? trace::now_ns() : 0;
  head.push_ip_data(h.ivc);
  auto st = nd_.send(h.lvc, head, payload);
  if (tctx.valid()) {
    // The origin's own hop onto the wire; each traversed gateway records
    // its forwarding hop in on_envelope, completing the per-hop chain.
    trace::record_child(tctx, "ip", "hop", identity_->name(), hop_start,
                        trace::now_ns());
  }
  if (!st.ok() && st.code() != ntcs::Errc::too_big) {
    // The circuit is dead; forget it so the LCM-Layer re-establishes.
    ntcs::LockGuard lk(mu_);
    ivcs_.erase(h);
  }
  return st;
}

ntcs::Status IpLayer::close_ivc(IvcHandle h) {
  {
    ntcs::LockGuard lk(mu_);
    if (ivcs_.erase(h) == 0) {
      return ntcs::Status(ntcs::Errc::not_found, "no such IVC");
    }
  }
  ivcs_closed_.inc();
  (void)nd_.send(h.lvc, wire::encode_ip_teardown(h.ivc));
  return ntcs::Status::success();
}

std::shared_ptr<IpLayer::ExtendWait> IpLayer::register_extend_waiter(
    IvcHandle h) {
  auto w = std::make_shared<ExtendWait>();
  ntcs::LockGuard lk(mu_);
  extend_waiters_[h] = w;
  return w;
}

void IpLayer::unregister_extend_waiter(IvcHandle h) {
  ntcs::LockGuard lk(mu_);
  extend_waiters_.erase(h);
}

void IpLayer::add_relay(IvcHandle in, IpLayer* out_ip, IvcHandle out) {
  ntcs::LockGuard lk(mu_);
  relays_[in] = RelayTarget{out_ip, out, std::make_shared<RelayMeter>()};
}

void IpLayer::mark_established(IvcHandle h) {
  ntcs::LockGuard lk(mu_);
  auto it = ivcs_.find(h);
  if (it != ivcs_.end()) it->second.established = true;
}

void IpLayer::remove_relay_entry(IvcHandle h) {
  ntcs::LockGuard lk(mu_);
  relays_.erase(h);
}

void IpLayer::on_nd_event(const NdEvent& ev, const IpEventSink& up) {
  switch (ev.kind) {
    case NdEvent::Kind::opened:
      return;
    case NdEvent::Kind::closed:
      on_lvc_closed(ev.lvc, up);
      return;
    case NdEvent::Kind::message: {
      const ntcs::BytesView envelope = ev.message();
      auto env = wire::decode_ip_view(envelope);
      if (!env) {
        drop_undecodable(env.error());
        return;
      }
      on_envelope(ev, env.value(), envelope, up);
      return;
    }
  }
}

void IpLayer::on_lvc_closed(LvcId lvc, const IpEventSink& up) {
  // §4.3: "Module death is detected by the ND-layer in any connected module
  // and the physical channel is closed. ... This process continues until
  // the originating module is eventually reached."
  std::vector<IpEvent> events;
  std::vector<std::pair<RelayTarget, IvcHandle>> dead_relays;
  std::vector<std::shared_ptr<ExtendWait>> failed_waiters;
  {
    ntcs::LockGuard lk(mu_);
    for (auto it = ivcs_.begin(); it != ivcs_.end();) {
      if (it->first.lvc == lvc) {
        IpEvent e;
        e.kind = IpEvent::Kind::ivc_closed;
        e.via = it->first;
        events.push_back(std::move(e));
        ivcs_closed_.inc();
        it = ivcs_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = relays_.begin(); it != relays_.end();) {
      if (it->first.lvc == lvc) {
        dead_relays.emplace_back(it->second, it->first);
        it = relays_.erase(it);
      } else {
        ++it;
      }
    }
    for (auto it = extend_waiters_.begin(); it != extend_waiters_.end();) {
      if (it->first.lvc == lvc) {
        failed_waiters.push_back(it->second);
        it = extend_waiters_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (auto& w : failed_waiters) {
    ntcs::LockGuard wl(w->mu);
    w->result = ntcs::Status(ntcs::Errc::address_fault, "LVC died");
    w->cv.notify_all();
  }
  for (auto& [target, in_h] : dead_relays) {
    // Instruct the far side to close the associated IVC; its own teardown
    // cascades onward (§4.3). Frames in flight on the dead circuit are
    // gone — make the teardown (and thus the loss) observable.
    relay_teardowns_.inc();
    (void)target.out->nd().send(target.out_h.lvc,
                                wire::encode_ip_teardown(target.out_h.ivc));
    target.out->remove_relay_entry(target.out_h);
  }
  for (const IpEvent& e : events) up(e);
}

void IpLayer::on_envelope(const NdEvent& ev, const wire::IpView& env,
                          ntcs::BytesView envelope, const IpEventSink& up) {
  const LvcId lvc = ev.lvc;
  const IvcHandle h{lvc, env.ivc};
  switch (env.kind) {
    case wire::IpKind::data: {
      RelayTarget relay{};
      bool is_relay = false;
      bool is_local = false;
      {
        ntcs::LockGuard lk(mu_);
        auto rit = relays_.find(h);
        if (rit != relays_.end()) {
          relay = rit->second;
          is_relay = true;
        } else if (ivcs_.count(h) != 0) {
          is_local = true;
        }
      }
      if (is_relay) {
        messages_relayed_.inc();
        // A relayed message's context is only on the wire: peek the LCM
        // trace words so gateway decisions land on the request's trace.
        std::optional<wire::LcmTraceWords> tw;
        if (trace::enabled()) tw = wire::peek_lcm_trace(env.body);
        // Per-peer fairness metering: one hot circuit must not starve the
        // relay. Control-class frames bypass — the control plane survives
        // the very overload the meter exists to manage.
        const std::uint64_t rate =
            relay_fair_rate_.load(std::memory_order_relaxed);
        if (rate != 0 && relay.meter) {
          const auto flags = wire::peek_lcm_flags(env.body);
          const bool control =
              flags && (*flags & wire::kLcmFlagInternal) != 0;
          if (!control &&
              !relay_admit(*relay.meter, rate,
                           std::chrono::duration_cast<std::chrono::nanoseconds>(
                               std::chrono::steady_clock::now()
                                   .time_since_epoch())
                               .count())) {
            fairness_drops_.inc();
            if (tw) {
              trace::record_event(
                  trace::TraceContext{tw->hi, tw->lo, tw->parent}, "gw",
                  "fairness_drop", identity_->name());
            }
            return;
          }
        }
        // The fast path through a Gateway: forward on the chained LVC. Each
        // traversed gateway bumps the hop counter once per data message, so
        // an N-hop send adds N to ip.hops_forwarded process-wide.
        hops_forwarded_.inc();
        const std::int64_t relay_start = tw ? trace::now_ns() : 0;
        // The LCM message is forwarded as a view of the received buffer
        // behind a re-encoded IP prologue — no copy at the gateway.
        wire::HeaderBuf head;
        head.push_ip_data(relay.out_h.ivc);
        auto st = relay.out->nd().send(relay.out_h.lvc, head, env.body);
        if (!st.ok()) {
          // The onward LVC refused the frame (dying circuit, backend
          // overload): the message is lost here. Never silently — count
          // it and pin the loss on the sender's trace.
          relay_drops_.inc();
          if (tw) {
            trace::record_event(
                trace::TraceContext{tw->hi, tw->lo, tw->parent}, "ip",
                "relay_drop", identity_->name());
          }
          return;
        }
        if (tw) {
          trace::record_child(
              trace::TraceContext{tw->hi, tw->lo, tw->parent}, "ip", "hop",
              identity_->name(), relay_start, trace::now_ns());
        }
        return;
      }
      if (is_local) {
        up(IpEvent{IpEvent::Kind::message, h, env.body, ev.peer_temporary});
        return;
      }
      // Data for an IVC this node no longer knows (raced teardown, stale
      // chain): dropped, visibly.
      stray_drops_.inc();
      log_.debug("stray data for unknown IVC " + std::to_string(env.ivc));
      return;
    }
    case wire::IpKind::extend: {
      // Route lists are variable fields: the reference decoder.
      auto full = wire::decode_ip(envelope);
      if (!full) {
        drop_undecodable(full.error());
        return;
      }
      const wire::ExtendBody& extend = full.value().extend;
      if (extend.route.empty()) {
        // We are the destination: accept the inbound circuit.
        {
          ntcs::LockGuard lk(mu_);
          ivcs_[h] = IvcState{IvcRole::terminal, true};
        }
        ivcs_accepted_.inc();
        (void)nd_.send(lvc, wire::encode_ip_extend_ok(env.ivc));
        return;
      }
      GatewayHook* gw = nullptr;
      {
        ntcs::LockGuard lk(mu_);
        gw = gateway_;
      }
      if (gw == nullptr) {
        (void)nd_.send(lvc,
                       wire::encode_ip_extend_fail(
                           env.ivc,
                           static_cast<std::uint32_t>(ntcs::Errc::no_route),
                           "module '" + identity_->name() +
                               "' is not a gateway"));
        return;
      }
      gw->on_extend(this, lvc, env.ivc, extend);  // enqueue; non-blocking
      return;
    }
    case wire::IpKind::extend_ok:
    case wire::IpKind::extend_fail: {
      ntcs::Status result = ntcs::Status::success();
      if (env.kind == wire::IpKind::extend_fail) {
        auto full = wire::decode_ip(envelope);
        if (!full) {
          drop_undecodable(full.error());
          return;
        }
        result = ntcs::Status(static_cast<ntcs::Errc>(full.value().errc),
                              full.value().text);
      }
      std::shared_ptr<ExtendWait> waiter;
      {
        ntcs::LockGuard lk(mu_);
        auto it = extend_waiters_.find(h);
        if (it != extend_waiters_.end()) waiter = it->second;
      }
      if (waiter) {
        ntcs::LockGuard wl(waiter->mu);
        waiter->result = std::move(result);
        waiter->cv.notify_all();
      }
      return;
    }
    case wire::IpKind::teardown: {
      RelayTarget relay{};
      bool is_relay = false;
      bool was_local = false;
      {
        ntcs::LockGuard lk(mu_);
        auto rit = relays_.find(h);
        if (rit != relays_.end()) {
          relay = rit->second;
          is_relay = true;
          relays_.erase(rit);
        } else if (ivcs_.erase(h) != 0) {
          was_local = true;
          ivcs_closed_.inc();
        }
      }
      if (is_relay) {
        (void)relay.out->nd().send(
            relay.out_h.lvc, wire::encode_ip_teardown(relay.out_h.ivc));
        relay.out->remove_relay_entry(relay.out_h);
        return;
      }
      if (was_local) up(IpEvent{IpEvent::Kind::ivc_closed, h, {}});
      return;
    }
  }
}

void IpLayer::drop_undecodable(const ntcs::Error& e) {
  decode_drops_.inc();
  log_.warn("dropping undecodable IP envelope: " + e.to_string());
}

}  // namespace ntcs::core
