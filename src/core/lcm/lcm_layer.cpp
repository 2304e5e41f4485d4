#include "core/lcm/lcm_layer.h"

#include <algorithm>
#include <deque>
#include <thread>

#include "common/health.h"
#include "common/metrics.h"

namespace ntcs::core {

namespace {

/// Aggregate live occupancy across every send window in the process (adds
/// on admission, subtracts on release, so it reads as the layer's total
/// in-flight pipeline). Deliberately NOT named `lcm.window.depth`/`.bound`:
/// a full window is normal pipelining, not distress, so it must not trip
/// the health plane's `.depth`/`.bound` utilization rule.
metrics::Gauge& window_inflight_gauge() {
  static metrics::Gauge& g = metrics::gauge("lcm.window.in_flight");
  return g;
}

/// The LCM wedge beacon: the deadline of the oldest parked window waiter
/// (0 = nobody parked). Last-writer-wins across windows — a wedged window
/// keeps republishing a past deadline while healthy windows clear or
/// advance theirs, which is exactly the signal the watchdog needs.
health::Beacon& window_beacon() {
  static health::Beacon& b = health::beacon("lcm.window");
  return b;
}

std::int64_t deadline_ns(std::chrono::steady_clock::time_point tp) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             tp.time_since_epoch())
      .count();
}

}  // namespace

/// Per-destination sliding send window. Admission is strictly FIFO: a
/// caller that finds the window full (or other callers already queued)
/// parks a waiter node at the back of the queue; each completed request
/// admits the front waiter. Every waiter carries its request's own
/// deadline, so a stalled window times out per request, never per circuit.
struct LcmSendWindow {
  struct Waiter {
    bool admitted = false;
    /// Set by the sweeper in grant_locked: this waiter's deadline passed
    /// while it was parked; it was removed from the queue and must not be
    /// admitted. Its owner observes the flag and reports timeout.
    bool expired = false;
    std::chrono::steady_clock::time_point deadline{};
  };

  // lcm.window: taken strictly after lcm.state is released and never
  // nested with the per-request lock — admission and completion touch the
  // two sequentially.
  ntcs::Mutex mu{ntcs::lockrank::kLcmWindow, "lcm.window"};
  ntcs::CondVar cv;
  int depth GUARDED_BY(mu) = 1;
  int in_flight GUARDED_BY(mu) = 0;
  bool closed GUARDED_BY(mu) = false;
  // bound: depth admitted + one parked waiter per caller thread (callers
  // block here, so the queue cannot outgrow the thread population).
  std::deque<std::shared_ptr<Waiter>> queue GUARDED_BY(mu);
  /// Back-pressure gate: the destination shed one of our requests; no new
  /// non-internal request is admitted before this instant.
  std::chrono::steady_clock::time_point busy_until GUARDED_BY(mu){};
  /// EWMA of slot-hold time (admission -> release, ≈ one request's full
  /// service incl. reply wait), feeding the deadline-aware admission
  /// estimate. 0 until the first request completes, so a fresh circuit
  /// never false-rejects.
  std::uint64_t avg_service_ns GUARDED_BY(mu) = 0;

  /// Admit queued waiters while capacity remains, sweeping expired ones:
  /// a waiter whose deadline has passed must not absorb a grant (its owner
  /// is timing out), and must not linger ahead of live waiters wedging the
  /// depth accounting.
  std::uint64_t grant_locked(metrics::Histogram& depth_h,
                             std::chrono::steady_clock::time_point now)
      REQUIRES(mu) {
    std::uint64_t swept = 0;
    while (!queue.empty()) {
      const std::shared_ptr<Waiter>& front = queue.front();
      if (front->deadline <= now) {
        front->expired = true;
        queue.pop_front();
        ++swept;
        continue;
      }
      if (in_flight >= depth) break;
      front->admitted = true;
      queue.pop_front();
      ++in_flight;
      window_inflight_gauge().add(1);
      depth_h.record(static_cast<std::uint64_t>(in_flight));
    }
    publish_beacon_locked();
    return swept;
  }

  /// Republish the wedge beacon after any queue mutation: the oldest
  /// parked waiter's deadline, or clear when nobody is parked.
  void publish_beacon_locked() REQUIRES(mu) {
    window_beacon().set(queue.empty() ? 0
                                      : deadline_ns(queue.front()->deadline));
  }
};

/// One entry of the pending-request table. The immutable half (dst,
/// payload, options, deadline) survives retries; the live half (the
/// correlation ID, the circuit it went out on, the result slot) is
/// re-armed each time the §3.5 machinery re-sends the request.
struct PendingRequest {
  UAdd dst;
  Payload payload;
  SendOptions opts;
  std::chrono::steady_clock::time_point deadline;
  int retries_left = 0;
  bool awaited = false;  // single-await guard; touched by the owner only
  std::int64_t ts = 0;   // monitor timestamp taken at issue (§6.1)
  // Issuer's trace context, captured at request_async: retries run on the
  // awaiting thread, which must re-enter it for the re-sent frames to stay
  // on the original trace.
  trace::TraceContext trace;

  std::uint32_t req_id = 0;  // current correlation ID (fresh per retry)
  // When this request was admitted through the send window; the hold time
  // (admission -> release) feeds the window's service-time EWMA. Written
  // before window_held is set, read after it is cleared — the atomic
  // exchange orders the two.
  std::chrono::steady_clock::time_point admitted_at{};

  // lcm.request: the reply rendezvous; leaf among the LCM locks.
  ntcs::Mutex mu{ntcs::lockrank::kLcmRequest, "lcm.request"};
  ntcs::CondVar cv;
  std::optional<ntcs::Result<Reply>> result GUARDED_BY(mu);
  // sync: routing breadcrumbs (0 = none), written under `mu` before each
  // send; the teardown pre-filters on them unlocked, re-checks under `mu`.
  std::atomic<std::uint64_t> via_lvc{0};
  std::atomic<std::uint64_t> via_ivc{0};

  std::shared_ptr<LcmSendWindow> window;
  // sync: exchange() gives exactly-once release of the window slot when
  // await/teardown race.
  std::atomic<bool> window_held{false};
};

namespace {

/// Record the circuit a request is about to leave on — before the frame
/// does, so an ivc_closed for that circuit always finds the request. False
/// when the request already has a result (the close of its previous
/// circuit faulted it, or shutdown failed it): await() takes over instead
/// of this send, so the request never goes out twice.
bool stamp_circuit(PendingRequest& t, IvcHandle h) {
  ntcs::LockGuard sl(t.mu);
  if (t.result) return false;
  t.via_lvc.store(h.lvc);
  t.via_ivc.store(h.ivc);
  return true;
}

metrics::Histogram& pipeline_depth_hist() {
  static metrics::Histogram& h = metrics::histogram("lcm.pipeline_depth");
  return h;
}

/// Per-thread NTCS recursion depth (§6.1/§6.3). The paper's layers recurse
/// on one stack; so do ours — hooks and resolver calls run on the sending
/// thread, and this counter bounds the dead-circuit loop.
thread_local int g_recursion_depth = 0;

class RecursionScope {
 public:
  RecursionScope() { ++g_recursion_depth; }
  ~RecursionScope() { --g_recursion_depth; }
  RecursionScope(const RecursionScope&) = delete;
  RecursionScope& operator=(const RecursionScope&) = delete;
};

}  // namespace

LcmLayer::LcmLayer(IpLayer& ip, std::shared_ptr<Identity> identity,
                   metrics::MetricsRegistry& metrics, LcmConfig cfg)
    : ip_(ip),
      identity_(std::move(identity)),
      cfg_(cfg),
      log_("lcm", identity_->name()),
      rng_(ntcs::seed_from(identity_->name(), 0x4C434D4CULL /* "LCML" */)),
      metrics_(metrics),
      app_queue_(cfg_.max_inbound_queue, cfg_.control_reserve) {
  // Health-plane pair: live inbound depth against the configured bound
  // (data class sheds at bound - control_reserve, i.e. just above the
  // watchdog's 90% utilization line).
  static metrics::Gauge& g_depth = metrics::gauge("lcm.app_queue.depth");
  static metrics::Gauge& g_bound = metrics::gauge("lcm.app_queue.bound");
  app_queue_.set_depth_gauge(&g_depth, &g_bound);
}

void LcmLayer::set_resolver(Resolver* r) {
  ntcs::LockGuard lk(mu_);
  resolver_ = r;
}

void LcmLayer::set_time_source(TimeSource t) {
  ntcs::LockGuard lk(mu_);
  time_source_ = std::move(t);
}

void LcmLayer::set_monitor_hook(MonitorHook m) {
  ntcs::LockGuard lk(mu_);
  monitor_hook_ = std::move(m);
}

void LcmLayer::set_error_hook(ErrorHook e) {
  ntcs::LockGuard lk(mu_);
  error_hook_ = std::move(e);
}

void LcmLayer::preload_well_known(const WellKnownTable& wk) {
  ntcs::LockGuard lk(mu_);
  if (wk.name_server_phys.valid()) {
    CandidateSet set;
    set.dests.push_back(
        ResolvedDest{kNameServerUAdd, wk.name_server_phys, wk.name_server_net});
    for (const NsReplicaInfo& rep : wk.name_server_replicas) {
      set.dests.push_back(ResolvedDest{kNameServerUAdd, rep.phys, rep.net});
    }
    candidates_[kNameServerUAdd] = std::move(set);
  }
  // Sharded naming service: one candidate set per shard UAdd (primary
  // first, warm standby second). The shard entry for UAdd 1 supersedes
  // the legacy single-server entry above.
  for (std::size_t s = 0; s < wk.shards.size(); ++s) {
    const NsShardInfo& sh = wk.shards[s];
    if (!sh.primary_phys.valid()) continue;
    const UAdd u = ns_shard_uadd(s);
    CandidateSet set;
    set.dests.push_back(ResolvedDest{u, sh.primary_phys, sh.primary_net});
    if (sh.standby_phys.valid()) {
      set.dests.push_back(ResolvedDest{u, sh.standby_phys, sh.standby_net});
    }
    candidates_[u] = std::move(set);
  }
  for (auto& [u, set] : candidates_) {
    if (set.dests.empty()) continue;
    set.idx = 0;
    resolved_cache_[u] = set.dests.front();
    ip_.nd().cache_phys(u, set.dests.front().phys);
  }
  for (const PrimeGatewayInfo& gw : wk.prime_gateways) {
    if (gw.phys.empty()) continue;
    resolved_cache_[gw.uadd] = ResolvedDest{gw.uadd, gw.phys[0],
                                            gw.networks.empty()
                                                ? NetName{}
                                                : gw.networks[0]};
    ip_.nd().cache_phys(gw.uadd, gw.phys[0]);
  }
}

void LcmLayer::cache_destination(UAdd uadd, ResolvedDest dest) {
  ntcs::LockGuard lk(mu_);
  ip_.nd().cache_phys(uadd, dest.phys);
  // A Name Server's own shard UAdd keeps its well-known candidates.
  candidates_.try_emplace(uadd, CandidateSet{{dest}, 0});
  resolved_cache_[uadd] = std::move(dest);
}

UAdd LcmLayer::chase_forward_locked(UAdd dst) {
  UAdd cur = dst;
  for (int hops = 0; hops < 16; ++hops) {
    auto it = forwards_.find(cur);
    if (it == forwards_.end()) break;
    cur = it->second;
  }
  // Path compression: future sends jump straight to the live end.
  if (cur != dst) forwards_[dst] = cur;
  return cur;
}

LcmLayer::Route LcmLayer::route_locked(UAdd dst) {
  Route r;
  r.cur = chase_forward_locked(dst);
  auto it = conns_.find(r.cur);
  if (it != conns_.end()) {
    r.h = it->second;
    r.have = true;
  } else {
    r.closed =
        reconnect_pending_.count(r.cur) != 0 && asks_first_locked(r.cur);
  }
  return r;
}

bool LcmLayer::asks_first_locked(UAdd cur) const {
  return !cur.is_temporary() && cur.raw() >= kFirstDynamicUAdd &&
         resolver_ != nullptr && candidates_.count(cur) == 0;
}

ntcs::Result<ResolvedDest> LcmLayer::resolved_for(UAdd dst) {
  Resolver* resolver = nullptr;
  {
    ntcs::LockGuard lk(mu_);
    auto it = resolved_cache_.find(dst);
    if (it != resolved_cache_.end()) {
      resolve_hits_.inc();
      return it->second;
    }
    resolver = resolver_;
  }
  resolve_misses_.inc();
  if (resolver == nullptr) {
    return ntcs::Error(ntcs::Errc::not_found,
                       "no resolver and " + dst.to_string() +
                           " is not well-known");
  }
  auto rd = resolver->resolve(dst);  // recursive naming-service call (§3.1)
  if (!rd) return rd.error();
  ntcs::LockGuard lk(mu_);
  resolved_cache_[dst] = rd.value();
  ip_.nd().cache_phys(dst, rd.value().phys);
  return rd.value();
}

ntcs::Result<ntcs::BytesView> LcmLayer::encode_body(
    const Body& body, LvcId lvc, convert::XferMode& mode_out,
    ntcs::Bytes& packed) {
  // §5: the decision to convert is taken here, at the lowest layer where
  // the destination machine type is visible. No pack routine means the
  // application vouches for representation independence, so the peer's
  // type (learned in the channel-open exchange, §3.3) is not even needed.
  mode_out = convert::XferMode::image;
  if (body.pack == nullptr) return body.image;
  const convert::Arch peer_arch =
      ip_.nd().peer_arch(lvc).value_or(identity_->arch());
  if (convert::choose_mode(identity_->arch(), peer_arch) ==
      convert::XferMode::packed) {
    mode_out = convert::XferMode::packed;
    auto out = (*body.pack)();
    if (!out) return out.error();
    packed = std::move(out.value());
    return ntcs::BytesView(packed);
  }
  return body.image;
}

ntcs::Result<IvcHandle> LcmLayer::send_message(UAdd dst, wire::LcmKind kind,
                                               std::uint32_t req_id,
                                               const Body& body,
                                               const SendOptions& opts,
                                               int fault_retries,
                                               PendingRequest* stamp,
                                               const Route* first) {
  if (g_recursion_depth > cfg_.max_recursion_depth) {
    recursion_trips_.inc();
    ErrorHook hook;
    {
      ntcs::LockGuard lk(mu_);
      hook = error_hook_;
    }
    if (hook) {
      hook("lcm", ntcs::Errc::recursion_limit, "recursion guard tripped");
    }
    return ntcs::Error(ntcs::Errc::recursion_limit,
                       "NTCS recursion depth exceeded (see paper §6.3)");
  }
  RecursionScope scope;

  // Code only: every attempt overwrites it, and a diagnostic text here
  // would be a heap allocation on every send.
  ntcs::Error last(ntcs::Errc::address_fault);
  ntcs::Backoff backoff(cfg_.fault_backoff);
  // The previous attempt's open or send failed, and this one goes back to
  // the same target.
  bool repeat = false;
  for (int attempt = 0; attempt <= fault_retries; ++attempt) {
    if (repeat) {
      // Pace a repeat: the destination may be behind a flapping link or a
      // failing-over Name Server, and an instant retry mostly re-runs into
      // the same fault. A retry toward a successor goes at once.
      fault_backoffs_.inc();
      health::journal_note(health::EventKind::retry, "lcm", "fault_retry",
                           static_cast<std::uint64_t>(attempt));
      if (trace::enabled()) {
        const trace::TraceContext tctx = trace::current();
        if (tctx.valid()) {
          trace::record_event(tctx, "lcm", "fault_retry", identity_->name(),
                              static_cast<std::uint32_t>(attempt));
        }
      }
      std::chrono::nanoseconds delay;
      {
        ntcs::LockGuard lk(mu_);
        delay = backoff.next(rng_);
      }
      std::this_thread::sleep_for(delay);
    }
    repeat = false;
    Route route;
    if (attempt == 0 && first != nullptr) {
      route = *first;
    } else {
      ntcs::LockGuard lk(mu_);
      route = route_locked(dst);
    }
    const UAdd cur = route.cur;

    // Establish (or reuse) the circuit — "with the underlying IVCs being
    // established as needed". A circuit that closed under a minted UAdd is
    // already the §3.5 address fault: the handler below asks where the
    // module went before anything reopens the address it may have left.
    IvcHandle h = route.h;
    bool have = route.have;
    bool closed = route.closed;
    if (!have && !closed) {
      auto rd = resolved_for(cur);
      if (!rd) {
        last = rd.error();
        // An unknown UAdd is not necessarily the end: the module may have
        // died and been REPLACED since the naming service answered us last
        // (its old record is retired the moment anyone's forwarding query
        // confirms the death). Treat it as an address fault so the
        // forwarding determination below gets its chance (§3.5).
        if (last.code() != ntcs::Errc::not_found) return last;
      } else {
        auto opened = ip_.open_ivc(rd.value());
        if (!opened) {
          last = opened.error();
          if (last.code() == ntcs::Errc::no_route) return last;
          // Address fault during establishment: fall through to the fault
          // handler below.
          repeat = true;
        } else {
          h = opened.value();
          have = true;
          // A reconnect is any re-establishment toward a destination we
          // already had a circuit to: either an earlier attempt of this
          // send faulted (attempt > 0), or the ivc_closed notification got
          // here first and left the destination in reconnect_pending_.
          bool reconnected = attempt > 0;
          {
            ntcs::LockGuard lk(mu_);
            conns_[cur] = h;
            if (reconnect_pending_.erase(cur) > 0) reconnected = true;
          }
          if (reconnected) {
            reconnects_.inc();
          }
        }
      }
    }

    if (have) {
      convert::XferMode mode = convert::XferMode::image;
      ntcs::Bytes packed;
      auto image = encode_body(body, h.lvc, mode, packed);
      if (!image) return image.error();

      wire::LcmHeader hdr;
      hdr.kind = kind;
      hdr.flags = opts.internal ? wire::kLcmFlagInternal : 0;
      hdr.src = identity_->uadd();
      hdr.dst = cur;
      hdr.req_id = req_id;
      hdr.mode = convert::xfer_mode_wire_id(mode);
      hdr.src_arch = convert::arch_wire_id(identity_->arch());
      // Application traffic carries the caller's trace context on the wire
      // (§6.1-style monitoring recursion exemption: internal/DRTS traffic
      // stays untraced).
      if (!opts.internal && trace::enabled()) {
        const trace::TraceContext tctx = trace::current();
        if (tctx.valid()) {
          hdr.flags |= wire::kLcmFlagTraced;
          hdr.trace_hi = tctx.hi;
          hdr.trace_lo = tctx.lo;
          hdr.trace_parent = tctx.span;
        }
      }

      if (stamp != nullptr && !stamp_circuit(*stamp, h)) return h;
      // The header is encoded in place and the payload travels as a view:
      // its one copy is into the substrate's frame.
      wire::HeaderBuf head;
      head.push_lcm(hdr);
      auto st = ip_.send(h, head, image.value());
      if (st.ok()) return h;
      last = st.error();
      if (last.code() == ntcs::Errc::too_big) return last;
      repeat = true;
    }

    // ---- address-fault handler (§3.5) --------------------------------
    address_faults_.inc();
    health::journal_note(health::EventKind::failover, "lcm", "addr_fault");
    ErrorHook error_hook;
    {
      ntcs::LockGuard lk(mu_);
      // A send that failed on its circuit found it closed, too.
      if (have) closed = asks_first_locked(cur);
      // Only the circuit that failed: a concurrent sender may have opened
      // a fresh one since.
      auto cit = conns_.find(cur);
      if (cit != conns_.end() && cit->second == h) conns_.erase(cit);
      // A closed circuit keeps the address it ran to until the answer
      // names a successor: any other answer reopens it.
      if (!closed) resolved_cache_.erase(cur);
      error_hook = error_hook_;
    }
    if (!closed) ip_.nd().uncache_phys(cur);
    log_.debug("address fault toward " + cur.to_string() + ": " +
               last.to_string());
    if (error_hook && !opts.internal) {
      // Report into the running table of errors (§6.3) — internal traffic
      // is exempt so a fault while reporting a fault cannot loop.
      error_hook("lcm", last.code(),
                 "address fault toward " + cur.to_string());
    }

    if (!cfg_.reproduce_ns_fault_bug) {
      // The §6.3 patch: "Since layers below the NSP-Layer know nothing of
      // the Name Server, they are unable to stop this problem." This layer
      // — which also "should not know of the Name Server" — breaks the
      // loop by never consulting the naming service about the naming
      // service; the well-known physical addresses are authoritative.
      // Re-install a pinned entry so the reconnect can proceed without a
      // resolver — rotating to the shard's next candidate (primary, then
      // standby/replicas) on each fault. This rotation IS the shard
      // failover: a dead primary faults, the retry lands on the warm
      // standby, whose first write-triggered promotion makes it the new
      // primary. A replica link has one candidate, its only address.
      bool rotated = false;
      {
        ntcs::LockGuard lk(mu_);
        auto cand_it = candidates_.find(cur);
        if (cand_it != candidates_.end() && !cand_it->second.dests.empty()) {
          CandidateSet& set = cand_it->second;
          if (attempt > 0) ++set.idx;
          const ResolvedDest& cand = set.dests[set.idx % set.dests.size()];
          resolved_cache_[cur] = cand;
          ip_.nd().cache_phys(cur, cand.phys);
          rotated = true;
        }
      }
      if (rotated) {
        health::journal_note(health::EventKind::failover, "lcm", "ns_rotate",
                             static_cast<std::uint64_t>(attempt));
        continue;  // plain reconnect retry via ND retry-on-open
      }
    }

    Resolver* resolver = nullptr;
    {
      ntcs::LockGuard lk(mu_);
      resolver = resolver_;
    }
    if (resolver == nullptr) return last;
    auto fwd = resolver->forward(cur);  // recursive naming-service call
    if (fwd) {
      relocations_.inc();
      {
        ntcs::LockGuard lk(mu_);
        forwards_[cur] = fwd.value();
        reconnect_pending_.erase(cur);
        resolved_cache_.erase(cur);
      }
      ip_.nd().uncache_phys(cur);
      log_.info("relocated " + cur.to_string() + " -> " +
                fwd.value().to_string());
      repeat = false;  // the retry opens the successor
      continue;
    }
    if (closed) {
      // No successor named. The module may live (still_alive, or a naming
      // service that cannot be reached or cannot tell), or it may have died
      // before its successor registered: reopen the address the circuit
      // ran to, "exactly as during an initial connection" (§3.5). Only an
      // open that fails there makes a not_found final.
      ntcs::LockGuard lk(mu_);
      reconnect_pending_.erase(cur);
      continue;
    }
    if (fwd.code() == ntcs::Errc::still_alive) {
      continue;  // module lives; re-establish "exactly as during an
                 // initial connection" (§3.5)
    }
    return fwd.error();
  }
  return last;
}

ntcs::Status LcmLayer::send(UAdd dst, const Payload& p, SendOptions opts) {
  return send_body(dst, Body::of(p), opts);
}

ntcs::Status LcmLayer::send(UAdd dst, ntcs::BytesView image,
                            SendOptions opts) {
  return send_body(dst, Body{image}, opts);
}

ntcs::Status LcmLayer::send_body(UAdd dst, const Body& body,
                                 SendOptions opts) {
  if (!dst.valid()) {
    return ntcs::Status(ntcs::Errc::bad_argument, "invalid destination");
  }
  (opts.internal ? internal_sends_ : sends_).inc();
  TimeSource time_source;
  MonitorHook monitor;
  if (!opts.internal) {
    ntcs::LockGuard lk(mu_);
    time_source = time_source_;
    monitor = monitor_hook_;
  }
  // §6.1: "As the application level Send is initiated, control passes to
  // the LCM-layer, which generates a time stamp for monitor data" — which
  // may itself communicate, recursively.
  const std::int64_t ts = time_source ? time_source() : 0;
  auto sent = send_message(dst, wire::LcmKind::data, 0, body, opts,
                           cfg_.fault_retries);
  if (!sent) return sent.error();
  if (monitor) {
    MonitorSample s;
    s.src = identity_->uadd();
    s.dst = dst;
    s.bytes = body.image.size();
    s.timestamp_ns = ts;
    s.request = false;
    monitor(s);  // "the LCM-layer sends data to the monitor by calling
                 // itself" — the hook recurses into dgram() below.
  }
  return ntcs::Status::success();
}

std::shared_ptr<LcmSendWindow> LcmLayer::window_locked(UAdd dst) {
  auto& w = windows_[dst];
  if (!w) {
    w = std::make_shared<LcmSendWindow>();
    w->depth = std::max(1, cfg_.window_depth);
    // Per-circuit configured depth (same for every window; set, not add,
    // so circuit churn cannot inflate it).
    static metrics::Gauge& g_depth = metrics::gauge("lcm.window.depth");
    g_depth.set(w->depth);
  }
  return w;
}

ntcs::Status LcmLayer::acquire_window(PendingRequest& req, bool& parked) {
  LcmSendWindow& w = *req.window;
  ntcs::UniqueLock lk(w.mu);
  if (w.closed) {
    return ntcs::Status(ntcs::Errc::shutdown, "module shutting down");
  }
  // ---- admission control (overload control; non-internal only — the
  // control plane must keep flowing while the data plane is paused) ------
  if (!req.opts.internal) {
    auto now = std::chrono::steady_clock::now();
    if (w.busy_until > now) {
      // The destination shed a request of ours: honor its busy frame by
      // pausing admission instead of hammering it with retries. A caller
      // whose deadline falls inside the pause cannot be served — reject
      // fast with the retriable overloaded.
      if (w.busy_until >= req.deadline) {
        admission_rejects_.inc();
        return ntcs::Status(ntcs::Errc::overloaded,
                            "destination busy past request deadline");
      }
      busy_pauses_.inc();
      parked = true;
      health::journal_note(health::EventKind::busy, "lcm", "busy_pause");
      while (!w.closed) {
        now = std::chrono::steady_clock::now();
        if (w.busy_until <= now) break;
        if (w.busy_until >= req.deadline) {
          admission_rejects_.inc();
          return ntcs::Status(ntcs::Errc::overloaded,
                              "destination busy past request deadline");
        }
        w.cv.wait_until(lk, w.busy_until);
      }
      if (w.closed) {
        return ntcs::Status(ntcs::Errc::shutdown, "module shutting down");
      }
    }
    // Deadline-aware fast reject: with `backlog` requests ahead of us and
    // `depth` served concurrently at ~avg_service_ns each, the expected
    // wait is avg * backlog / depth. When that already overshoots the
    // caller's deadline, parking the caller only manufactures a timeout —
    // reject now, retriably, while the caller can still do something else.
    if (w.avg_service_ns != 0) {
      const std::uint64_t backlog =
          w.queue.size() + static_cast<std::uint64_t>(w.in_flight);
      const std::uint64_t est_ns =
          w.avg_service_ns * backlog / static_cast<std::uint64_t>(w.depth);
      if (now + std::chrono::nanoseconds(est_ns) > req.deadline) {
        admission_rejects_.inc();
        return ntcs::Status(ntcs::Errc::overloaded,
                            "queue-depth wait estimate exceeds deadline");
      }
    }
  }
  if (w.queue.empty() && w.in_flight < w.depth) {
    ++w.in_flight;
    window_inflight_gauge().add(1);
    pipeline_depth_hist().record(static_cast<std::uint64_t>(w.in_flight));
    req.admitted_at = std::chrono::steady_clock::now();
    req.window_held.store(true);
    return ntcs::Status::success();
  }
  // Full window (or earlier arrivals still queued — no overtaking): park
  // at the back and wait to be admitted, bounded by this request's own
  // deadline. A caller already past its deadline is not parked at all —
  // an expired waiter can only wedge the queue.
  if (std::chrono::steady_clock::now() >= req.deadline) {
    return ntcs::Status(ntcs::Errc::timeout,
                        "send window full until request deadline");
  }
  window_stalls_.inc();
  parked = true;
  const bool stall_traced = trace::enabled() && req.trace.valid();
  const std::int64_t stall_start = stall_traced ? trace::now_ns() : 0;
  auto node = std::make_shared<LcmSendWindow::Waiter>();
  node->deadline = req.deadline;
  w.queue.push_back(node);
  w.publish_beacon_locked();
  while (!node->admitted && !node->expired && !w.closed) {
    if (w.cv.wait_until(lk, req.deadline) == std::cv_status::timeout &&
        !node->admitted) {
      // The sweeper may have removed the node already (expired); only
      // erase what is still queued.
      auto it = std::find(w.queue.begin(), w.queue.end(), node);
      if (it != w.queue.end()) w.queue.erase(it);
      w.publish_beacon_locked();
      return ntcs::Status(ntcs::Errc::timeout,
                          "send window full until request deadline");
    }
  }
  if (node->expired) {  // swept by grant_locked at our deadline
    return ntcs::Status(ntcs::Errc::timeout,
                        "send window full until request deadline");
  }
  if (!node->admitted) {  // window closed by shutdown
    auto it = std::find(w.queue.begin(), w.queue.end(), node);
    if (it != w.queue.end()) w.queue.erase(it);
    w.publish_beacon_locked();
    return ntcs::Status(ntcs::Errc::shutdown, "module shutting down");
  }
  req.admitted_at = std::chrono::steady_clock::now();
  req.window_held.store(true);
  if (stall_traced) {
    trace::record_child(req.trace, "lcm", "window_stall", identity_->name(),
                        stall_start, trace::now_ns());
  }
  return ntcs::Status::success();
}

void LcmLayer::release_window(PendingRequest& req) {
  if (!req.window || !req.window_held.exchange(false)) return;
  LcmSendWindow& w = *req.window;
  const auto now = std::chrono::steady_clock::now();
  const auto held = now - req.admitted_at;
  std::uint64_t swept = 0;
  {
    ntcs::LockGuard lk(w.mu);
    --w.in_flight;
    window_inflight_gauge().sub(1);
    if (held.count() > 0) {
      // Slot-hold EWMA (alpha 1/8): the admission estimate's denominator.
      const auto e = static_cast<std::uint64_t>(held.count());
      w.avg_service_ns =
          w.avg_service_ns == 0 ? e : (7 * w.avg_service_ns + e) / 8;
    }
    swept = w.grant_locked(pipeline_depth_hist(), now);
  }
  if (swept != 0) {
    waiter_sweeps_.inc(swept);
  }
  w.cv.notify_all();
}

ntcs::Status LcmLayer::issue(const RequestTicket& t) {
  const std::uint32_t req_id = next_req_id_.fetch_add(1);
  {
    ntcs::LockGuard sl(t->mu);
    t->result.reset();
    t->via_lvc.store(0);
    t->via_ivc.store(0);
  }
  t->req_id = req_id;
  // One lcm.state section for the whole issue. The entry waits in the
  // table during admission harmlessly: no reply can name it before it is
  // sent, and no circuit close can match it before it is stamped.
  const bool first_issue = t->window == nullptr;
  TimeSource time_source;
  Route route;
  {
    ntcs::LockGuard lk(mu_);
    if (first_issue) {
      t->window = window_locked(t->dst);
      if (!t->opts.internal) time_source = time_source_;
    }
    route = route_locked(t->dst);
    pending_[req_id] = t;
  }
  // §6.1: the monitor time stamp is taken once, at first issue; it may
  // itself communicate, recursively.
  if (time_source) t->ts = time_source();
  bool parked = false;
  auto st = acquire_window(*t, parked);
  if (!st.ok()) {
    ntcs::LockGuard lk(mu_);
    pending_.erase(req_id);
    return st;
  }
  // send_message stamps the ticket with each circuit before sending on it.
  // The route looked up above is stale once other work could have run: a
  // time-source call or a wait in the window.
  const bool route_fresh = !time_source && !parked;
  auto sent = send_message(t->dst, wire::LcmKind::request, req_id,
                           Body::of(t->payload), t->opts, cfg_.fault_retries,
                           t.get(), route_fresh ? &route : nullptr);
  if (!sent) {
    {
      ntcs::LockGuard lk(mu_);
      pending_.erase(req_id);
    }
    release_window(*t);
    return sent.error();
  }
  return ntcs::Status::success();
}

ntcs::Result<RequestTicket> LcmLayer::request_async(UAdd dst, const Payload& p,
                                                    SendOptions opts) {
  return request_async(dst, Payload(p), opts);
}

ntcs::Result<RequestTicket> LcmLayer::request_async(UAdd dst, Payload&& p,
                                                    SendOptions opts) {
  if (!dst.valid()) {
    return ntcs::Error(ntcs::Errc::bad_argument, "invalid destination");
  }
  (opts.internal ? internal_sends_ : requests_).inc();
  auto t = std::make_shared<PendingRequest>();
  t->dst = dst;
  t->payload = std::move(p);
  t->opts = opts;
  // The deadline is absolute from the moment of issue and is shared by
  // every retry; nanosecond-resolution arithmetic end to end, so sub-ms
  // timeouts are honoured exactly (never truncated to 0 = instant or
  // rounded into a coarser unit).
  const auto timeout =
      opts.timeout.count() != 0 ? opts.timeout : cfg_.request_timeout;
  t->deadline = std::chrono::steady_clock::now() + timeout;
  t->retries_left = cfg_.fault_retries;
  t->trace = trace::current();
  if (auto st = issue(t); !st.ok()) return st.error();
  return t;
}

ntcs::Result<Reply> LcmLayer::await(const RequestTicket& t) {
  if (!t || t->awaited) {
    return ntcs::Error(ntcs::Errc::bad_argument, "invalid request ticket");
  }
  t->awaited = true;
  for (;;) {
    ntcs::Result<Reply> outcome =
        ntcs::Error(ntcs::Errc::timeout, "reply timed out");
    {
      ntcs::UniqueLock sl(t->mu);
      if (t->cv.wait_until(sl, t->deadline,
                           [&] { return t->result.has_value(); })) {
        outcome = std::move(*t->result);
      }
    }
    release_window(*t);
    MonitorHook monitor;
    {
      ntcs::LockGuard lk(mu_);
      pending_.erase(t->req_id);
      if (outcome.ok() && !t->opts.internal) monitor = monitor_hook_;
    }
    if (outcome.ok()) {
      if (monitor) {
        MonitorSample s;
        s.src = identity_->uadd();
        s.dst = t->dst;
        s.bytes = t->payload.image.size();
        s.timestamp_ns = t->ts;
        s.request = true;
        monitor(s);
      }
      return outcome;
    }
    const ntcs::Error last = outcome.error();
    // The circuit died while this request was pending: run the §3.5
    // fault/relocation machinery once more — for this request alone, with
    // a fresh correlation ID, under the original deadline. Other requests
    // multiplexed on the same circuit recover (or fail) independently. A
    // plain timeout is surfaced to the caller — the peer may simply be
    // slow, and retrying a non-idempotent request is the transaction
    // manager's business, not ours (§3.5).
    if (last.code() != ntcs::Errc::address_fault || t->retries_left <= 0 ||
        std::chrono::steady_clock::now() >= t->deadline) {
      return last;
    }
    --t->retries_left;
    {
      // The awaiting thread is not the issuing thread's call stack: re-
      // enter the request's context so the re-sent frame (and every span
      // below it) stays on the original trace.
      trace::ContextScope tscope(t->trace);
      if (trace::enabled() && t->trace.valid()) {
        trace::record_event(t->trace, "lcm", "reissue", identity_->name(),
                            static_cast<std::uint32_t>(t->retries_left));
      }
      if (auto st = issue(t); !st.ok()) return st.error();
    }
  }
}

ntcs::Result<Reply> LcmLayer::request(UAdd dst, const Payload& p,
                                      SendOptions opts) {
  return request(dst, Payload(p), opts);
}

ntcs::Result<Reply> LcmLayer::request(UAdd dst, Payload&& p,
                                      SendOptions opts) {
  static metrics::Histogram& m_rtt = metrics::histogram("lcm.request_rtt_ns");
  metrics::ScopedTimer rtt_timer(m_rtt);
  auto t = request_async(dst, std::move(p), opts);
  if (!t) return t.error();
  return await(t.value());
}

ntcs::Status LcmLayer::reply(const ReplyCtx& ctx, const Payload& p) {
  return reply_body(ctx, Body::of(p));
}

ntcs::Status LcmLayer::reply(const ReplyCtx& ctx, ntcs::BytesView image) {
  return reply_body(ctx, Body{image});
}

ntcs::Status LcmLayer::reply_body(const ReplyCtx& ctx, const Body& body) {
  if (!ctx.valid()) {
    return ntcs::Status(ntcs::Errc::bad_argument, "invalid reply context");
  }
  replies_.inc();
  convert::XferMode mode = convert::XferMode::image;
  ntcs::Bytes packed;
  auto image = encode_body(body, ctx.via.lvc, mode, packed);
  if (!image) return image.error();

  wire::LcmHeader hdr;
  hdr.kind = wire::LcmKind::reply;
  hdr.flags = wire::kLcmFlagInternal;
  hdr.src = identity_->uadd();
  hdr.dst = ctx.requester;
  hdr.req_id = ctx.req_id;
  hdr.mode = convert::xfer_mode_wire_id(mode);
  hdr.src_arch = convert::arch_wire_id(identity_->arch());
  // Replies always carry kLcmFlagInternal (they are circuit bookkeeping,
  // not new application traffic), so trace stamping keys on the request's
  // context, never on the internal bit: a traced request gets a traced
  // reply riding the same trace ID back.
  const bool traced = trace::enabled() && ctx.trace.valid();
  if (traced) {
    hdr.flags |= wire::kLcmFlagTraced;
    hdr.trace_hi = ctx.trace.hi;
    hdr.trace_lo = ctx.trace.lo;
    hdr.trace_parent = ctx.trace.span;
  }
  wire::HeaderBuf head;
  head.push_lcm(hdr);
  if (traced) {
    trace::ContextScope tscope(ctx.trace);
    const std::int64_t reply_start = trace::now_ns();
    // Replies ride the inbound circuit; if it died the requester recovers.
    auto st = ip_.send(ctx.via, head, image.value());
    trace::record_child(ctx.trace, "lcm", "reply", identity_->name(),
                        reply_start, trace::now_ns());
    return st;
  }
  // Replies ride the inbound circuit; if it died the requester recovers.
  return ip_.send(ctx.via, head, image.value());
}

ntcs::Status LcmLayer::dgram(UAdd dst, const Payload& p, SendOptions opts) {
  return dgram_body(dst, Body::of(p), opts);
}

ntcs::Status LcmLayer::dgram(UAdd dst, ntcs::BytesView image,
                             SendOptions opts) {
  return dgram_body(dst, Body{image}, opts);
}

ntcs::Status LcmLayer::dgram_body(UAdd dst, const Body& body,
                                  SendOptions opts) {
  if (!dst.valid()) {
    return ntcs::Status(ntcs::Errc::bad_argument, "invalid destination");
  }
  (opts.internal ? internal_sends_ : dgrams_).inc();
  // Connectionless: one resolution attempt, no relocation recovery.
  auto sent = send_message(dst, wire::LcmKind::dgram, 0, body, opts, 1);
  if (!sent) return sent.error();
  return ntcs::Status::success();
}

ntcs::Result<Incoming> LcmLayer::receive(std::chrono::nanoseconds timeout) {
  return app_queue_.pop_for(timeout);
}

void LcmLayer::on_ip_event(const IpEvent& ev) {
  switch (ev.kind) {
    case IpEvent::Kind::message: {
      auto decoded = wire::decode_lcm_view(ev.lcm_msg);
      if (!decoded) {
        decode_drops_.inc();
        log_.warn("dropping undecodable LCM message: " +
                  decoded.error().to_string());
        return;
      }
      const wire::LcmView& m = decoded.value();

      // TAdd purge (§3.4): a peer that introduced itself with a TAdd is
      // re-keyed the moment a message carries its real UAdd. (The ND-Layer
      // read the peer's TAdd status as it reassembled this message.)
      const bool real_src =
          m.header.src.valid() && !m.header.src.is_temporary();
      if (real_src && ev.peer_temporary) {
        ip_.nd().promote_peer(ev.via.lvc, m.header.src);
        tadds_promoted_.inc();
      }
      // One lcm.state section per message: cache the reverse mapping so
      // sends to this peer reuse the inbound circuit (and pick up its
      // post-relocation incarnation), and find a reply's request.
      // Correlation: the reply finds its request by ID, regardless of how
      // many requests are interleaved on this circuit.
      const bool is_reply = m.header.kind == wire::LcmKind::reply;
      RequestTicket t;
      if (real_src || is_reply) {
        ntcs::LockGuard lk(mu_);
        if (real_src) conns_[m.header.src] = ev.via;
        if (is_reply) {
          auto it = pending_.find(m.header.req_id);
          if (it != pending_.end()) t = it->second;
        }
      }

      // The payload's one copy on the way up: out of the received buffer
      // into the message handed to the application (or the Reply).
      Incoming in;
      in.src = m.header.src;
      in.payload.assign(m.payload.begin(), m.payload.end());
      in.mode = static_cast<convert::XferMode>(m.header.mode);
      in.src_arch = convert::arch_from_wire_id(m.header.src_arch)
                        .value_or(convert::Arch::vax780);
      in.internal = (m.header.flags & wire::kLcmFlagInternal) != 0;
      if ((m.header.flags & wire::kLcmFlagTraced) != 0) {
        in.trace = trace::TraceContext{m.header.trace_hi, m.header.trace_lo,
                                       m.header.trace_parent};
      }

      switch (m.header.kind) {
        case wire::LcmKind::data:
        case wire::LcmKind::dgram: {
          received_.inc();
          if (trace::enabled() && in.trace.valid()) {
            trace::record_event(in.trace, "lcm", "deliver",
                                identity_->name());
          }
          const trace::TraceContext tctx = in.trace;
          const bool internal = in.internal;
          auto st = internal ? app_queue_.push_control(std::move(in))
                             : app_queue_.push(std::move(in));
          if (!st.ok() && st.code() == ntcs::Errc::no_resource) {
            // Bounded queue full: shed. Data and dgrams have no reply
            // channel to signal on — the drop is visible in the metric and
            // the sender's trace (like a frame lost in transit; dgrams are
            // best-effort by contract anyway).
            shed_.inc();
            health::journal_note(health::EventKind::shed, "lcm", "shed_data",
                                 cfg_.max_inbound_queue);
            if (trace::enabled() && tctx.valid()) {
              trace::record_event(tctx, "lcm", "shed", identity_->name());
            }
          }
          return;
        }
        case wire::LcmKind::request: {
          in.is_request = true;
          in.reply_ctx =
              ReplyCtx{ev.via, m.header.req_id, m.header.src, in.trace};
          received_.inc();
          if (trace::enabled() && in.trace.valid()) {
            trace::record_event(in.trace, "lcm", "deliver",
                                identity_->name());
          }
          const trace::TraceContext tctx = in.trace;
          const bool internal = in.internal;
          const std::uint32_t req_id = m.header.req_id;
          const UAdd requester = m.header.src;
          auto st = internal ? app_queue_.push_control(std::move(in))
                             : app_queue_.push(std::move(in));
          if (!st.ok() && st.code() == ntcs::Errc::no_resource) {
            // Bounded queue full: shed the request and tell the sender so
            // with a busy reply — it pauses admission toward us instead of
            // retrying, and its caller gets the retriable overloaded. The
            // reply counts as it is issued, in step with the shed.
            shed_.inc();
            busy_frames_.inc();
            health::journal_note(health::EventKind::shed, "lcm", "shed_req",
                                 cfg_.max_inbound_queue);
            if (trace::enabled() && tctx.valid()) {
              trace::record_event(tctx, "lcm", "shed", identity_->name());
            }
            wire::LcmHeader bh;
            bh.kind = wire::LcmKind::reply;
            bh.flags = wire::kLcmFlagInternal | wire::kLcmFlagBusy;
            bh.src = identity_->uadd();
            bh.dst = requester;
            bh.req_id = req_id;
            bh.mode = convert::xfer_mode_wire_id(convert::XferMode::image);
            bh.src_arch = convert::arch_wire_id(identity_->arch());
            wire::HeaderBuf head;
            head.push_lcm(bh);
            (void)ip_.send(ev.via, head, {});
          }
          return;
        }
        case wire::LcmKind::reply: {
          if ((m.header.flags & wire::kLcmFlagBusy) != 0) {
            // The peer shed our request (back-pressure): pause admission
            // toward it and fail the request retriably — await() does NOT
            // re-send (only address faults retry; hammering an overloaded
            // peer is exactly what the busy frame asks us not to do).
            busy_received_.inc();
            health::journal_note(health::EventKind::busy, "lcm", "busy_recv");
            if (t && t->window) {
              ntcs::LockGuard wl(t->window->mu);
              t->window->busy_until =
                  std::chrono::steady_clock::now() + cfg_.busy_pause;
            }
            complete(t, ntcs::Error(ntcs::Errc::overloaded,
                                    "request shed by overloaded receiver"));
            return;
          }
          Reply r;
          r.payload = std::move(in.payload);
          r.mode = in.mode;
          r.src_arch = in.src_arch;
          if (trace::enabled() && in.trace.valid()) {
            trace::record_event(in.trace, "lcm", "complete",
                                identity_->name());
          }
          complete(t, std::move(r));
          return;
        }
      }
      return;
    }
    case IpEvent::Kind::ivc_closed: {
      // Every request pending on the dead circuit faults *individually*:
      // each awaiter observes address_fault on its own ticket and drives
      // its own §3.5 retry — there is no per-circuit failure sweep that
      // could cross-wire or double-complete requests.
      std::vector<RequestTicket> broken;
      {
        ntcs::LockGuard lk(mu_);
        for (auto it = conns_.begin(); it != conns_.end();) {
          if (it->second == ev.via) {
            reconnect_pending_.insert(it->first);
            it = conns_.erase(it);
          } else {
            ++it;
          }
        }
        for (auto& [id, t] : pending_) {
          if (t->via_lvc.load() == ev.via.lvc &&
              t->via_ivc.load() == ev.via.ivc) {
            broken.push_back(t);
          }
        }
      }
      for (auto& t : broken) {
        // Re-check under the ticket lock: a fault retry inside the send
        // path may have re-stamped the request onto a new circuit since
        // the sweep above read it (stamp_circuit).
        bool faulted = false;
        {
          ntcs::LockGuard sl(t->mu);
          if (!t->result && t->via_lvc.load() == ev.via.lvc &&
              t->via_ivc.load() == ev.via.ivc) {
            t->result = ntcs::Error(ntcs::Errc::address_fault,
                                    "circuit closed while awaiting reply");
            t->cv.notify_all();
            faulted = true;
          }
        }
        if (faulted) release_window(*t);
      }
      return;
    }
  }
}

void LcmLayer::complete(const RequestTicket& t, ntcs::Result<Reply> result) {
  if (!t) return;  // late reply after timeout: dropped
  {
    ntcs::LockGuard sl(t->mu);
    if (!t->result) {
      t->result = std::move(result);
      t->cv.notify_all();
    }
  }
  // The request is finished the moment its result exists — its window slot
  // frees immediately, not when the awaiter gets scheduled.
  release_window(*t);
}

void LcmLayer::shutdown() {
  health::journal_note(health::EventKind::transition, "lcm", "shutdown");
  app_queue_.close();
  std::vector<RequestTicket> pending;
  std::vector<std::shared_ptr<LcmSendWindow>> windows;
  {
    ntcs::LockGuard lk(mu_);
    for (auto& [id, t] : pending_) pending.push_back(t);
    for (auto& [dst, w] : windows_) windows.push_back(w);
  }
  // Wake window waiters first so nobody blocks on a slot that a dying
  // request will never free.
  for (auto& w : windows) {
    {
      ntcs::LockGuard lk(w->mu);
      w->closed = true;
    }
    w->cv.notify_all();
  }
  for (auto& t : pending) {
    {
      ntcs::LockGuard sl(t->mu);
      if (!t->result) {
        t->result =
            ntcs::Error(ntcs::Errc::shutdown, "module shutting down");
        t->cv.notify_all();
      }
    }
    release_window(*t);
  }
}

UAdd LcmLayer::current_target(UAdd dst) {
  ntcs::LockGuard lk(mu_);
  return chase_forward_locked(dst);
}

}  // namespace ntcs::core
