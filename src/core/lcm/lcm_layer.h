// lcm_layer.h — the Logical Connection Maintenance Layer (paper §2.2, §3.5).
//
// "Support for dynamic reconfiguration is handled by the Logical Connection
// Maintenance Layer. Its primary function is to relocate modules which may
// have moved, and to recover from broken connections, though it also
// provides a connectionless protocol. No explicit open or close primitives
// are provided at the Nucleus interface; messages are simply sent/received
// directly to/from the desired destinations, with the underlying IVCs
// being established as needed."
//
// The address-fault path (§3.5): a failed open, or a circuit that closed
// under a destination (seen by the close event or by a send failing on
// it), is an address fault. The LCM-Layer consults its local
// forwarding-address table, then the NSP-Layer (an address-fault handler
// querying the naming service for a forwarding UAdd), installs the new
// mapping, re-establishes the circuit exactly as an initial connection,
// and resends. For a UAdd the naming service minted, a closed circuit
// asks first: the forwarding query precedes any reopen, so a relocated
// module costs one forward, one resolve and one open — never a round of
// open retries against the address it left. Any answer but a successor
// reopens the cached address as before. Only a retry that repeats a
// failed open or send toward the same target is paced by the fault
// backoff. Well-known destinations (the Name Server, its shards and
// standbys, replica links, prime gateways) never ask first; the Name
// Server's own are never asked about at all (§6.3).
//
// This layer also hosts the two recursion hooks of §6.1 — the distributed
// time stamp taken on every monitored send, and the monitor record emitted
// after it — plus the recursion guard that patches the Name-Server
// dead-circuit loop of §6.3 (reproducible by setting
// LcmConfig::reproduce_ns_fault_bug).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "common/annotated.h"
#include "common/backoff.h"
#include "common/trace.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/queue.h"
#include "common/rng.h"
#include "convert/mode.h"
#include "core/identity.h"
#include "core/ip/ip_layer.h"

namespace ntcs::core {

/// Outbound message body: the contiguous memory image plus the
/// application-supplied pack routine (§5.1). When `pack` is empty the
/// payload is treated as representation-free bytes and always travels in
/// image mode (the application asserts compatibility).
struct Payload {
  ntcs::Bytes image;
  std::function<ntcs::Result<ntcs::Bytes>()> pack;

  static Payload raw(ntcs::Bytes bytes) {
    Payload p;
    p.image = std::move(bytes);
    return p;
  }
};

/// Context needed to answer a request: replies travel back down the
/// circuit the request arrived on — no address resolution involved.
struct ReplyCtx {
  IvcHandle via;
  std::uint32_t req_id = 0;
  UAdd requester;
  /// The requester's trace context as carried in the request's wire header
  /// (invalid when the request was untraced). reply() re-enters it so the
  /// reply leg joins the requester's trace.
  trace::TraceContext trace;

  bool valid() const { return via.valid(); }
};

/// One received message, as handed to the application (or the Name Server,
/// or a DRTS service — they all use the same interface).
struct Incoming {
  UAdd src;
  ntcs::Bytes payload;
  convert::XferMode mode = convert::XferMode::image;
  convert::Arch src_arch = convert::Arch::vax780;
  bool is_request = false;
  bool internal = false;
  ReplyCtx reply_ctx;
  /// Trace context from the wire header (invalid when untraced); lets a
  /// receiving module parent further work on the sender's trace.
  trace::TraceContext trace;
};

/// A synchronous request's answer.
struct Reply {
  ntcs::Bytes payload;
  convert::XferMode mode = convert::XferMode::image;
  convert::Arch src_arch = convert::Arch::vax780;
};

struct SendOptions {
  /// NTCS/DRTS-internal traffic: suppresses the monitoring and time hooks
  /// (§6.1: "time correction and monitoring are disabled here, to avoid
  /// the obvious infinite recursion").
  bool internal = false;
  std::chrono::nanoseconds timeout{std::chrono::seconds(5)};
};

/// One in-flight pipelined request: an entry in the LCM-Layer's
/// pending-request table, keyed by the correlation ID stamped into the
/// LCM wire header. Opaque to callers — obtained from request_async(),
/// redeemed with await().
struct PendingRequest;
using RequestTicket = std::shared_ptr<PendingRequest>;

/// Per-destination sliding send window (internal).
struct LcmSendWindow;

/// The naming-service face the LCM-Layer sees (implemented by the
/// NSP-Layer — the recursion of §3.1).
class Resolver {
 public:
  virtual ~Resolver() = default;
  /// UAdd -> physical address + logical network.
  virtual ntcs::Result<ResolvedDest> resolve(UAdd uadd) = 0;
  /// Address-fault query (§3.5): has `old` been replaced? Errors:
  /// still_alive (reconnect to the same module), not_found (no successor).
  virtual ntcs::Result<UAdd> forward(UAdd old) = 0;
};

/// Corrected-time source (DRTS time service; §6.1).
using TimeSource = std::function<std::int64_t()>;

/// One monitor data point, emitted after each successful monitored send.
struct MonitorSample {
  UAdd src;
  UAdd dst;
  std::uint64_t bytes = 0;
  std::int64_t timestamp_ns = 0;
  bool request = false;
};
using MonitorHook = std::function<void(const MonitorSample&)>;

/// Exception reporting (§6.3: "a running table of errors could be
/// maintained and monitored"). Called on every handled address fault and
/// recursion-guard trip; the DRTS error-log client is the usual sink.
using ErrorHook =
    std::function<void(std::string_view layer, ntcs::Errc code,
                       std::string_view text)>;

struct LcmConfig {
  std::chrono::nanoseconds request_timeout{std::chrono::seconds(5)};
  /// Address-fault recovery attempts per send.
  int fault_retries = 3;
  /// Sliding send-window depth per destination circuit: how many requests
  /// may be outstanding toward one destination before further callers
  /// block (fair FIFO wakeup). Values below 1 are clamped to 1.
  int window_depth = 32;
  /// Backoff between recovery attempts: re-establishment "exactly as an
  /// initial connection" (§3.5) against a flapping or mid-reconfiguration
  /// destination should not spin at full speed.
  BackoffPolicy fault_backoff{std::chrono::milliseconds(1),
                              std::chrono::milliseconds(16), 2.0, 0.5};
  /// Depth bound on NTCS-internal recursion (the §6.3 patch).
  int max_recursion_depth = 8;
  /// Re-enable the paper's Name-Server dead-circuit recursion bug (§6.3)
  /// for demonstration: the fault handler consults the naming service
  /// even when the faulted destination *is* the Name Server.
  bool reproduce_ns_fault_bug = false;
  /// Bound on the inbound application-message queue (messages). At the
  /// bound further data-plane deliveries are shed: data/dgrams are dropped
  /// (counted in lcm.shed), requests additionally earn a busy reply frame
  /// that pauses the sender's admission. 0 = unbounded (tests only).
  std::size_t max_inbound_queue = 4096;
  /// Slots of max_inbound_queue reserved for control-class traffic —
  /// NSP lookups, DRTS harvests, anything sent with opts.internal — so a
  /// data-plane overload storm cannot starve the control plane of queue
  /// admission.
  std::size_t control_reserve = 256;
  /// How long a sender pauses request admission toward a destination after
  /// that destination sheds one of its requests (busy-frame back-pressure,
  /// wire::kLcmFlagBusy). Admission resumes automatically; callers whose
  /// deadline falls inside the pause are rejected fast with overloaded.
  std::chrono::nanoseconds busy_pause{std::chrono::milliseconds(2)};
};

class LcmLayer {
 public:
  /// Counters go to `metrics`, the owning module's scope.
  LcmLayer(IpLayer& ip, std::shared_ptr<Identity> identity,
           metrics::MetricsRegistry& metrics, LcmConfig cfg = {});

  LcmLayer(const LcmLayer&) = delete;
  LcmLayer& operator=(const LcmLayer&) = delete;

  void set_resolver(Resolver* r);
  void set_time_source(TimeSource t);
  void set_monitor_hook(MonitorHook m);
  void set_error_hook(ErrorHook e);

  /// Load the well-known address table (§3.4) so the Name Server and prime
  /// gateways are reachable before — and without — any naming service.
  /// Replica entries become failover candidates: when the circuit to the
  /// Name Server faults, the patched handler (§6.3) rotates to the next
  /// candidate's physical address.
  void preload_well_known(const WellKnownTable& wk);

  /// Pre-resolve a destination (infrastructure use: the primary Name
  /// Server addresses its replicas this way; no resolver could). Like a
  /// Name-Server candidate, the address is pinned: a fault toward it
  /// reconnects there and never asks the naming service (§6.3).
  void cache_destination(UAdd uadd, ResolvedDest dest);

  /// Asynchronous send on a (virtual) conversation. The BytesView forms
  /// (here, reply() and dgram()) send representation-free bytes in image
  /// mode straight from the caller's buffer.
  ntcs::Status send(UAdd dst, const Payload& p, SendOptions opts = {});
  ntcs::Status send(UAdd dst, ntcs::BytesView image, SendOptions opts = {});

  /// Synchronous send/receive/reply: send a request, wait for the reply.
  /// Equivalent to request_async() + await().
  ntcs::Result<Reply> request(UAdd dst, const Payload& p,
                              SendOptions opts = {});
  ntcs::Result<Reply> request(UAdd dst, Payload&& p, SendOptions opts = {});

  /// Pipelined request issue: stamps a fresh correlation ID, admits the
  /// request through the destination's send window (blocking fairly when
  /// the window is full), sends it, and returns without waiting for the
  /// reply — so N independent requests ride one IVC concurrently. The
  /// request's deadline is fixed here (opts.timeout from now, with the
  /// configured default when zero) and covers admission, transmission,
  /// retries, and the reply wait. The ticket owns the payload for retries:
  /// the Payload&& form moves it in, the const& form copies it once.
  ntcs::Result<RequestTicket> request_async(UAdd dst, const Payload& p,
                                            SendOptions opts = {});
  ntcs::Result<RequestTicket> request_async(UAdd dst, Payload&& p,
                                            SendOptions opts = {});

  /// Redeem a ticket: wait for the reply (or the ticket's deadline). If
  /// the circuit faults while the request is pending, the §3.5 recovery
  /// machinery runs *for this request alone* — it is re-sent with a fresh
  /// correlation ID against the relocated destination, under the same
  /// deadline — while other requests on the circuit fail and retry
  /// independently. await() may be called once per ticket.
  ntcs::Result<Reply> await(const RequestTicket& t);

  /// Answer a received request.
  ntcs::Status reply(const ReplyCtx& ctx, const Payload& p);
  ntcs::Status reply(const ReplyCtx& ctx, ntcs::BytesView image);

  /// Connectionless protocol: best effort, no relocation recovery.
  ntcs::Status dgram(UAdd dst, const Payload& p, SendOptions opts = {});
  ntcs::Status dgram(UAdd dst, ntcs::BytesView image, SendOptions opts = {});

  /// Blocking receive of the next application-bound message.
  ntcs::Result<Incoming> receive(std::chrono::nanoseconds timeout);

  /// Pump integration (never blocks). A message is decoded in place; its
  /// payload is copied once, into the Incoming or Reply it becomes.
  void on_ip_event(const IpEvent& ev);

  /// Fail all waiters and close the receive queue.
  void shutdown();

  /// Where sends to `dst` currently go after forwarding (for tests).
  UAdd current_target(UAdd dst);

 private:
  /// An outbound body as the send path sees it: a view of the image plus
  /// the pack routine, if any — never a copy of the caller's bytes.
  struct Body {
    ntcs::BytesView image;
    const std::function<ntcs::Result<ntcs::Bytes>()>* pack = nullptr;

    static Body of(const Payload& p) {
      return Body{p.image, p.pack ? &p.pack : nullptr};
    }
  };

  /// Where a send to some destination goes: the live end of its
  /// forwarding chain (§3.5) and the circuit to it, when one is open.
  /// `closed`: there is none because it closed under us, and the naming
  /// service is to be asked before reopening (asks_first_locked).
  struct Route {
    UAdd cur;
    IvcHandle h;
    bool have = false;
    bool closed = false;
  };
  Route route_locked(UAdd dst) REQUIRES(mu_);
  /// Whether a circuit that closed under `cur` asks the naming service
  /// before reopening: `cur` is a minted UAdd, never a well-known or
  /// pinned one, and there is a resolver to ask.
  bool asks_first_locked(UAdd cur) const REQUIRES(mu_);
  /// Follow the forwarding-address table (§3.5).
  UAdd chase_forward_locked(UAdd dst) REQUIRES(mu_);
  ntcs::Result<ResolvedDest> resolved_for(UAdd dst);
  /// Core send with circuit establishment and address-fault recovery.
  /// On success returns the IVC used. A request's ticket (`stamp`) is
  /// stamped with each circuit before the frame leaves on it. `first`, if
  /// given, is the first attempt's route, already looked up by the caller.
  ntcs::Result<IvcHandle> send_message(UAdd dst, wire::LcmKind kind,
                                       std::uint32_t req_id, const Body& body,
                                       const SendOptions& opts,
                                       int fault_retries,
                                       PendingRequest* stamp = nullptr,
                                       const Route* first = nullptr);
  /// The wire image of a body for the peer on `lvc`: a view of the
  /// caller's image, or of `packed` when the pack routine ran.
  ntcs::Result<ntcs::BytesView> encode_body(const Body& body, LvcId lvc,
                                            convert::XferMode& mode_out,
                                            ntcs::Bytes& packed);
  ntcs::Status send_body(UAdd dst, const Body& body, SendOptions opts);
  ntcs::Status reply_body(const ReplyCtx& ctx, const Body& body);
  ntcs::Status dgram_body(UAdd dst, const Body& body, SendOptions opts);
  /// (Re-)issue a pending request: fresh correlation ID, table insert,
  /// window admission, send.
  ntcs::Status issue(const RequestTicket& t);
  /// Deliver a result to a pending request found in the table (null: the
  /// request already finished, and the result is dropped) and free its
  /// window slot.
  void complete(const RequestTicket& t, ntcs::Result<Reply> result);
  std::shared_ptr<LcmSendWindow> window_locked(UAdd dst) REQUIRES(mu_);
  /// Admission through the request's send window; `parked` tells whether
  /// it had to wait for a slot.
  ntcs::Status acquire_window(PendingRequest& req, bool& parked);
  void release_window(PendingRequest& req);

  IpLayer& ip_;
  std::shared_ptr<Identity> identity_;
  LcmConfig cfg_;
  ntcs::LayerLog log_;

  // lcm.state: outermost Nucleus lock — held while resolution results are
  // seeded into the ND physical cache (lcm.state < nd.state); never held
  // across IP-Layer opens/sends or window/request waits.
  mutable ntcs::Mutex mu_{ntcs::lockrank::kLcmState, "lcm.state"};
  ntcs::Rng rng_ GUARDED_BY(mu_);  // fault-retry jitter
  std::unordered_map<UAdd, IvcHandle> conns_ GUARDED_BY(mu_);
  // Destinations whose circuit died underneath us (ivc_closed). One that
  // asks first keeps its mark until the fault handler installs the
  // forwarding answer, so no concurrent sender reopens a dead address; the
  // handler consumes it. Any other is cleared by the next successful open,
  // which counts as a reconnect even when the closed notification beat the
  // send to the conns_ cleanup.
  std::unordered_set<UAdd> reconnect_pending_ GUARDED_BY(mu_);
  std::unordered_map<UAdd, UAdd> forwards_ GUARDED_BY(mu_);
  std::unordered_map<UAdd, ResolvedDest> resolved_cache_ GUARDED_BY(mu_);
  /// The pending-request table: correlation ID -> in-flight request. A
  /// retried request re-enters under its fresh ID; await() removes it.
  std::unordered_map<std::uint32_t, RequestTicket> pending_ GUARDED_BY(mu_);
  /// Per-destination send windows (a destination ≈ one circuit; conns_
  /// is keyed the same way).
  std::unordered_map<UAdd, std::shared_ptr<LcmSendWindow>> windows_
      GUARDED_BY(mu_);
  metrics::MetricsRegistry& metrics_;
  // Monitored (application) traffic. NTCS/DRTS-internal sends, requests
  // and dgrams — NSP queries, monitor samples, time-service exchanges —
  // count once, under lcm.internal_sends: the same exemption §6.1 applies
  // to the monitor hook, so observing the system does not move the
  // numbers it reports.
  metrics::Counter& sends_ = metrics_.counter("lcm.sends");
  metrics::Counter& requests_ = metrics_.counter("lcm.requests");
  metrics::Counter& dgrams_ = metrics_.counter("lcm.dgrams");
  metrics::Counter& internal_sends_ = metrics_.counter("lcm.internal_sends");
  metrics::Counter& replies_ = metrics_.counter("lcm.replies");
  metrics::Counter& received_ = metrics_.counter("lcm.received");
  metrics::Counter& decode_drops_ = metrics_.counter("lcm.decode_drops");
  // UAdd -> destination memoization (resolved_cache_); the name -> UAdd
  // lease cache and its nsp.cache_* counters live in the NSP-Layer.
  metrics::Counter& resolve_hits_ = metrics_.counter("lcm.resolve_hits");
  metrics::Counter& resolve_misses_ = metrics_.counter("lcm.resolve_misses");
  metrics::Counter& address_faults_ = metrics_.counter("lcm.address_faults");
  metrics::Counter& fault_backoffs_ = metrics_.counter("lcm.fault_backoffs");
  metrics::Counter& relocations_ = metrics_.counter("lcm.relocations");
  metrics::Counter& reconnects_ = metrics_.counter("lcm.reconnects");
  metrics::Counter& recursion_trips_ =
      metrics_.counter("lcm.recursion_trips");
  metrics::Counter& tadds_promoted_ = metrics_.counter("lcm.tadds_promoted");
  metrics::Counter& window_stalls_ = metrics_.counter("lcm.window_stalls");
  metrics::Counter& waiter_sweeps_ = metrics_.counter("lcm.waiter_sweeps");
  metrics::Counter& admission_rejects_ =
      metrics_.counter("lcm.admission_rejects");
  metrics::Counter& busy_pauses_ = metrics_.counter("lcm.busy_pauses");
  metrics::Counter& busy_received_ = metrics_.counter("lcm.busy_received");
  metrics::Counter& shed_ = metrics_.counter("lcm.shed");
  metrics::Counter& busy_frames_ = metrics_.counter("lcm.busy_frames");
  /// Pinned destinations and their candidates: per well-known NS UAdd (the
  /// classic server plus one entry per shard) primary first, then
  /// standby/replicas; per cache_destination entry (a primary's replica
  /// links) its one address. The address-fault path rotates through them
  /// instead of consulting the resolver — the §6.3 rule that the stack
  /// never asks the naming service about the naming service.
  struct CandidateSet {
    std::vector<ResolvedDest> dests;
    std::size_t idx = 0;
  };
  std::unordered_map<UAdd, CandidateSet> candidates_ GUARDED_BY(mu_);
  Resolver* resolver_ = nullptr;
  TimeSource time_source_;
  MonitorHook monitor_hook_;
  ErrorHook error_hook_;
  // sync: request-ID allocator, relaxed fetch_add; IDs only need process
  // uniqueness within the pending_ window.
  std::atomic<std::uint32_t> next_req_id_{1};
  // bound: LcmConfig::max_inbound_queue, with control_reserve slots kept
  // for internal-class deliveries (overload control).
  ntcs::BlockingQueue<Incoming> app_queue_;
};

}  // namespace ntcs::core
