// ip_layer.h — the Internet Protocol Layer (paper §2.2, §4).
//
// "The Internet Protocol Layer, in conjunction with one or more Gateway
// modules, provides internet virtual circuits (IVCs) across disjoint
// networks and machines. IVCs are established either as a single LVC on
// the local network, or as a chained set of LVCs linked through one or
// more Gateways as required."
//
// The internet scheme (§4.2) decentralises circuit routing and
// establishment while centralising topology in the naming service: this
// layer fetches the gateway registry through an injected topology source
// (the NSP-Layer — the recursion of §4.1), computes the route itself, and
// establishes the chain hop-by-hop with EXTEND messages. "No inter-gateway
// communication ever takes place" beyond the circuits themselves.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "common/annotated.h"
#include "common/backoff.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "core/nd/nd_layer.h"
#include "core/wire/frames.h"

namespace ntcs::core {

/// An internet virtual circuit endpoint at this node: the local LVC it
/// rides plus the originator-chosen circuit id (unique per LVC).
struct IvcHandle {
  LvcId lvc = 0;
  std::uint64_t ivc = 0;

  bool valid() const { return lvc != 0 && ivc != 0; }
  friend bool operator==(const IvcHandle&, const IvcHandle&) = default;
};

struct IvcHandleHash {
  std::size_t operator()(const IvcHandle& h) const noexcept {
    return std::hash<std::uint64_t>{}(h.lvc * 0x9E3779B97F4A7C15ULL ^ h.ivc);
  }
};

/// Destination info the LCM-Layer resolved through the naming service.
struct ResolvedDest {
  UAdd uadd;
  PhysAddr phys;
  NetName net;
};

/// One gateway as registered with the naming service (§4.1): its logical
/// name, its UAdd, and the networks it connects with a physical address on
/// each.
struct GatewayRecord {
  UAdd uadd;
  std::string name;
  std::vector<NetName> nets;
  std::vector<PhysAddr> phys;  // parallel to nets
};

/// What the IP-Layer reports upward to the LCM-Layer.
struct IpEvent {
  enum class Kind : std::uint8_t { message, ivc_closed };
  Kind kind;
  IvcHandle via;
  /// kind == message: a view into the ND event's buffer, valid for the
  /// duration of the upcall.
  ntcs::BytesView lcm_msg;
  /// kind == message: NdEvent::peer_temporary of the carrying LVC.
  bool peer_temporary = false;
};

/// Where the IP-Layer hands its events (the LCM-Layer, on the pump).
using IpEventSink = std::function<void(const IpEvent&)>;

class IpLayer;

/// Implemented by the Gateway module (gateway.h). The pump thread hands
/// EXTEND requests here and the gateway's worker thread (which may block)
/// takes over — the pump itself must never block.
class GatewayHook {
 public:
  virtual ~GatewayHook() = default;
  virtual void on_extend(IpLayer* in, LvcId in_lvc, std::uint64_t ivc,
                         wire::ExtendBody body) = 0;
};

struct IpConfig {
  std::chrono::nanoseconds extend_timeout{std::chrono::seconds(10)};
  /// How long a gateway attachment that failed to open stays out of route
  /// computation (decentralised failover: the route is recomputed around
  /// it, §4.2).
  std::chrono::nanoseconds gateway_blacklist{std::chrono::seconds(5)};
  /// Total open attempts per open_ivc call. Transient failures (timeout,
  /// partition — e.g. a flapping link) retry the same route after a
  /// backoff; permanent ones (refused, address fault on the first hop)
  /// blacklist the hop, refresh the topology and route around it.
  int extend_attempts = 3;
  BackoffPolicy extend_backoff{std::chrono::milliseconds(1),
                               std::chrono::milliseconds(16), 2.0, 0.5};
  /// Per-peer fairness at a gateway: each relayed circuit gets its own
  /// token bucket of this many data frames per second, so one hot peer
  /// cannot starve the relay for everyone else. Control-class frames
  /// (kLcmFlagInternal — NSP, DRTS, replies) bypass the meter. 0 disables
  /// metering (the default; overload deployments turn it on, also at
  /// runtime via set_relay_fair_rate).
  std::uint64_t relay_fair_rate = 0;
};

class IpLayer {
 public:
  /// Counters go to `metrics`, the owning module's scope.
  IpLayer(NdLayer& nd, std::shared_ptr<Identity> identity,
          metrics::MetricsRegistry& metrics, NetName local_net,
          IpConfig cfg = {});

  IpLayer(const IpLayer&) = delete;
  IpLayer& operator=(const IpLayer&) = delete;

  /// The naming-service topology query, injected by the Node (recursion:
  /// the layer below the naming service uses the naming service, §4.1).
  using TopologySource =
      std::function<ntcs::Result<std::vector<GatewayRecord>>()>;
  void set_topology_source(TopologySource src);

  /// The well-known prime gateways (§3.4: they "may be required to reach
  /// the Name Server"). Routes toward well-known UAdds (the Name Server
  /// and the primes themselves) are computed from this static table only,
  /// so bootstrap never recurses into the naming service.
  void set_prime_gateways(std::vector<GatewayRecord> primes);

  /// Make this attachment part of a Gateway module.
  void set_gateway(GatewayHook* gw);

  /// Establish an IVC to a resolved destination. Blocking (app threads and
  /// gateway workers only — never the pump).
  ntcs::Result<IvcHandle> open_ivc(const ResolvedDest& dst);

  /// Send one LCM message down an established IVC. Non-blocking.
  ntcs::Status send(IvcHandle h, ntcs::BytesView lcm_msg);
  /// The gather form: the LCM message is `head` (its header, encoded in
  /// place) followed by `payload`; the IP prologue is pushed onto `head`.
  ntcs::Status send(IvcHandle h, wire::HeaderBuf& head,
                    ntcs::BytesView payload);

  /// Tear down an IVC (propagates along the chain).
  ntcs::Status close_ivc(IvcHandle h);

  /// Pump integration: translate one ND event into zero or more LCM-facing
  /// events handed to `up`, performing relaying and circuit management on
  /// the way.
  void on_nd_event(const NdEvent& ev, const IpEventSink& up);

  // ---- gateway support (called from Gateway worker threads) -------------
  struct ExtendWait {
    // ip.extend_wait: the gateway worker holds it across the whole EXTEND
    // round trip, during which relay state is installed under ip.state.
    ntcs::Mutex mu{ntcs::lockrank::kIpExtendWait, "ip.extend_wait"};
    ntcs::CondVar cv;
    std::optional<ntcs::Status> result GUARDED_BY(mu);
  };
  /// Per-relayed-circuit token bucket (fairness metering). Refilled and
  /// spent with plain atomics on the pump fast path — no lock is ever
  /// taken for a metering decision.
  struct RelayMeter {
    // sync: relaxed token-bucket words; the pump is the only spender and
    // a racing refill can at worst round a debit in the peer's favor.
    std::atomic<std::int64_t> tokens{0};
    std::atomic<std::int64_t> last_refill_ns{0};  // 0 = not yet primed
  };

  std::shared_ptr<ExtendWait> register_extend_waiter(IvcHandle h);
  void unregister_extend_waiter(IvcHandle h);
  /// Install a relay mapping: traffic on `in` is forwarded to `out` on
  /// `out_ip` (and the gateway installs the mirror mapping on `out_ip`).
  void add_relay(IvcHandle in, IpLayer* out_ip, IvcHandle out);
  /// Mark an inbound circuit terminal (used for gateway-originated opens).
  void mark_established(IvcHandle h);

  NdLayer& nd() { return nd_; }
  const NetName& local_net() const { return local_net_; }

  /// Drop the cached gateway registry (after a routing failure, §4.2:
  /// "locally cached values will likely be correct since reconfiguration
  /// is infrequent" — but when they are not, refresh).
  void invalidate_topology();

  /// Route computation, exposed for tests: the full hop list including the
  /// final destination hop.
  ntcs::Result<std::vector<wire::RouteHop>> compute_route(
      const ResolvedDest& dst);

  /// Failover: exclude a gateway attachment from route computation for a
  /// while (open_ivc does this automatically after a dead first hop).
  void blacklist_hop(const std::string& phys);
  bool hop_blacklisted(const std::string& phys) const;

  /// Change the per-peer relay fairness rate at runtime (frames/s per
  /// relayed circuit; 0 disables). Lock-free; takes effect on the next
  /// relayed frame.
  void set_relay_fair_rate(std::uint64_t per_circuit_fps) {
    relay_fair_rate_.store(per_circuit_fps, std::memory_order_relaxed);
  }

  /// The one read perfbench's relocation workload waits on
  /// (perfbench/workloads.cpp); everything else reads ip.ivcs_closed from
  /// the module's metrics scope.
  struct Stats {
    std::uint64_t ivcs_closed = 0;
  };
  Stats stats() const { return Stats{ivcs_closed_.value()}; }

 private:
  enum class IvcRole : std::uint8_t { originator, terminal };
  struct IvcState {
    IvcRole role;
    bool established = false;
  };
  struct RelayTarget {
    IpLayer* out = nullptr;
    IvcHandle out_h;
    std::shared_ptr<RelayMeter> meter;
  };

  ntcs::Result<std::vector<GatewayRecord>> topology(bool static_only);
  void on_lvc_closed(LvcId lvc, const IpEventSink& up);
  void on_envelope(const NdEvent& ev, const wire::IpView& env,
                   ntcs::BytesView envelope, const IpEventSink& up);
  void drop_undecodable(const ntcs::Error& e);
  void remove_relay_entry(IvcHandle h);

  NdLayer& nd_;
  std::shared_ptr<Identity> identity_;
  NetName local_net_;
  IpConfig cfg_;
  ntcs::LayerLog log_;

  // ip.state: leaf within the Nucleus proper — never held across ND-Layer
  // calls (routes are computed from copies; sends happen after release).
  mutable ntcs::Mutex mu_{ntcs::lockrank::kIpState, "ip.state"};
  ntcs::Rng rng_ GUARDED_BY(mu_);  // extend-retry jitter
  std::unordered_map<IvcHandle, IvcState, IvcHandleHash> ivcs_ GUARDED_BY(mu_);
  std::unordered_map<IvcHandle, RelayTarget, IvcHandleHash> relays_
      GUARDED_BY(mu_);
  std::unordered_map<IvcHandle, std::shared_ptr<ExtendWait>, IvcHandleHash>
      extend_waiters_ GUARDED_BY(mu_);
  TopologySource topo_source_ GUARDED_BY(mu_);
  std::vector<GatewayRecord> static_gws_ GUARDED_BY(mu_);
  std::optional<std::vector<GatewayRecord>> topo_cache_ GUARDED_BY(mu_);
  std::unordered_map<std::string, std::chrono::steady_clock::time_point>
      hop_blacklist_ GUARDED_BY(mu_);
  GatewayHook* gateway_ GUARDED_BY(mu_) = nullptr;
  std::uint64_t next_ivc_ GUARDED_BY(mu_) = 1;
  // sync: config word read on the relay fast path without mu_; a stale
  // rate meters one frame under the old policy.
  std::atomic<std::uint64_t> relay_fair_rate_{0};
  metrics::MetricsRegistry& metrics_;
  metrics::Counter& ivcs_opened_ = metrics_.counter("ip.ivcs_opened");
  metrics::Counter& ivcs_accepted_ = metrics_.counter("ip.ivcs_accepted");
  metrics::Counter& ivcs_closed_ = metrics_.counter("ip.ivcs_closed");
  metrics::Counter& extend_failures_ = metrics_.counter("ip.extend_failures");
  metrics::Counter& extend_transient_retries_ =
      metrics_.counter("ip.extend_transient_retries");
  metrics::Counter& topology_fetches_ =
      metrics_.counter("ip.topology_fetches");
  // Relay entries found for inbound data (before fairness metering).
  metrics::Counter& messages_relayed_ =
      metrics_.counter("ip.messages_relayed");
  // Relayed data forwarded onward: an N-hop send adds N process-wide.
  metrics::Counter& hops_forwarded_ = metrics_.counter("ip.hops_forwarded");
  metrics::Counter& fairness_drops_ = metrics_.counter("gw.fairness_drops");
  metrics::Counter& relay_drops_ = metrics_.counter("ip.relay_drops");
  metrics::Counter& relay_teardowns_ = metrics_.counter("ip.relay_teardowns");
  metrics::Counter& stray_drops_ = metrics_.counter("ip.stray_drops");
  metrics::Counter& decode_drops_ = metrics_.counter("ip.decode_drops");
};

}  // namespace ntcs::core
