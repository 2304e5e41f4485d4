// fabric.h — the simulated internetwork of machines, networks and IPCSs.
//
// Stands in for the paper's hardware environment (DESIGN.md §2): machines
// with distinct architectures and skewed clocks, attached to one or more
// networks with configurable latency/loss/partition, each machine offering
// a TCP-like and an MBX-like native IPCS. Disjoint networks are *only*
// bridgeable through NTCS Gateway modules — the fabric itself never routes
// between networks, exactly like the paper's underlying IPCSs (§2.2: the
// ND-Layer "is not capable of communicating between machines on networks
// which are not supported directly by the endpoint IPCSs").
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/annotated.h"
#include "common/error.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "convert/machine.h"
#include "simnet/endpoint.h"
#include "simnet/types.h"

namespace ntcs::simnet {

/// The fabric. Thread-safe. Must outlive every Endpoint bound through it.
class Fabric {
 public:
  explicit Fabric(std::uint64_t seed = 1);
  ~Fabric();
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  // --- topology construction -------------------------------------------
  NetworkId add_network(std::string name, NetConfig cfg = {});
  MachineId add_machine(std::string name, convert::Arch arch,
                        std::vector<NetworkId> networks);
  void attach_machine(MachineId m, NetworkId n);

  std::optional<NetworkId> network_by_name(std::string_view name) const;
  std::optional<MachineId> machine_by_name(std::string_view name) const;
  // By value: a reference into machines_/nets_ would dangle as soon as a
  // concurrent add_machine/add_network reallocates the vector.
  std::string machine_name(MachineId m) const;
  std::string network_name(NetworkId n) const;
  convert::Arch machine_arch(MachineId m) const;
  std::vector<NetworkId> machine_networks(MachineId m) const;
  std::size_t machine_count() const;
  std::size_t network_count() const;

  // --- per-machine clocks (skew for the DRTS time service) --------------
  void set_clock_offset(MachineId m, std::chrono::nanoseconds offset);
  /// The machine's local clock reading (real steady clock + its skew).
  std::chrono::nanoseconds machine_now(MachineId m) const;

  // --- failure / latency injection ---------------------------------------
  void set_partitioned(NetworkId n, bool partitioned);
  void set_loss(NetworkId n, double loss_prob);
  void set_latency(NetworkId n, std::chrono::nanoseconds lo,
                   std::chrono::nanoseconds hi);
  void set_bandwidth(NetworkId n, std::uint64_t bytes_per_sec);
  /// Install a fault-injection plan on one network (replaces any previous
  /// plan; the flap cycle restarts now). See FaultPlan.
  void set_fault_plan(NetworkId n, FaultPlan plan);
  /// Remove the fault plans from every network.
  void clear_faults();
  /// Sever one live channel; both ends get a `closed` delivery.
  ntcs::Status kill_channel(ChannelId chan);
  /// Live channel count (tests: channel-conservation checks).
  std::size_t channel_count() const;

  // --- endpoints ----------------------------------------------------------
  /// Bind a new endpoint on machine `m`. For mbx, `local_name` is the
  /// mailbox pathname component and must be unique on the machine; for
  /// tcp a fresh port is assigned (local_name is advisory only).
  ntcs::Result<std::shared_ptr<Endpoint>> bind(MachineId m, IpcsKind kind,
                                               std::string_view local_name);

  /// Is anything currently bound at this physical address? (The OS-level
  /// liveness check the Name Server uses to decide whether an old address
  /// is "really inactive", §3.5.)
  bool probe(std::string_view phys) const;

  // --- statistics -----------------------------------------------------------
  /// The fabric's counters (simnet.frames_sent, simnet.dup, ...): a scope
  /// of its own, since the fabric belongs to no single module.
  metrics::MetricsRegistry& metrics() { return metrics_; }

 private:
  friend class Endpoint;

  struct NetworkState {
    std::string name;
    NetConfig cfg;
    bool partitioned = false;
    FaultPlan faults;
    // Flap bookkeeping: the cycle is phase-locked to when the plan was
    // installed; `flap_was_down` lets stats count each transition once.
    std::chrono::steady_clock::time_point flap_epoch{};
    bool flap_was_down = false;
  };
  struct MachineState {
    std::string name;
    convert::Arch arch;
    std::vector<NetworkId> networks;
    std::chrono::nanoseconds clock_offset{0};
  };
  struct ChannelState {
    // Raw pointers identify the two ends; the weak_ptrs let notification
    // paths pin an endpoint alive across an enqueue that happens after
    // the fabric lock is released (an endpoint may be destroyed by its
    // owner at any moment).
    Endpoint* a = nullptr;
    Endpoint* b = nullptr;
    std::weak_ptr<Endpoint> a_w;
    std::weak_ptr<Endpoint> b_w;
    NetworkId net = kInvalidNetwork;  // kInvalidNetwork = same-machine
    std::chrono::steady_clock::time_point floor_to_a{};
    std::chrono::steady_clock::time_point floor_to_b{};
  };

  ntcs::Result<ChannelId> connect_impl(Endpoint* src,
                                       const std::string& dst_phys);
  /// One frame = header ++ body, assembled once into the delivery buffer
  /// (the gather-send path; plain sends pass an empty header).
  ntcs::Status send_impl(Endpoint* src, ChannelId chan, ntcs::BytesView header,
                         ntcs::BytesView body);
  ntcs::Status close_channel_impl(Endpoint* src, ChannelId chan);
  void close_endpoint(Endpoint* ep);

  /// Pick a non-partitioned network both machines attach to.
  ntcs::Result<NetworkId> shared_network_locked(MachineId a, MachineId b) const
      REQUIRES(mu_);
  std::chrono::nanoseconds sample_latency_locked(NetworkId n) REQUIRES(mu_);
  /// Is the network's flapping link currently in its down phase?
  bool flap_down_locked(NetworkId n, std::chrono::steady_clock::time_point now)
      REQUIRES(mu_);

  // Declared first: endpoints bump these until the fabric is gone.
  metrics::MetricsRegistry metrics_{metrics::MetricsRegistry::instance()};
  metrics::Counter& frames_sent_ = metrics_.counter("simnet.frames_sent");
  // Data frames lost on the wire: to the loss rate or a down link.
  metrics::Counter& frames_dropped_ = metrics_.counter("simnet.frames_dropped");
  metrics::Counter& bytes_sent_ = metrics_.counter("simnet.bytes_sent");
  metrics::Counter& connects_ok_ = metrics_.counter("simnet.connects_ok");
  metrics::Counter& connects_failed_ =
      metrics_.counter("simnet.connects_failed");
  metrics::Counter& channels_closed_ =
      metrics_.counter("simnet.channels_closed");
  // Fault-injection counters (FaultPlan).
  metrics::Counter& frames_duplicated_ = metrics_.counter("simnet.dup");
  metrics::Counter& frames_reordered_ = metrics_.counter("simnet.reordered");
  metrics::Counter& frames_corrupted_ =
      metrics_.counter("simnet.frames_corrupted");
  // Data frames lost to a down link.
  metrics::Counter& flap_dropped_ = metrics_.counter("simnet.flap_dropped");
  // Up -> down transitions observed.
  metrics::Counter& link_flaps_ = metrics_.counter("simnet.flaps");

  // Bottom of the layer hierarchy: reached with ND-Layer locks held
  // (open/send paths) and never held across Endpoint::enqueue — every
  // delivery is enqueued after this lock is released, which is what keeps
  // endpoint and fabric un-nested (and destruction races impossible, see
  // ChannelState).
  mutable ntcs::Mutex mu_{ntcs::lockrank::kSimnetFabric, "simnet.fabric"};
  std::vector<NetworkState> nets_ GUARDED_BY(mu_);
  std::vector<MachineState> machines_ GUARDED_BY(mu_);
  std::unordered_map<std::string, std::weak_ptr<Endpoint>> bound_
      GUARDED_BY(mu_);
  std::unordered_map<ChannelId, ChannelState> channels_ GUARDED_BY(mu_);
  ntcs::Rng rng_ GUARDED_BY(mu_);
  ChannelId next_chan_ GUARDED_BY(mu_) = 1;
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  std::uint16_t next_port_ GUARDED_BY(mu_) = 5000;
};

}  // namespace ntcs::simnet
