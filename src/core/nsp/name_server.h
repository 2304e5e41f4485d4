// name_server.h — the Name Server module (paper §3).
//
// "For all practical purposes, the naming service is nothing more than an
// application built on the Nucleus; however, it is also used by the
// Nucleus, forcing the Nucleus to operate recursively."
//
// The server keeps the name/address database: logical name + attribute set
// -> UAdd -> uninterpreted physical address, logical network id and
// machine type (§3.2). It answers NSP requests over its own ordinary NTCS
// stack, generates UAdds (monotone counter, §3.2), honours the well-known
// UAdds of itself and the prime gateways, performs the forwarding
// determination of §3.5 ("first determining whether the old UAdd is really
// inactive, mapping the old UAdd to its name, and then looking for a
// similar name in a newer module"), and serves the gateway/topology
// registry of §4.
//
// Scale extension: the name space shards across N such servers by
// consistent hash of the logical name (shard_map.h). Each shard owns the
// names its ring segment covers plus a stripe of the dynamic UAdd space
// ((raw - kFirstDynamicUAdd) % num_shards == shard), answers lookups with
// a lease + epoch, and rejects traffic for names it does not own with the
// retriable Errc::wrong_shard — a client holding a stale shard count gets
// an error it can recover from, never a silent wrong answer.
#pragma once

#include <optional>
#include <unordered_map>

#include "common/annotated.h"
#include "common/metrics.h"
#include "core/node.h"
#include "core/nsp/protocol.h"
#include "core/nsp/shard_map.h"

namespace ntcs::core {

/// Replication role (§7: the naming service implementation "will be
/// replicated for failure resiliency"). A primary pushes every database
/// mutation to its replicas/standby over the NTCS itself.
///
///  - replica: read-only mirror, serves lookup/resolve/forward/gateways,
///    rejects writes forever. Clients fail over to it for reads via the
///    LCM-Layer's candidate rotation.
///  - standby: a replica that can take over. On receiving a write it
///    probes the primary's physical address (the §3.5 "really inactive?"
///    determination applied to the naming service itself); if the primary
///    is dead it promotes itself — becoming the shard primary under a
///    bumped epoch so every lease the old primary granted dies with it.
enum class NsRole : std::uint8_t { primary, replica, standby };

/// Placement of one NameServer instance in the sharded name space.
/// Default-constructed = the classic single unsharded server.
struct NsShardConfig {
  std::size_t shard = 0;
  std::size_t num_shards = 1;
  /// Lease granted on lookup replies; 0 disables client caching.
  std::uint64_t lease_ms = 2000;
  /// For a standby: the primary it watches (probe target for promotion).
  PhysAddr primary_phys;
};

class NameServer {
 public:
  /// cfg.name defaults to "name-server[-<shard>][-replica|-standby]" when
  /// empty; cfg.well_known is completed with the server's own physical
  /// address after bind.
  explicit NameServer(NodeConfig cfg, NsRole role = NsRole::primary,
                      NsShardConfig shard = {});
  ~NameServer();

  NameServer(const NameServer&) = delete;
  NameServer& operator=(const NameServer&) = delete;

  ntcs::Status start();
  void stop() { node_->stop(); }

  /// Current role — a standby flips to primary on promotion.
  NsRole role() const;
  const NsShardConfig& shard_config() const { return shard_cfg_; }
  /// The shard's reconfiguration epoch (starts at 1; bumps on module
  /// moves and on standby promotion).
  std::uint64_t epoch() const;

  /// Primary only: attach a replica/standby (already started and
  /// pumping). With send_snapshot it ships the full database first; a
  /// warm standby that bulk-loaded the same records skips the snapshot
  /// and receives only increments.
  ntcs::Status add_replica(const NsReplicaInfo& info,
                           bool send_snapshot = true);

  /// Bulk-load `count` synthetic records named "<prefix><i>" (scale
  /// benches / tests). Names not owned by this shard are skipped; owned
  /// names get deterministic striped UAdds (kFirstDynamicUAdd +
  /// i*num_shards + shard) so a primary and its standby load byte-for-byte
  /// identical databases without a million-record snapshot. Returns the
  /// number actually loaded.
  std::size_t load_records(const std::string& prefix, std::size_t count,
                           const std::string& phys, const std::string& net);

  Node& node() { return *node_; }
  PhysAddr phys() const { return node_->phys(); }
  const NetName& net() const { return node_->config().net; }

  /// Database introspection (tests / monitoring).
  std::size_t record_count() const;
  std::optional<ResolveInfo> db_lookup(UAdd uadd) const;

 private:
  struct DbRecord {
    UAdd uadd;
    std::string name;
    nsp::AttrMap attrs;
    std::string phys;
    std::string net;
    std::uint32_t arch = 0;
    bool is_gateway = false;
    std::vector<std::string> gw_nets;
    std::vector<std::string> gw_phys;
    std::uint64_t seq = 0;  // registration order: newer wins
    bool deregistered = false;
  };

  /// One request's reply; runs on the node's service thread.
  ntcs::Bytes handle(const Incoming& in);
  ntcs::Bytes handle(const nsp::Request& req);
  void apply_replica_update(const nsp::ReplicaUpdate& u);
  nsp::ReplicaUpdate update_for_locked(const DbRecord& rec) const
      REQUIRES(mu_);
  /// Ship queued mutations to every replica (service thread only).
  void flush_replication();
  /// The newest live record with this name, via the by-name index (O(1));
  /// falls back to a scan + index repair if the indexed record died. No
  /// live record of a name is newer than the one its index entry holds.
  const DbRecord* find_by_name_locked(const std::string& name) REQUIRES(mu_);
  /// Write barrier: true if this instance may apply the write. A standby
  /// probes the primary and self-promotes when it is gone.
  bool writable_locked(ntcs::Bytes* reject) REQUIRES(mu_);
  void bump_epoch_locked() REQUIRES(mu_);
  ntcs::Bytes handle_register(const nsp::RegisterRequest& r);
  ntcs::Bytes handle_lookup(const std::string& name);
  ntcs::Bytes handle_lookup_attrs(const nsp::AttrMap& attrs);
  ntcs::Bytes handle_resolve(UAdd uadd);
  ntcs::Bytes handle_forward(UAdd old_uadd);
  ntcs::Bytes handle_gateways();
  ntcs::Bytes handle_deregister(UAdd uadd);

  std::unique_ptr<Node> node_;
  NsShardConfig shard_cfg_;
  nsp::ShardMap shard_map_;  // immutable after construction
  // The server's counters live in its node's scope.
  metrics::MetricsRegistry& metrics_ = node_->metrics();
  metrics::Counter& requests_ = metrics_.counter("nsp.ns_requests");
  metrics::Counter& bad_requests_ = metrics_.counter("ns.bad_requests");
  metrics::Counter& registers_ = metrics_.counter("ns.registers");
  metrics::Counter& lookups_ = metrics_.counter("ns.lookups");  // + attrs
  metrics::Counter& shard_lookups_ = metrics_.counter("ns.shard_lookups");
  // The same name lookups under a per-shard name, so the process-wide
  // view keeps them apart.
  metrics::Counter& this_shard_lookups_ = metrics_.counter(
      "ns.shard_lookups.s" + std::to_string(shard_cfg_.shard));
  metrics::Counter& resolves_ = metrics_.counter("ns.resolves");
  metrics::Counter& forwards_ = metrics_.counter("ns.forwards");
  // A successor was found.
  metrics::Counter& forward_hits_ = metrics_.counter("ns.forward_hits");
  // §3.5 "really inactive?" checks.
  metrics::Counter& liveness_probes_ = metrics_.counter("ns.liveness_probes");
  metrics::Counter& replications_sent_ =
      metrics_.counter("ns.replications_sent");
  metrics::Counter& replications_applied_ =
      metrics_.counter("ns.replications_applied");
  // Writes arriving at a replica (or at a standby whose primary lives).
  metrics::Counter& writes_rejected_ = metrics_.counter("ns.writes_rejected");
  // Traffic for a name or UAdd stripe this shard does not own.
  metrics::Counter& wrong_shard_ = metrics_.counter("ns.wrong_shard");
  // Standby -> primary takeovers.
  metrics::Counter& failovers_ = metrics_.counter("ns.failovers");
  // Module moves + promotions.
  metrics::Counter& epoch_bumps_ = metrics_.counter("ns.epoch_bumps");
  std::vector<UAdd> replica_links_;
  std::vector<nsp::ReplicaUpdate> pending_updates_ GUARDED_BY(mu_);
  // Leaf-scoped: requests mutate the db under it and reply outside. The
  // §3.5 liveness probe (backend().probe) is a non-blocking STD-IF call,
  // not an NTCS send, so holding mu_ across it cannot deadlock the stack.
  mutable ntcs::Mutex mu_{ntcs::lockrank::kNameServerDb, "nsp.name_server"};
  NsRole role_ GUARDED_BY(mu_);
  std::unordered_map<UAdd, DbRecord> db_ GUARDED_BY(mu_);
  // name -> newest live record's UAdd; lookup fast path for big shards.
  std::unordered_map<std::string, UAdd> by_name_ GUARDED_BY(mu_);
  std::uint64_t next_uadd_ GUARDED_BY(mu_) = kFirstDynamicUAdd;
  std::uint64_t next_seq_ GUARDED_BY(mu_) = 1;
  std::uint64_t epoch_ GUARDED_BY(mu_) = 1;
};

}  // namespace ntcs::core
