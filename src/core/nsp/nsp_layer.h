// nsp_layer.h — the Name Service Protocol Layer (paper §2.4, §3).
//
// "The NSP-Layer is the single naming service access point for all layers
// within the ComMod. Its purpose is to fully isolate the ComMod from the
// naming service implementation." It talks to the Name Server module over
// the very Nucleus it serves — the central recursion of the paper (§3.1):
// every call here is an ordinary LCM request to a well-known Name Server
// UAdd, flagged internal so it is never monitored or time-stamped.
//
// Sharded naming (scale extension): when the WellKnownTable carries shard
// locations, the layer computes each name's owning shard from the same
// consistent-hash ring every module shares (shard_map.h) and routes the
// request there; requests keyed by UAdd route by the stripe the UAdd was
// minted from, and well-known UAdds fan out. Lookup answers carry a lease
// (TTL) and the shard's reconfiguration epoch; the layer caches them in
// lease_cache_ and serves repeats locally until the lease expires or the
// shard's epoch moves — at which point every cached entry minted under the
// old epoch is dropped. The cache is therefore *correct under churn*: a
// stale entry can at worst yield an address fault, and the LCM-Layer's
// per-request forward() retry (§3.5) lands back here, where the dead
// lease is purged before the caller retries.
#pragma once

#include <chrono>
#include <memory>
#include <optional>
#include <unordered_map>

#include "common/annotated.h"
#include "common/error.h"
#include "common/log.h"
#include "common/metrics.h"
#include "convert/machine.h"
#include "core/lcm/lcm_layer.h"
#include "core/nsp/protocol.h"
#include "core/nsp/shard_map.h"

namespace ntcs::core {

/// Full resolution record (name + location + machine type) for one UAdd.
struct ResolveInfo {
  std::string name;
  PhysAddr phys;
  NetName net;
  convert::Arch arch = convert::Arch::vax780;
};

/// Registration parameters beyond what Identity already carries.
struct RegistrationInfo {
  nsp::AttrMap attrs;
  /// Register under this logical name instead of the Identity's (used by
  /// Gateway modules, whose per-network attachment ComMods carry derived
  /// names but whose registry entry is the gateway itself).
  std::string name_override;
  std::uint64_t requested_uadd = 0;  // for well-known modules only
  bool is_gateway = false;
  std::vector<NetName> gw_nets;
  std::vector<PhysAddr> gw_phys;
};

class NspLayer : public Resolver {
 public:
  /// Counters go to `metrics`, the owning module's scope.
  NspLayer(LcmLayer& lcm, std::shared_ptr<Identity> identity,
           metrics::MetricsRegistry& metrics,
           std::chrono::nanoseconds request_timeout =
               std::chrono::seconds(5));

  /// Install the shard topology from the well-known table (empty shards =
  /// the classic single Name Server) and reset the lease cache — a new
  /// topology invalidates every lease by definition. Called by
  /// Node::install_well_known.
  void configure_shards(const WellKnownTable& wk);

  /// Register this module (paper §3.2): ships the logical name, attribute
  /// set, uninterpreted physical address and logical network id; on success
  /// updates the module Identity from its TAdd to the assigned UAdd —
  /// after which the TAdd is purged from peers' tables within two
  /// exchanges (§3.4).
  ntcs::Result<UAdd> register_module(const RegistrationInfo& info);

  /// Resource-location: logical name -> UAdd. Served from the lease cache
  /// when a fresh, epoch-current lease exists; otherwise one round trip to
  /// the name's owning shard.
  ntcs::Result<UAdd> lookup(const std::string& name);

  /// Pipelined resource-location: issue every lookup over the Name Server
  /// circuit at once (correlation-ID multiplexed through the LCM send
  /// window), then collect the replies. Result i answers names[i]; one
  /// name failing does not disturb the others. Cached names cost nothing.
  std::vector<ntcs::Result<UAdd>> lookup_many(
      const std::vector<std::string>& names);

  /// Attribute-value naming (§7 extension): all matching modules. Sharded:
  /// the query fans out to every shard and the matches merge.
  ntcs::Result<std::vector<UAdd>> lookup_attrs(const nsp::AttrMap& attrs);

  /// UAdd -> everything the naming service holds about it.
  ntcs::Result<ResolveInfo> resolve_info(UAdd uadd);

  /// The gateway/topology registry (§4.1, used by the IP-Layer). Sharded:
  /// merged from every shard.
  ntcs::Result<std::vector<GatewayRecord>> gateways();

  ntcs::Status deregister(UAdd uadd);
  ntcs::Status ping();

  // --- Resolver (the LCM-Layer's upcalls; §3.5) --------------------------
  ntcs::Result<ResolvedDest> resolve(UAdd uadd) override;
  /// The per-request address-fault retry path. Also the cache's safety
  /// net: every lease naming old_uadd is purged here, so a client that was
  /// acting on a stale lease self-corrects on its very next attempt.
  ntcs::Result<UAdd> forward(UAdd old_uadd) override;

  /// Test introspection: the cached lease for a name, if any (fresh or
  /// not), and a hook that retires a lease to exactly "now" so the TTL
  /// boundary (valid strictly before expiry) is testable without sleeping.
  struct LeaseView {
    UAdd uadd;
    std::uint64_t epoch = 0;
    std::chrono::steady_clock::time_point expiry;
    std::size_t shard = 0;
  };
  std::optional<LeaseView> lease_peek(const std::string& name) const;
  void debug_force_expire(const std::string& name);

 private:
  struct Lease {
    UAdd uadd;
    std::uint64_t epoch = 0;
    std::chrono::steady_clock::time_point expiry;
    std::size_t shard = 0;
  };

  ntcs::Result<ntcs::Bytes> call(UAdd target, ntcs::Bytes request_body);
  ntcs::Result<RequestTicket> call_async(UAdd target,
                                         ntcs::Bytes request_body);
  ntcs::Result<ntcs::Bytes> await_call(
      const ntcs::Result<RequestTicket>& ticket);
  /// Try each target until one answers authoritatively (anything but
  /// not_found / wrong_shard / a transport failure).
  ntcs::Result<ntcs::Bytes> call_targets(const std::vector<UAdd>& targets,
                                         const ntcs::Bytes& request_body);
  /// The shard UAdd owning a logical name.
  UAdd target_for_name(const std::string& name) const;
  /// Probe order for a UAdd-keyed request: the minting shard for dynamic
  /// UAdds, every shard for well-known ones.
  std::vector<UAdd> targets_for_uadd(UAdd uadd) const;
  std::vector<UAdd> all_shard_targets() const;
  /// Record a shard epoch observed on a reply; a newer epoch purges every
  /// lease the shard granted under older ones.
  void note_epoch_locked(std::size_t shard, std::uint64_t epoch)
      REQUIRES(lease_mu_);
  /// Drop `name`'s entry under `uadd` from lease_names_.
  void unindex_lease_locked(UAdd uadd, const std::string& name)
      REQUIRES(lease_mu_);
  /// Decode a lookup reply and (if cacheable) install the lease.
  ntcs::Result<UAdd> accept_lookup_reply(const std::string& name,
                                         ntcs::BytesView body);

  LcmLayer& lcm_;
  std::shared_ptr<Identity> identity_;
  std::chrono::nanoseconds timeout_;
  ntcs::LayerLog log_;
  metrics::MetricsRegistry& metrics_;
  metrics::Counter& queries_ = metrics_.counter("nsp.queries");
  metrics::Counter& failures_ = metrics_.counter("nsp.failures");
  // The lease cache: lookup()/lookup_many() hits and misses, and leases
  // purged by an epoch move or an address fault.
  metrics::Counter& cache_hits_ = metrics_.counter("nsp.cache_hits");
  metrics::Counter& cache_misses_ = metrics_.counter("nsp.cache_misses");
  metrics::Counter& cache_invalidations_ =
      metrics_.counter("nsp.cache_invalidations");
  // Lease-cache state. CONTRACT (PR 4 shape): lease_mu_ is leaf-scoped —
  // check under it, RELEASE, then issue the LCM request, re-lock to
  // insert. Holding it across call()/call_async()/await_call() would park
  // every lookup of this module behind a round trip, and an address fault
  // on that request re-enters forward() — and lease_mu_ — on the same
  // thread, which the runtime validator flags.
  mutable ntcs::Mutex lease_mu_{ntcs::lockrank::kNspLease, "nsp.lease"};
  nsp::ShardMap shard_map_ GUARDED_BY(lease_mu_);
  std::unordered_map<std::string, Lease> lease_cache_ GUARDED_BY(lease_mu_);
  // UAdd -> every name whose lease names it, so forward() purges a dead
  // UAdd's leases without scanning lease_cache_. One entry per lease:
  // changed with every lease insert, overwrite and erase.
  std::unordered_multimap<UAdd, std::string> lease_names_
      GUARDED_BY(lease_mu_);
  std::vector<std::uint64_t> shard_epochs_ GUARDED_BY(lease_mu_);
};

}  // namespace ntcs::core
