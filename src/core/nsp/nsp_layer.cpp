#include "core/nsp/nsp_layer.h"

#include "common/metrics.h"

namespace ntcs::core {

namespace {
/// Live lease-cache size for the health plane; republished (set) after
/// every mutation while lease_mu_ is still held, so it cannot drift. No
/// `.bound` sibling: the cache is capped by the namespace, not a queue
/// bound, and must not trip the utilization rule.
void publish_lease_cache(std::size_t n) {
  static metrics::Gauge& g = metrics::gauge("nsp.lease_cache.size");
  g.set(static_cast<std::int64_t>(n));
}
}  // namespace

NspLayer::NspLayer(LcmLayer& lcm, std::shared_ptr<Identity> identity,
                   metrics::MetricsRegistry& metrics,
                   std::chrono::nanoseconds request_timeout)
    : lcm_(lcm),
      identity_(std::move(identity)),
      timeout_(request_timeout),
      log_("nsp", identity_->name()),
      metrics_(metrics) {}

void NspLayer::configure_shards(const WellKnownTable& wk) {
  ntcs::LockGuard lk(lease_mu_);
  const std::size_t n = wk.shards.empty() ? 1 : wk.shards.size();
  if (n == shard_map_.size()) return;  // same topology: leases stay good
  shard_map_ = nsp::ShardMap(n);
  lease_cache_.clear();
  lease_names_.clear();
  publish_lease_cache(0);
  shard_epochs_.assign(n, 0);
}

UAdd NspLayer::target_for_name(const std::string& name) const {
  ntcs::LockGuard lk(lease_mu_);
  return ns_shard_uadd(shard_map_.shard_of(name));
}

std::vector<UAdd> NspLayer::all_shard_targets() const {
  std::size_t n;
  {
    ntcs::LockGuard lk(lease_mu_);
    n = shard_map_.size();
  }
  std::vector<UAdd> out;
  out.reserve(n);
  for (std::size_t s = 0; s < n; ++s) out.push_back(ns_shard_uadd(s));
  return out;
}

std::vector<UAdd> NspLayer::targets_for_uadd(UAdd uadd) const {
  std::size_t n;
  {
    ntcs::LockGuard lk(lease_mu_);
    n = shard_map_.size();
  }
  if (n <= 1) return {kNameServerUAdd};
  if (uadd.raw() >= kFirstDynamicUAdd) {
    // Dynamic UAdds are minted striped: the residue names the shard.
    return {ns_shard_uadd((uadd.raw() - kFirstDynamicUAdd) % n)};
  }
  return all_shard_targets();  // well-known: whichever shard holds it
}

ntcs::Result<RequestTicket> NspLayer::call_async(UAdd target,
                                                 ntcs::Bytes request_body) {
  queries_.inc();
  // Packed-mode characters are representation-free, so the body needs no
  // pack routine; internal = no monitoring/time recursion on NSP traffic.
  SendOptions opts;
  opts.internal = true;
  opts.timeout = timeout_;
  return lcm_.request_async(target, Payload::raw(std::move(request_body)),
                            opts);
}

ntcs::Result<ntcs::Bytes> NspLayer::await_call(
    const ntcs::Result<RequestTicket>& ticket) {
  ntcs::Result<Reply> reply =
      ticket ? lcm_.await(ticket.value())
             : ntcs::Result<Reply>(ticket.error());
  if (!reply) {
    failures_.inc();
    return reply.error();
  }
  return std::move(reply.value().payload);
}

ntcs::Result<ntcs::Bytes> NspLayer::call(UAdd target,
                                         ntcs::Bytes request_body) {
  return await_call(call_async(target, std::move(request_body)));
}

ntcs::Result<ntcs::Bytes> NspLayer::call_targets(
    const std::vector<UAdd>& targets, const ntcs::Bytes& request_body) {
  ntcs::Result<ntcs::Bytes> last =
      ntcs::Error(ntcs::Errc::not_found, "no shard answered");
  for (UAdd target : targets) {
    auto body = call(target, ntcs::Bytes(request_body));
    if (!body) {
      last = std::move(body);  // transport trouble: try the next shard
      continue;
    }
    const ntcs::Errc code = nsp::response_status(body.value());
    if (code == ntcs::Errc::not_found || code == ntcs::Errc::wrong_shard) {
      last = std::move(body);  // this shard doesn't hold it; keep probing
      continue;
    }
    return body;  // authoritative (ok, still_alive, ...)
  }
  return last;
}

ntcs::Result<UAdd> NspLayer::register_module(const RegistrationInfo& info) {
  nsp::RegisterRequest req;
  req.name = info.name_override.empty() ? identity_->name()
                                        : info.name_override;
  req.attrs = info.attrs;
  req.phys = identity_->phys().blob;
  req.net = identity_->net();
  req.arch = convert::arch_wire_id(identity_->arch());
  req.requested_uadd = info.requested_uadd;
  req.is_gateway = info.is_gateway;
  for (const NetName& n : info.gw_nets) req.gw_nets.push_back(n);
  for (const PhysAddr& p : info.gw_phys) req.gw_phys.push_back(p.blob);

  auto body = call(target_for_name(req.name), nsp::encode_register(req));
  if (!body) return body.error();
  auto uadd = nsp::decode_uadd_response(body.value());
  if (!uadd) return uadd.error();
  // The TAdd has served its purpose; from now on every message carries the
  // real UAdd and peers purge the TAdd from their tables (§3.4).
  identity_->set_uadd(uadd.value());
  log_.info("registered as " + uadd.value().to_string());
  return uadd;
}

void NspLayer::note_epoch_locked(std::size_t shard, std::uint64_t epoch) {
  if (shard >= shard_epochs_.size()) shard_epochs_.resize(shard + 1, 0);
  if (epoch <= shard_epochs_[shard]) return;
  shard_epochs_[shard] = epoch;
  // Reconfiguration happened (module move or shard failover): every lease
  // this shard granted under an older epoch may name a dead location.
  for (auto it = lease_cache_.begin(); it != lease_cache_.end();) {
    if (it->second.shard == shard && it->second.epoch < epoch) {
      unindex_lease_locked(it->second.uadd, it->first);
      it = lease_cache_.erase(it);
      cache_invalidations_.inc();
    } else {
      ++it;
    }
  }
  publish_lease_cache(lease_cache_.size());
}

void NspLayer::unindex_lease_locked(UAdd uadd, const std::string& name) {
  auto [it, end] = lease_names_.equal_range(uadd);
  for (; it != end; ++it) {
    if (it->second == name) {
      lease_names_.erase(it);
      return;
    }
  }
}

ntcs::Result<UAdd> NspLayer::accept_lookup_reply(const std::string& name,
                                                 ntcs::BytesView body) {
  auto resp = nsp::decode_lookup_response(body);
  if (!resp) return resp.error();
  const UAdd uadd = UAdd::from_raw(resp.value().uadd_raw);
  if (resp.value().lease_ms > 0) {
    const auto expiry = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(resp.value().lease_ms);
    ntcs::LockGuard lk(lease_mu_);
    note_epoch_locked(resp.value().shard, resp.value().epoch);
    // Only a lease minted under the current epoch may enter the cache; a
    // reordered stale reply must not resurrect a dead location.
    if (resp.value().shard < shard_epochs_.size() &&
        resp.value().epoch == shard_epochs_[resp.value().shard]) {
      auto [it, fresh] = lease_cache_.try_emplace(name);
      if (fresh || it->second.uadd != uadd) {
        if (!fresh) unindex_lease_locked(it->second.uadd, name);
        lease_names_.emplace(uadd, name);
      }
      it->second = Lease{uadd, resp.value().epoch, expiry, resp.value().shard};
      publish_lease_cache(lease_cache_.size());
    }
  }
  return uadd;
}

ntcs::Result<UAdd> NspLayer::lookup(const std::string& name) {
  {
    ntcs::LockGuard lk(lease_mu_);
    auto it = lease_cache_.find(name);
    if (it != lease_cache_.end() &&
        std::chrono::steady_clock::now() < it->second.expiry &&
        it->second.shard < shard_epochs_.size() &&
        it->second.epoch == shard_epochs_[it->second.shard]) {
      cache_hits_.inc();
      return it->second.uadd;
    }
    cache_misses_.inc();
  }
  auto body = call(target_for_name(name), nsp::encode_lookup(name));
  if (!body) return body.error();
  return accept_lookup_reply(name, body.value());
}

std::vector<ntcs::Result<UAdd>> NspLayer::lookup_many(
    const std::vector<std::string>& names) {
  std::vector<std::optional<ntcs::Result<UAdd>>> done(names.size());
  {
    ntcs::LockGuard lk(lease_mu_);
    const auto now = std::chrono::steady_clock::now();
    for (std::size_t i = 0; i < names.size(); ++i) {
      auto it = lease_cache_.find(names[i]);
      if (it != lease_cache_.end() && now < it->second.expiry &&
          it->second.shard < shard_epochs_.size() &&
          it->second.epoch == shard_epochs_[it->second.shard]) {
        cache_hits_.inc();
        done[i] = ntcs::Result<UAdd>(it->second.uadd);
      } else {
        cache_misses_.inc();
      }
    }
  }
  // Issue phase: every uncached query goes out before any reply is
  // awaited, so the batch costs ~one round trip instead of one each.
  std::vector<ntcs::Result<RequestTicket>> tickets;
  std::vector<std::size_t> ticket_slot;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (done[i].has_value()) continue;
    tickets.push_back(
        call_async(target_for_name(names[i]), nsp::encode_lookup(names[i])));
    ticket_slot.push_back(i);
  }
  for (std::size_t t = 0; t < tickets.size(); ++t) {
    const std::size_t i = ticket_slot[t];
    auto body = await_call(tickets[t]);
    if (!body) {
      done[i] = ntcs::Result<UAdd>(body.error());
      continue;
    }
    done[i] = accept_lookup_reply(names[i], body.value());
  }
  std::vector<ntcs::Result<UAdd>> out;
  out.reserve(names.size());
  for (auto& d : done) out.push_back(std::move(*d));
  return out;
}

ntcs::Result<std::vector<UAdd>> NspLayer::lookup_attrs(
    const nsp::AttrMap& attrs) {
  const ntcs::Bytes req = nsp::encode_lookup_attrs(attrs);
  std::vector<UAdd> merged;
  ntcs::Result<std::vector<UAdd>> last_err =
      ntcs::Error(ntcs::Errc::not_found, "no shard answered");
  bool any_ok = false;
  for (UAdd target : all_shard_targets()) {
    auto body = call(target, ntcs::Bytes(req));
    if (!body) {
      last_err = body.error();
      continue;
    }
    auto part = nsp::decode_uadds_response(body.value());
    if (!part) {
      last_err = part.error();
      continue;
    }
    any_ok = true;
    merged.insert(merged.end(), part.value().begin(), part.value().end());
  }
  if (!any_ok) return last_err;
  return merged;
}

ntcs::Result<ResolveInfo> NspLayer::resolve_info(UAdd uadd) {
  auto body = call_targets(targets_for_uadd(uadd), nsp::encode_resolve(uadd));
  if (!body) return body.error();
  auto resp = nsp::decode_resolve_response(body.value());
  if (!resp) return resp.error();
  ResolveInfo out;
  out.name = std::move(resp.value().name);
  out.phys = PhysAddr{std::move(resp.value().phys)};
  out.net = std::move(resp.value().net);
  out.arch = convert::arch_from_wire_id(resp.value().arch)
                 .value_or(convert::Arch::vax780);
  return out;
}

ntcs::Result<std::vector<GatewayRecord>> NspLayer::gateways() {
  const ntcs::Bytes req = nsp::encode_gateways();
  std::vector<GatewayRecord> merged;
  ntcs::Result<std::vector<GatewayRecord>> last_err =
      ntcs::Error(ntcs::Errc::not_found, "no shard answered");
  bool any_ok = false;
  for (UAdd target : all_shard_targets()) {
    auto body = call(target, ntcs::Bytes(req));
    if (!body) {
      last_err = body.error();
      continue;
    }
    auto part = nsp::decode_gateways_response(body.value());
    if (!part) {
      last_err = part.error();
      continue;
    }
    any_ok = true;
    for (auto& g : part.value()) {
      bool dup = false;
      for (const auto& have : merged) dup = dup || have.uadd == g.uadd;
      if (!dup) merged.push_back(std::move(g));
    }
  }
  if (!any_ok) return last_err;
  return merged;
}

ntcs::Status NspLayer::deregister(UAdd uadd) {
  auto body = call_targets(targets_for_uadd(uadd), nsp::encode_deregister(uadd));
  if (!body) return body.error();
  return nsp::decode_ok_response(body.value());
}

ntcs::Status NspLayer::ping() {
  auto body = call(kNameServerUAdd, nsp::encode_ping());
  if (!body) return body.error();
  return nsp::decode_ok_response(body.value());
}

ntcs::Result<ResolvedDest> NspLayer::resolve(UAdd uadd) {
  auto info = resolve_info(uadd);
  if (!info) return info.error();
  return ResolvedDest{uadd, info.value().phys, info.value().net};
}

ntcs::Result<UAdd> NspLayer::forward(UAdd old_uadd) {
  // The caller just took an address fault on old_uadd: any lease naming
  // it is wrong by observation, whether or not its TTL or epoch agree.
  // Purging here makes the §3.5 per-request retry also the cache's
  // invalidation path — a stale hit costs one extra round trip, never a
  // silent wrong answer.
  {
    ntcs::LockGuard lk(lease_mu_);
    auto [first, last] = lease_names_.equal_range(old_uadd);
    for (auto it = first; it != last; ++it) {
      lease_cache_.erase(it->second);
      cache_invalidations_.inc();
    }
    lease_names_.erase(first, last);
    publish_lease_cache(lease_cache_.size());
  }
  auto body = call_targets(targets_for_uadd(old_uadd),
                           nsp::encode_forward(old_uadd));
  if (!body) return body.error();
  return nsp::decode_uadd_response(body.value());
}

std::optional<NspLayer::LeaseView> NspLayer::lease_peek(
    const std::string& name) const {
  ntcs::LockGuard lk(lease_mu_);
  auto it = lease_cache_.find(name);
  if (it == lease_cache_.end()) return std::nullopt;
  return LeaseView{it->second.uadd, it->second.epoch, it->second.expiry,
                   it->second.shard};
}

void NspLayer::debug_force_expire(const std::string& name) {
  ntcs::LockGuard lk(lease_mu_);
  auto it = lease_cache_.find(name);
  if (it != lease_cache_.end()) {
    it->second.expiry = std::chrono::steady_clock::now();
  }
}

}  // namespace ntcs::core
