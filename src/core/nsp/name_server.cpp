#include "core/nsp/name_server.h"

#include "common/metrics.h"

namespace ntcs::core {

namespace {

/// cfg with the default "name-server[-<shard>][-replica|-standby]" name
/// filled in when it has none.
NodeConfig named(NodeConfig cfg, NsRole role, std::size_t shard) {
  if (cfg.name.empty()) {
    cfg.name = "name-server";
    if (shard != 0) cfg.name += "-" + std::to_string(shard);
    if (role == NsRole::replica) cfg.name += "-replica";
    if (role == NsRole::standby) cfg.name += "-standby";
  }
  return cfg;
}

}  // namespace

NameServer::NameServer(NodeConfig cfg, NsRole role, NsShardConfig shard)
    : node_(std::make_unique<Node>(named(std::move(cfg), role, shard.shard))),
      shard_cfg_(shard),
      shard_map_(shard.num_shards == 0 ? 1 : shard.num_shards),
      role_(role) {
  shard_cfg_.num_shards = shard_map_.size();
  // The server *is* the well-known UAdd — it never registers with itself
  // over the wire (it could not: §3.4, it "can not provide its own"
  // address prior to connection). A standby answers on the same UAdd as
  // the primary it shadows: clients reach whichever is alive via the
  // LCM-Layer's candidate rotation.
  node_->identity().set_uadd(ns_shard_uadd(shard_cfg_.shard));
  // Start the monotone counter on this shard's residue so every shard
  // mints from a disjoint stripe of the dynamic UAdd space.
  next_uadd_ = kFirstDynamicUAdd + shard_cfg_.shard;
}

NameServer::~NameServer() { stop(); }

ntcs::Status NameServer::start() {
  if (node_->running()) return ntcs::Status::success();
  if (auto st = node_->start(); !st.ok()) return st;
  // Complete the well-known table with our own freshly bound address so
  // the node's own stack treats the shard's UAdd as local-resolvable.
  WellKnownTable wk = node_->config().well_known;
  if (shard_cfg_.shard == 0) {
    wk.name_server_phys = node_->phys();
    wk.name_server_net = node_->config().net;
  }
  node_->install_well_known(wk);
  node_->lcm().cache_destination(
      ns_shard_uadd(shard_cfg_.shard),
      ResolvedDest{ns_shard_uadd(shard_cfg_.shard), node_->phys(),
                   node_->config().net});
  // Self-entry in the database so the server is locatable by name.
  // Replicas and standbys start empty; the primary's stream fills them.
  {
    ntcs::LockGuard lk(mu_);
    if (role_ == NsRole::primary) {
      DbRecord self;
      self.uadd = ns_shard_uadd(shard_cfg_.shard);
      self.name = node_->identity().name();
      self.phys = node_->phys().blob;
      self.net = node_->config().net;
      self.arch = convert::arch_wire_id(node_->identity().arch());
      self.seq = next_seq_++;
      by_name_[self.name] = self.uadd;
      db_[self.uadd] = std::move(self);
    }
  }
  node_->run([this](std::stop_token st) {
    node_->commod().serve(
        st, [this](const Incoming& in) { return handle(in); },
        [this](const Incoming& in) {
          // Datagrams: replication traffic from the primary.
          auto req = nsp::decode_request(in.payload);
          if (req && req.value().op == nsp::NsOp::replicate) {
            apply_replica_update(req.value().update);
          }
        });
  });
  return ntcs::Status::success();
}

NsRole NameServer::role() const {
  ntcs::LockGuard lk(mu_);
  return role_;
}

std::uint64_t NameServer::epoch() const {
  ntcs::LockGuard lk(mu_);
  return epoch_;
}

ntcs::Bytes NameServer::handle(const Incoming& in) {
  auto req = nsp::decode_request(in.payload);
  ntcs::Bytes response;
  if (!req) {
    bad_requests_.inc();
    response = nsp::encode_error_response(ntcs::Errc::bad_message,
                                          req.error().to_string());
  } else {
    response = handle(req.value());
  }
  // Replicas hear of a write before its client does.
  flush_replication();
  return response;
}

nsp::ReplicaUpdate NameServer::update_for_locked(const DbRecord& rec) const {
  nsp::ReplicaUpdate u;
  u.reg.name = rec.name;
  u.reg.attrs = rec.attrs;
  u.reg.phys = rec.phys;
  u.reg.net = rec.net;
  u.reg.arch = rec.arch;
  u.reg.is_gateway = rec.is_gateway;
  u.reg.gw_nets = rec.gw_nets;
  u.reg.gw_phys = rec.gw_phys;
  u.uadd_raw = rec.uadd.raw();
  u.seq = rec.seq;
  u.deregistered = rec.deregistered;
  u.epoch = epoch_;
  return u;
}

void NameServer::apply_replica_update(const nsp::ReplicaUpdate& u) {
  ntcs::LockGuard lk(mu_);
  DbRecord rec;
  rec.uadd = UAdd::from_raw(u.uadd_raw);
  rec.name = u.reg.name;
  rec.attrs = u.reg.attrs;
  rec.phys = u.reg.phys;
  rec.net = u.reg.net;
  rec.arch = u.reg.arch;
  rec.is_gateway = u.reg.is_gateway;
  rec.gw_nets = u.reg.gw_nets;
  rec.gw_phys = u.reg.gw_phys;
  rec.seq = u.seq;
  rec.deregistered = u.deregistered;
  if (rec.seq >= next_seq_) next_seq_ = rec.seq + 1;
  // Keep the striped UAdd counter ahead of everything the primary minted,
  // so a promoted standby never re-issues a UAdd that is already bound.
  const std::uint64_t raw = rec.uadd.raw();
  if (raw >= kFirstDynamicUAdd && raw >= next_uadd_ &&
      (raw - kFirstDynamicUAdd) % shard_cfg_.num_shards == shard_cfg_.shard) {
    next_uadd_ = raw + shard_cfg_.num_shards;
  }
  // Track the primary's epoch so a promotion bump supersedes every lease
  // the primary ever granted, not just those since we last reset.
  if (u.epoch > epoch_) epoch_ = u.epoch;
  // Last-writer-wins by registration sequence.
  auto it = db_.find(rec.uadd);
  if (it == db_.end() || it->second.seq <= rec.seq) {
    auto idx = by_name_.find(rec.name);
    if (rec.deregistered) {
      if (idx != by_name_.end() && idx->second == rec.uadd) {
        by_name_.erase(idx);
      }
    } else if (idx == by_name_.end()) {
      by_name_.emplace(rec.name, rec.uadd);
    } else {
      // A snapshot arrives in no particular order: the index keeps the
      // newest live record of the name, as on the primary.
      auto held = db_.find(idx->second);
      if (held == db_.end() || held->second.deregistered ||
          held->second.name != rec.name || held->second.seq <= rec.seq) {
        idx->second = rec.uadd;
      }
    }
    db_[rec.uadd] = std::move(rec);
  }
  replications_applied_.inc();
}

void NameServer::flush_replication() {
  std::vector<nsp::ReplicaUpdate> updates;
  std::vector<UAdd> links;
  {
    ntcs::LockGuard lk(mu_);
    if (pending_updates_.empty() || replica_links_.empty()) {
      pending_updates_.clear();
      return;
    }
    updates.swap(pending_updates_);
    links = replica_links_;
  }
  SendOptions opts;
  opts.internal = true;
  for (const auto& u : updates) {
    const ntcs::Bytes body = nsp::encode_replicate(u);
    for (UAdd link : links) {
      (void)node_->lcm().dgram(link, Payload::raw(body), opts);
      replications_sent_.inc();
    }
  }
}

ntcs::Status NameServer::add_replica(const NsReplicaInfo& info,
                                     bool send_snapshot) {
  UAdd link;
  {
    ntcs::LockGuard lk(mu_);
    if (role_ != NsRole::primary) {
      return ntcs::Status(ntcs::Errc::unsupported, "replicas cannot chain");
    }
    link = UAdd::permanent(kReplicaLinkUAddBase + replica_links_.size());
    replica_links_.push_back(link);
  }
  // The replica is addressed directly by physical address — it could not
  // be resolved through the service it backs.
  node_->lcm().cache_destination(link,
                                 ResolvedDest{link, info.phys, info.net});
  if (!send_snapshot) return ntcs::Status::success();
  // Full snapshot, then the serve loop streams increments.
  std::vector<nsp::ReplicaUpdate> snapshot;
  {
    ntcs::LockGuard lk(mu_);
    snapshot.reserve(db_.size());
    for (const auto& [uadd, rec] : db_) {
      snapshot.push_back(update_for_locked(rec));
    }
  }
  SendOptions opts;
  opts.internal = true;
  for (const auto& u : snapshot) {
    auto st = node_->lcm().dgram(link, Payload::raw(nsp::encode_replicate(u)),
                                 opts);
    if (!st.ok()) return st;
    replications_sent_.inc();
  }
  return ntcs::Status::success();
}

std::size_t NameServer::load_records(const std::string& prefix,
                                     std::size_t count,
                                     const std::string& phys,
                                     const std::string& net) {
  ntcs::LockGuard lk(mu_);
  const std::size_t n = shard_cfg_.num_shards;
  std::size_t loaded = 0;
  for (std::size_t i = 0; i < count; ++i) {
    std::string name = prefix + std::to_string(i);
    if (shard_map_.sharded() &&
        shard_map_.shard_of(name) != shard_cfg_.shard) {
      continue;
    }
    DbRecord rec;
    rec.uadd = UAdd::permanent(kFirstDynamicUAdd + i * n + shard_cfg_.shard);
    rec.phys = phys;
    rec.net = net;
    rec.seq = next_seq_++;
    by_name_[name] = rec.uadd;
    rec.name = std::move(name);
    db_[rec.uadd] = std::move(rec);
    ++loaded;
  }
  // The striped counter resumes past every record we just minted.
  const std::uint64_t past = kFirstDynamicUAdd + count * n + shard_cfg_.shard;
  if (next_uadd_ < past) next_uadd_ = past;
  return loaded;
}

ntcs::Bytes NameServer::handle(const nsp::Request& req) {
  requests_.inc();
  switch (req.op) {
    case nsp::NsOp::register_module:
      return handle_register(req.reg);
    case nsp::NsOp::lookup:
      return handle_lookup(req.name);
    case nsp::NsOp::lookup_attrs:
      return handle_lookup_attrs(req.attrs);
    case nsp::NsOp::resolve:
      return handle_resolve(UAdd::from_raw(req.uadd_raw));
    case nsp::NsOp::forward:
      return handle_forward(UAdd::from_raw(req.uadd_raw));
    case nsp::NsOp::gateways:
      return handle_gateways();
    case nsp::NsOp::deregister:
      return handle_deregister(UAdd::from_raw(req.uadd_raw));
    case nsp::NsOp::ping:
      return nsp::encode_ok_response();
    case nsp::NsOp::replicate:
      // Replication rides datagrams, never requests; a replicate request
      // is a protocol violation.
      break;
  }
  bad_requests_.inc();
  return nsp::encode_error_response(ntcs::Errc::bad_message, "unknown op");
}

const NameServer::DbRecord* NameServer::find_by_name_locked(
    const std::string& name) {
  auto idx = by_name_.find(name);
  if (idx != by_name_.end()) {
    auto it = db_.find(idx->second);
    if (it != db_.end() && !it->second.deregistered &&
        it->second.name == name) {
      return &it->second;
    }
  }
  // Indexed record died (forward/deregister) — fall back to the scan and
  // repair the index.
  const DbRecord* best = nullptr;
  for (const auto& [uadd, rec] : db_) {
    if (rec.deregistered || rec.name != name) continue;
    if (best == nullptr || rec.seq > best->seq) best = &rec;
  }
  if (best != nullptr) {
    by_name_[name] = best->uadd;
  } else {
    by_name_.erase(name);
  }
  return best;
}

void NameServer::bump_epoch_locked() {
  ++epoch_;
  epoch_bumps_.inc();
}

bool NameServer::writable_locked(ntcs::Bytes* reject) {
  if (role_ == NsRole::primary) return true;
  if (role_ == NsRole::replica) {
    writes_rejected_.inc();
    *reject = nsp::encode_error_response(
        ntcs::Errc::unsupported,
        "name-server replica is read-only; register with the primary");
    return false;
  }
  // Standby: the §3.5 "really inactive?" determination, applied to the
  // naming service itself. A write reaching us means a client's candidate
  // rotation gave up on the primary — verify before usurping it.
  liveness_probes_.inc();
  if (shard_cfg_.primary_phys.valid() &&
      node_->backend().probe(shard_cfg_.primary_phys.blob)) {
    writes_rejected_.inc();
    *reject = nsp::encode_error_response(
        ntcs::Errc::unsupported,
        "standby: shard primary still reachable; retry there");
    return false;
  }
  // The primary is gone: promote. The epoch bump invalidates every lease
  // it ever granted, so no client keeps acting on its answers.
  role_ = NsRole::primary;
  failovers_.inc();
  bump_epoch_locked();
  return true;
}

ntcs::Bytes NameServer::handle_register(const nsp::RegisterRequest& r) {
  ntcs::LockGuard lk(mu_);
  registers_.inc();
  ntcs::Bytes reject;
  if (!writable_locked(&reject)) return reject;
  if (r.name.empty()) {
    return nsp::encode_error_response(ntcs::Errc::bad_argument,
                                      "empty module name");
  }
  if (r.is_gateway && r.gw_nets.size() != r.gw_phys.size()) {
    return nsp::encode_error_response(ntcs::Errc::bad_argument,
                                      "gateway nets/phys mismatch");
  }
  if (shard_map_.sharded() &&
      shard_map_.shard_of(r.name) != shard_cfg_.shard) {
    wrong_shard_.inc();
    return nsp::encode_error_response(
        ntcs::Errc::wrong_shard,
        "name '" + r.name + "' belongs to shard " +
            std::to_string(shard_map_.shard_of(r.name)));
  }
  UAdd uadd;
  if (r.requested_uadd != 0) {
    uadd = UAdd::from_raw(r.requested_uadd);
    if (uadd.is_temporary() || !uadd.valid() ||
        uadd.raw() >= kFirstDynamicUAdd) {
      return nsp::encode_error_response(ntcs::Errc::bad_argument,
                                        "requested UAdd not well-known");
    }
    auto it = db_.find(uadd);
    if (it != db_.end() && !it->second.deregistered &&
        it->second.name != r.name) {
      return nsp::encode_error_response(ntcs::Errc::already_exists,
                                        "well-known UAdd held by '" +
                                            it->second.name + "'");
    }
  } else {
    // §3.2: "UAdds are currently generated by a simple monotonically
    // increasing counter" — striped so every shard mints from a disjoint
    // residue class and clients can route resolve/forward by UAdd alone.
    uadd = UAdd::permanent(next_uadd_);
    next_uadd_ += shard_cfg_.num_shards;
  }
  // A live record under the same name means this is a module *move*
  // (§3.5): the old address data cached anywhere is now wrong. Bump the
  // shard epoch so every outstanding lease dies with the old location.
  if (find_by_name_locked(r.name) != nullptr) bump_epoch_locked();
  DbRecord rec;
  rec.uadd = uadd;
  rec.name = r.name;
  rec.attrs = r.attrs;
  rec.phys = r.phys;
  rec.net = r.net;
  rec.arch = r.arch;
  rec.is_gateway = r.is_gateway;
  rec.gw_nets = r.gw_nets;
  rec.gw_phys = r.gw_phys;
  rec.seq = next_seq_++;
  by_name_[rec.name] = uadd;
  db_[uadd] = std::move(rec);
  pending_updates_.push_back(update_for_locked(db_[uadd]));
  return nsp::encode_uadd_response(uadd);
}

ntcs::Bytes NameServer::handle_lookup(const std::string& name) {
  shard_lookups_.inc();
  this_shard_lookups_.inc();
  lookups_.inc();
  ntcs::LockGuard lk(mu_);
  const DbRecord* best = find_by_name_locked(name);
  if (best == nullptr) {
    // Names we own are authoritatively absent; anything else is the
    // caller's routing error (stale shard count) — retriable, never a
    // silent wrong answer.
    if (shard_map_.sharded() &&
        shard_map_.shard_of(name) != shard_cfg_.shard) {
      wrong_shard_.inc();
      return nsp::encode_error_response(
          ntcs::Errc::wrong_shard,
          "name '" + name + "' belongs to shard " +
              std::to_string(shard_map_.shard_of(name)));
    }
    return nsp::encode_error_response(ntcs::Errc::not_found,
                                      "no module named '" + name + "'");
  }
  nsp::LookupResponse resp;
  resp.uadd_raw = best->uadd.raw();
  resp.epoch = epoch_;
  resp.lease_ms = shard_cfg_.lease_ms;
  resp.shard = shard_cfg_.shard;
  return nsp::encode_lookup_response(resp);
}

ntcs::Bytes NameServer::handle_lookup_attrs(const nsp::AttrMap& attrs) {
  ntcs::LockGuard lk(mu_);
  lookups_.inc();
  std::vector<UAdd> matches;
  for (const auto& [uadd, rec] : db_) {
    if (rec.deregistered) continue;
    bool all = true;
    for (const auto& [k, v] : attrs) {
      auto it = rec.attrs.find(k);
      if (it == rec.attrs.end() || it->second != v) {
        all = false;
        break;
      }
    }
    if (all) matches.push_back(uadd);
  }
  // Sharded: these are only the local shard's matches; the NSP-Layer
  // fans the query out and merges.
  return nsp::encode_uadds_response(matches);
}

/// True if a dynamic UAdd belongs to another shard's stripe (well-known
/// UAdds are not striped: whichever shard holds the record answers).
static bool foreign_stripe(UAdd uadd, const NsShardConfig& cfg) {
  if (cfg.num_shards <= 1 || uadd.raw() < kFirstDynamicUAdd) return false;
  return (uadd.raw() - kFirstDynamicUAdd) % cfg.num_shards != cfg.shard;
}

ntcs::Bytes NameServer::handle_resolve(UAdd uadd) {
  ntcs::LockGuard lk(mu_);
  resolves_.inc();
  if (foreign_stripe(uadd, shard_cfg_)) {
    wrong_shard_.inc();
    return nsp::encode_error_response(
        ntcs::Errc::wrong_shard,
        "UAdd " + uadd.to_string() + " lives on another shard's stripe");
  }
  auto it = db_.find(uadd);
  if (it == db_.end() || it->second.deregistered) {
    return nsp::encode_error_response(
        ntcs::Errc::not_found, "unknown UAdd " + uadd.to_string());
  }
  nsp::ResolveResponse resp;
  resp.name = it->second.name;
  resp.phys = it->second.phys;
  resp.net = it->second.net;
  resp.arch = it->second.arch;
  return nsp::encode_resolve_response(resp);
}

ntcs::Bytes NameServer::handle_forward(UAdd old_uadd) {
  // §3.5: "This requires some intelligence in the naming service, first
  // determining whether the old UAdd is really inactive, mapping the old
  // UAdd to its name, and then looking for a similar name in a newer
  // module."
  ntcs::LockGuard lk(mu_);
  forwards_.inc();
  if (foreign_stripe(old_uadd, shard_cfg_)) {
    wrong_shard_.inc();
    return nsp::encode_error_response(
        ntcs::Errc::wrong_shard,
        "UAdd " + old_uadd.to_string() + " lives on another shard's stripe");
  }
  auto it = db_.find(old_uadd);
  if (it == db_.end()) {
    return nsp::encode_error_response(
        ntcs::Errc::not_found, "unknown UAdd " + old_uadd.to_string());
  }
  DbRecord& old = it->second;
  if (!old.deregistered) {
    liveness_probes_.inc();
    if (node_->backend().probe(old.phys)) {
      // "the original module is still alive" — the caller should simply
      // reconnect.
      return nsp::encode_error_response(ntcs::Errc::still_alive,
                                        "module still reachable");
    }
    old.deregistered = true;  // confirmed inactive
    if (role_ == NsRole::primary) {
      pending_updates_.push_back(update_for_locked(old));
    }
  }
  // A "similar name" in a newer module: same logical name first — the
  // by-name index holds the newest live record — then the attribute-based
  // fallback ("with our new attribute-based naming, this is more
  // involved"), a module announcing the same "role" attribute.
  const DbRecord* best = find_by_name_locked(old.name);
  if (best != nullptr && best->seq <= old.seq) best = nullptr;
  if (best == nullptr) {
    auto role = old.attrs.find("role");
    if (role != old.attrs.end()) {
      for (const auto& [uadd, rec] : db_) {
        if (rec.deregistered || rec.seq <= old.seq) continue;
        auto r2 = rec.attrs.find("role");
        if (r2 != rec.attrs.end() && r2->second == role->second) {
          if (best == nullptr || rec.seq > best->seq) best = &rec;
        }
      }
    }
  }
  if (best == nullptr) {
    return nsp::encode_error_response(ntcs::Errc::not_found,
                                      "no replacement module located");
  }
  forward_hits_.inc();
  return nsp::encode_uadd_response(best->uadd);
}

ntcs::Bytes NameServer::handle_gateways() {
  ntcs::LockGuard lk(mu_);
  std::vector<GatewayRecord> gws;
  for (auto& [uadd, rec] : db_) {
    if (rec.deregistered || !rec.is_gateway) continue;
    // The same "really inactive?" intelligence applied to the topology
    // registry (§3.5): a gateway none of whose attachments probe alive is
    // dead and must not appear on routes.
    bool any_alive = false;
    for (const auto& phys : rec.gw_phys) {
      liveness_probes_.inc();
      if (node_->backend().probe(phys)) {
        any_alive = true;
        break;
      }
    }
    if (!any_alive) {
      rec.deregistered = true;
      if (role_ == NsRole::primary) {
        pending_updates_.push_back(update_for_locked(rec));
      }
      continue;
    }
    GatewayRecord g;
    g.uadd = rec.uadd;
    g.name = rec.name;
    for (std::size_t i = 0; i < rec.gw_nets.size(); ++i) {
      g.nets.push_back(rec.gw_nets[i]);
      g.phys.push_back(PhysAddr{rec.gw_phys[i]});
    }
    gws.push_back(std::move(g));
  }
  return nsp::encode_gateways_response(gws);
}

ntcs::Bytes NameServer::handle_deregister(UAdd uadd) {
  ntcs::LockGuard lk(mu_);
  ntcs::Bytes reject;
  if (!writable_locked(&reject)) return reject;
  if (foreign_stripe(uadd, shard_cfg_)) {
    wrong_shard_.inc();
    return nsp::encode_error_response(
        ntcs::Errc::wrong_shard,
        "UAdd " + uadd.to_string() + " lives on another shard's stripe");
  }
  auto it = db_.find(uadd);
  if (it == db_.end()) {
    return nsp::encode_error_response(
        ntcs::Errc::not_found, "unknown UAdd " + uadd.to_string());
  }
  it->second.deregistered = true;
  auto idx = by_name_.find(it->second.name);
  if (idx != by_name_.end() && idx->second == uadd) by_name_.erase(idx);
  pending_updates_.push_back(update_for_locked(it->second));
  return nsp::encode_ok_response();
}

std::size_t NameServer::record_count() const {
  ntcs::LockGuard lk(mu_);
  return db_.size();
}

std::optional<ResolveInfo> NameServer::db_lookup(UAdd uadd) const {
  ntcs::LockGuard lk(mu_);
  auto it = db_.find(uadd);
  if (it == db_.end() || it->second.deregistered) return std::nullopt;
  ResolveInfo info;
  info.name = it->second.name;
  info.phys = PhysAddr{it->second.phys};
  info.net = it->second.net;
  info.arch = convert::arch_from_wire_id(it->second.arch)
                  .value_or(convert::Arch::vax780);
  return info;
}

}  // namespace ntcs::core
