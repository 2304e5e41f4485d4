#include "simnet/fabric.h"

#include <algorithm>
#include <cassert>

#include "common/metrics.h"
#include "simnet/phys.h"

namespace ntcs::simnet {

Fabric::Fabric(std::uint64_t seed) : rng_(seed) {}

Fabric::~Fabric() {
  // Endpoints must already be gone (documented lifetime rule); close any
  // stragglers defensively so their inboxes stop blocking.
  std::vector<std::shared_ptr<Endpoint>> eps;
  {
    ntcs::LockGuard lk(mu_);
    for (auto& [phys, weak] : bound_) {
      if (auto ep = weak.lock()) eps.push_back(std::move(ep));
    }
  }
  for (auto& ep : eps) close_endpoint(ep.get());
}

NetworkId Fabric::add_network(std::string name, NetConfig cfg) {
  ntcs::LockGuard lk(mu_);
  nets_.push_back(NetworkState{std::move(name), cfg, false});
  return static_cast<NetworkId>(nets_.size() - 1);
}

MachineId Fabric::add_machine(std::string name, convert::Arch arch,
                              std::vector<NetworkId> networks) {
  ntcs::LockGuard lk(mu_);
  machines_.push_back(
      MachineState{std::move(name), arch, std::move(networks), {}});
  return static_cast<MachineId>(machines_.size() - 1);
}

void Fabric::attach_machine(MachineId m, NetworkId n) {
  ntcs::LockGuard lk(mu_);
  auto& nets = machines_.at(m).networks;
  if (std::find(nets.begin(), nets.end(), n) == nets.end()) nets.push_back(n);
}

std::optional<NetworkId> Fabric::network_by_name(std::string_view name) const {
  ntcs::LockGuard lk(mu_);
  for (std::size_t i = 0; i < nets_.size(); ++i) {
    if (nets_[i].name == name) return static_cast<NetworkId>(i);
  }
  return std::nullopt;
}

std::optional<MachineId> Fabric::machine_by_name(std::string_view name) const {
  ntcs::LockGuard lk(mu_);
  for (std::size_t i = 0; i < machines_.size(); ++i) {
    if (machines_[i].name == name) return static_cast<MachineId>(i);
  }
  return std::nullopt;
}

std::string Fabric::machine_name(MachineId m) const {
  ntcs::LockGuard lk(mu_);
  return machines_.at(m).name;
}

std::string Fabric::network_name(NetworkId n) const {
  ntcs::LockGuard lk(mu_);
  return nets_.at(n).name;
}

convert::Arch Fabric::machine_arch(MachineId m) const {
  ntcs::LockGuard lk(mu_);
  return machines_.at(m).arch;
}

std::vector<NetworkId> Fabric::machine_networks(MachineId m) const {
  ntcs::LockGuard lk(mu_);
  return machines_.at(m).networks;
}

std::size_t Fabric::machine_count() const {
  ntcs::LockGuard lk(mu_);
  return machines_.size();
}

std::size_t Fabric::network_count() const {
  ntcs::LockGuard lk(mu_);
  return nets_.size();
}

void Fabric::set_clock_offset(MachineId m, std::chrono::nanoseconds offset) {
  ntcs::LockGuard lk(mu_);
  machines_.at(m).clock_offset = offset;
}

std::chrono::nanoseconds Fabric::machine_now(MachineId m) const {
  ntcs::LockGuard lk(mu_);
  return std::chrono::steady_clock::now().time_since_epoch() +
         machines_.at(m).clock_offset;
}

void Fabric::set_partitioned(NetworkId n, bool partitioned) {
  ntcs::LockGuard lk(mu_);
  nets_.at(n).partitioned = partitioned;
}

void Fabric::set_loss(NetworkId n, double loss_prob) {
  ntcs::LockGuard lk(mu_);
  nets_.at(n).cfg.loss_prob = loss_prob;
}

void Fabric::set_latency(NetworkId n, std::chrono::nanoseconds lo,
                         std::chrono::nanoseconds hi) {
  ntcs::LockGuard lk(mu_);
  nets_.at(n).cfg.latency_min = lo;
  nets_.at(n).cfg.latency_max = hi;
}

void Fabric::set_bandwidth(NetworkId n, std::uint64_t bytes_per_sec) {
  ntcs::LockGuard lk(mu_);
  nets_.at(n).cfg.bytes_per_sec = bytes_per_sec;
}

void Fabric::set_fault_plan(NetworkId n, FaultPlan plan) {
  ntcs::LockGuard lk(mu_);
  NetworkState& ns = nets_.at(n);
  ns.faults = plan;
  ns.flap_epoch = std::chrono::steady_clock::now();
  ns.flap_was_down = false;
}

void Fabric::clear_faults() {
  ntcs::LockGuard lk(mu_);
  for (NetworkState& ns : nets_) {
    ns.faults = FaultPlan{};
    ns.flap_was_down = false;
  }
}

bool Fabric::flap_down_locked(NetworkId n,
                              std::chrono::steady_clock::time_point now) {
  if (n == kInvalidNetwork) return false;
  NetworkState& ns = nets_.at(n);
  const FaultPlan& fp = ns.faults;
  if (fp.flap_period.count() <= 0 || fp.flap_down.count() <= 0) return false;
  const auto phase = (now - ns.flap_epoch) % fp.flap_period;
  const bool down = phase < fp.flap_down;
  if (down && !ns.flap_was_down) {
    link_flaps_.inc();
  }
  ns.flap_was_down = down;
  return down;
}

ntcs::Status Fabric::kill_channel(ChannelId chan) {
  std::shared_ptr<Endpoint> a;
  std::shared_ptr<Endpoint> b;
  std::uint64_t s1 = 0;
  std::uint64_t s2 = 0;
  std::chrono::steady_clock::time_point at_a;
  std::chrono::steady_clock::time_point at_b;
  {
    ntcs::LockGuard lk(mu_);
    auto it = channels_.find(chan);
    if (it == channels_.end()) {
      return ntcs::Status(ntcs::Errc::not_found, "no such channel");
    }
    a = it->second.a_w.lock();
    b = it->second.b_w.lock();
    // Even a violent kill rides the per-direction FIFO path: `closed` must
    // not overtake data frames already in flight (the ordering contract in
    // close_channel_impl).
    const auto now = std::chrono::steady_clock::now();
    at_a = std::max(now, it->second.floor_to_a);
    at_b = std::max(now, it->second.floor_to_b);
    channels_.erase(it);
    channels_closed_.inc();
    s1 = next_seq_++;
    s2 = next_seq_++;
  }
  if (a) a->enqueue({at_a, s1, Delivery{DeliveryKind::closed, chan, {}, {}}});
  if (b) b->enqueue({at_b, s2, Delivery{DeliveryKind::closed, chan, {}, {}}});
  return ntcs::Status::success();
}

std::size_t Fabric::channel_count() const {
  ntcs::LockGuard lk(mu_);
  return channels_.size();
}

ntcs::Result<std::shared_ptr<Endpoint>> Fabric::bind(
    MachineId m, IpcsKind kind, std::string_view local_name) {
  ntcs::LockGuard lk(mu_);
  if (m >= machines_.size()) {
    return ntcs::Error(ntcs::Errc::bad_argument, "no such machine");
  }
  std::string phys;
  if (kind == IpcsKind::tcp) {
    phys = format_tcp_addr(machines_[m].name, next_port_++);
  } else {
    phys = format_mbx_addr(machines_[m].name, local_name);
    if (bound_.count(phys) != 0) {
      return ntcs::Error(ntcs::Errc::already_exists,
                         "mailbox already exists: " + phys);
    }
  }
  // Endpoint's constructor is private; go through new directly.
  std::shared_ptr<Endpoint> ep(new Endpoint(this, m, kind, phys));
  bound_[phys] = ep;
  return ep;
}

bool Fabric::probe(std::string_view phys) const {
  ntcs::LockGuard lk(mu_);
  auto it = bound_.find(std::string(phys));
  return it != bound_.end() && !it->second.expired();
}

ntcs::Result<NetworkId> Fabric::shared_network_locked(MachineId a,
                                                      MachineId b) const {
  bool found_partitioned = false;
  for (NetworkId na : machines_.at(a).networks) {
    for (NetworkId nb : machines_.at(b).networks) {
      if (na != nb) continue;
      if (nets_.at(na).partitioned) {
        found_partitioned = true;
        continue;
      }
      return na;
    }
  }
  if (found_partitioned) {
    return ntcs::Error(ntcs::Errc::partitioned, "shared network partitioned");
  }
  return ntcs::Error(ntcs::Errc::address_fault,
                     "machines share no network (internetting requires an "
                     "NTCS gateway)");
}

std::chrono::nanoseconds Fabric::sample_latency_locked(NetworkId n) {
  if (n == kInvalidNetwork) return std::chrono::nanoseconds{0};
  const auto& cfg = nets_.at(n).cfg;
  if (cfg.latency_max <= cfg.latency_min) return cfg.latency_min;
  const auto span =
      static_cast<std::uint64_t>((cfg.latency_max - cfg.latency_min).count());
  return cfg.latency_min + std::chrono::nanoseconds(rng_.next_below(span + 1));
}

ntcs::Result<ChannelId> Fabric::connect_impl(Endpoint* src,
                                             const std::string& dst_phys) {
  std::shared_ptr<Endpoint> dst;
  ChannelId chan = 0;
  std::chrono::steady_clock::time_point deliver_at;
  std::uint64_t seq = 0;
  {
    ntcs::LockGuard lk(mu_);
    auto parts = parse_phys(dst_phys);
    if (!parts) {
      connects_failed_.inc();
      return ntcs::Error(ntcs::Errc::bad_argument,
                         "malformed physical address: " + dst_phys);
    }
    if (parts->kind != src->kind()) {
      connects_failed_.inc();
      return ntcs::Error(ntcs::Errc::unsupported,
                         "cannot connect across IPCS kinds");
    }
    auto it = bound_.find(dst_phys);
    if (it != bound_.end()) dst = it->second.lock();
    if (!dst) {
      connects_failed_.inc();
      // The two IPCSs report an unbound destination differently; the
      // ND-Layer normalises both to an address fault.
      if (src->kind() == IpcsKind::tcp) {
        return ntcs::Error(ntcs::Errc::refused,
                           "connection refused: " + dst_phys);
      }
      return ntcs::Error(ntcs::Errc::address_fault,
                         "no such mailbox: " + dst_phys);
    }
    NetworkId net = kInvalidNetwork;
    if (dst->machine() != src->machine()) {
      auto shared = shared_network_locked(src->machine(), dst->machine());
      if (!shared) {
        connects_failed_.inc();
        return shared.error();
      }
      net = shared.value();
    }
    if (flap_down_locked(net, std::chrono::steady_clock::now())) {
      // A flapping link swallows the connection attempt; unlike a
      // partition (an error the layers treat as lasting), the caller sees
      // the transient face of failure and should retry with backoff.
      connects_failed_.inc();
      return ntcs::Error(ntcs::Errc::timeout,
                         "link down (flapping): " + dst_phys);
    }
    chan = next_chan_++;
    ChannelState st;
    st.a = src;
    st.b = dst.get();
    st.a_w = src->weak_from_this();
    st.b_w = dst;
    st.net = net;
    deliver_at = std::chrono::steady_clock::now() + sample_latency_locked(net);
    st.floor_to_b = deliver_at;
    channels_[chan] = st;
    seq = next_seq_++;
    connects_ok_.inc();
  }
  dst->enqueue({deliver_at, seq,
                Delivery{DeliveryKind::opened, chan, {}, src->phys()}});
  return chan;
}

ntcs::Status Fabric::send_impl(Endpoint* src, ChannelId chan,
                               ntcs::BytesView header, ntcs::BytesView body) {
  std::shared_ptr<Endpoint> peer;
  std::chrono::steady_clock::time_point deliver_at;
  std::uint64_t seq = 0;
  std::optional<std::chrono::steady_clock::time_point> dup_at;
  std::uint64_t dup_seq = 0;
  // The one frame copy in the whole transmit path: header and body gathered
  // straight into the delivery buffer, reserved once.
  ntcs::Bytes payload;
  payload.reserve(header.size() + body.size());
  ntcs::append(payload, header);
  ntcs::append(payload, body);
  {
    ntcs::LockGuard lk(mu_);
    auto it = channels_.find(chan);
    if (it == channels_.end() ||
        (it->second.a != src && it->second.b != src)) {
      return ntcs::Status(ntcs::Errc::address_fault, "channel is gone");
    }
    ChannelState& st = it->second;
    if (payload.size() > ipcs_mtu(src->kind())) {
      return ntcs::Status(ntcs::Errc::too_big, "frame exceeds IPCS mtu");
    }
    if (st.net != kInvalidNetwork && nets_.at(st.net).partitioned) {
      return ntcs::Status(ntcs::Errc::partitioned, "network partitioned");
    }
    frames_sent_.inc();
    bytes_sent_.inc(payload.size());
    const auto now = std::chrono::steady_clock::now();
    if (flap_down_locked(st.net, now)) {
      // A down link loses frames without telling the sender — exactly the
      // "simply passed upward" failure class the layers must ride out.
      frames_dropped_.inc();
      flap_dropped_.inc();
      return ntcs::Status::success();
    }
    if (st.net != kInvalidNetwork &&
        rng_.chance(nets_.at(st.net).cfg.loss_prob)) {
      frames_dropped_.inc();
      return ntcs::Status::success();  // silently lost on the wire
    }
    const bool to_b = (it->second.a == src);
    peer = (to_b ? st.b_w : st.a_w).lock();
    if (!peer) {
      // The peer is mid-destruction; its close notification is en route.
      return ntcs::Status::success();
    }
    const FaultPlan* fp = nullptr;
    if (st.net != kInvalidNetwork && nets_.at(st.net).faults.active()) {
      fp = &nets_.at(st.net).faults;
    }
    if (fp != nullptr && fp->corrupt_prob > 0.0 && !payload.empty() &&
        (to_b ? fp->corrupt_to_b : fp->corrupt_to_a) &&
        rng_.chance(fp->corrupt_prob)) {
      payload[rng_.next_below(payload.size())] ^=
          static_cast<std::uint8_t>(1 + rng_.next_below(255));
      frames_corrupted_.inc();
    }
    auto& floor = to_b ? st.floor_to_b : st.floor_to_a;
    deliver_at = now + sample_latency_locked(st.net);
    if (fp != nullptr && fp->jitter.count() > 0) {
      deliver_at += std::chrono::nanoseconds(rng_.next_below(
          static_cast<std::uint64_t>(fp->jitter.count()) + 1));
    }
    if (deliver_at < floor) deliver_at = floor;  // per-channel FIFO queueing
    if (st.net != kInvalidNetwork) {
      // Serialisation delay on a finite link, applied after queueing so
      // back-to-back frames occupy the link strictly in turn.
      const std::uint64_t bps = nets_.at(st.net).cfg.bytes_per_sec;
      if (bps != 0) {
        deliver_at += std::chrono::nanoseconds(
            payload.size() * 1'000'000'000ULL / bps);
      }
    }
    if (fp != nullptr && rng_.chance(fp->reorder_prob)) {
      // Hold this frame back *without* raising the FIFO floor, so frames
      // sent after it may overtake it in the inbox.
      const auto window =
          std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(fp->reorder_window.count()));
      floor = deliver_at;
      deliver_at += std::chrono::nanoseconds(1 + rng_.next_below(window));
      frames_reordered_.inc();
    } else {
      floor = deliver_at;
    }
    seq = next_seq_++;
    if (fp != nullptr && rng_.chance(fp->dup_prob)) {
      // The copy trails the original and also skips the floor, so it can
      // land between (or after) later frames.
      const auto window =
          std::max<std::uint64_t>(
              1, static_cast<std::uint64_t>(fp->reorder_window.count()));
      dup_at = deliver_at + std::chrono::nanoseconds(1 + rng_.next_below(window));
      dup_seq = next_seq_++;
      frames_duplicated_.inc();
    }
  }
  if (dup_at) {
    // Only an injected duplicate costs a second buffer.
    peer->enqueue(
        {*dup_at, dup_seq, Delivery{DeliveryKind::data, chan, payload, {}}});
  }
  peer->enqueue({deliver_at, seq,
                 Delivery{DeliveryKind::data, chan, std::move(payload), {}}});
  return ntcs::Status::success();
}

ntcs::Status Fabric::close_channel_impl(Endpoint* src, ChannelId chan) {
  std::shared_ptr<Endpoint> peer;
  std::chrono::steady_clock::time_point deliver_at;
  std::uint64_t seq = 0;
  {
    ntcs::LockGuard lk(mu_);
    auto it = channels_.find(chan);
    if (it == channels_.end() ||
        (it->second.a != src && it->second.b != src)) {
      return ntcs::Status(ntcs::Errc::not_found, "no such channel");
    }
    ChannelState& st = it->second;
    const bool to_b = (st.a == src);
    peer = (to_b ? st.b_w : st.a_w).lock();
    // Close notifications ride the same ordered path as data so a peer
    // never sees `closed` overtake earlier frames.
    auto& floor = to_b ? st.floor_to_b : st.floor_to_a;
    deliver_at = std::chrono::steady_clock::now() + sample_latency_locked(st.net);
    if (deliver_at < floor) deliver_at = floor;
    channels_.erase(it);
    seq = next_seq_++;
    channels_closed_.inc();
  }
  if (peer) {
    peer->enqueue(
        {deliver_at, seq, Delivery{DeliveryKind::closed, chan, {}, {}}});
  }
  return ntcs::Status::success();
}

void Fabric::close_endpoint(Endpoint* ep) {
  struct Note {
    std::shared_ptr<Endpoint> peer;
    ChannelId chan;
    std::chrono::steady_clock::time_point at;
    std::uint64_t seq;
  };
  std::vector<Note> notes;
  {
    ntcs::LockGuard lk(mu_);
    auto it = bound_.find(ep->phys());
    if (it != bound_.end()) {
      // Only erase our own binding (a later bind may have reused the path
      // after an earlier endpoint expired).
      auto cur = it->second.lock();
      if (!cur || cur.get() == ep) bound_.erase(it);
    }
    for (auto cit = channels_.begin(); cit != channels_.end();) {
      ChannelState& st = cit->second;
      if (st.a == ep || st.b == ep) {
        auto peer = (st.a == ep ? st.b_w : st.a_w).lock();
        auto& floor = st.a == ep ? st.floor_to_b : st.floor_to_a;
        auto at = std::chrono::steady_clock::now() +
                  sample_latency_locked(st.net);
        if (at < floor) at = floor;
        if (peer && peer.get() != ep) {
          notes.push_back({std::move(peer), cit->first, at, next_seq_++});
        }
        channels_closed_.inc();
        cit = channels_.erase(cit);
      } else {
        ++cit;
      }
    }
  }
  for (const Note& n : notes) {
    n.peer->enqueue(
        {n.at, n.seq, Delivery{DeliveryKind::closed, n.chan, {}, {}}});
  }
  ep->close_inbox();
}

}  // namespace ntcs::simnet
