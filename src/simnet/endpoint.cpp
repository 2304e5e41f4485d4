#include "simnet/endpoint.h"

#include "common/health.h"
#include "common/metrics.h"
#include "simnet/fabric.h"

namespace ntcs::simnet {

namespace {

// Bound on an endpoint's inbox. Simnet cannot exert real back-pressure
// (there is no kernel socket buffer behind it — delivery is a function
// call), so a full inbox sheds *data* frames exactly like a lossy wire:
// the receiver's reassembler observes the gap and re-synchronises, upper
// layers recover the same way they do from real frame loss. opened/closed
// control deliveries are never shed — channel lifecycle must stay exact.
constexpr std::size_t kInboxCapacity = 65536;

/// Health-plane pair: aggregate inbox depth across every simnet endpoint
/// in the process (delta-based), against the per-endpoint bound. Aggregate
/// vs per-endpoint bound overstates per-endpoint utilization only when the
/// hot endpoint is not the only one loaded — acceptable for a degraded
/// (not stalled) signal.
metrics::Gauge& inbox_depth_gauge() {
  static metrics::Gauge* g = [] {
    metrics::gauge("simnet.inbox.bound")
        .set(static_cast<std::int64_t>(kInboxCapacity));
    return &metrics::gauge("simnet.inbox.depth");
  }();
  return *g;
}
}  // namespace

Endpoint::Endpoint(Fabric* fabric, MachineId machine, IpcsKind kind,
                   std::string phys)
    : fabric_(fabric), machine_(machine), kind_(kind), phys_(std::move(phys)) {}

Endpoint::~Endpoint() {
  close();
  // Undrained deliveries die with the endpoint; the aggregate depth gauge
  // must not keep counting them.
  ntcs::LockGuard lk(mu_);
  if (!inbox_.empty()) {
    inbox_depth_gauge().sub(static_cast<std::int64_t>(inbox_.size()));
  }
}

ntcs::Result<ChannelId> Endpoint::connect(const std::string& dst_phys) {
  if (is_closed()) return ntcs::Error(ntcs::Errc::closed, "endpoint closed");
  return fabric_->connect_impl(this, dst_phys);
}

ntcs::Status Endpoint::send(ChannelId chan, ntcs::BytesView frame) {
  if (is_closed()) return ntcs::Status(ntcs::Errc::closed, "endpoint closed");
  return fabric_->send_impl(this, chan, {}, frame);
}

ntcs::Status Endpoint::send(ChannelId chan, ntcs::BytesView header,
                            ntcs::BytesView body) {
  if (is_closed()) return ntcs::Status(ntcs::Errc::closed, "endpoint closed");
  return fabric_->send_impl(this, chan, header, body);
}

ntcs::Result<Delivery> Endpoint::recv() { return recv_until(std::nullopt); }

ntcs::Result<Delivery> Endpoint::recv_for(std::chrono::nanoseconds timeout) {
  return recv_until(std::chrono::steady_clock::now() + timeout);
}

ntcs::Result<Delivery> Endpoint::recv_until(
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  ntcs::UniqueLock lk(mu_);
  for (;;) {
    const auto now = std::chrono::steady_clock::now();
    if (!inbox_.empty() && inbox_.top().at <= now) {
      Delivery d = std::move(const_cast<Item&>(inbox_.top()).d);
      inbox_.pop();
      inbox_depth_gauge().sub(1);
      return d;
    }
    if (inbox_closed_ && inbox_.empty()) {
      return ntcs::Error(ntcs::Errc::closed, "endpoint closed");
    }
    // Wait until the earliest pending item is due, a new item arrives, or
    // the caller's deadline expires.
    auto wake = deadline;
    if (!inbox_.empty() && (!wake || inbox_.top().at < *wake)) {
      wake = inbox_.top().at;
    }
    if (wake) {
      if (deadline && *deadline <= now && (inbox_.empty() || inbox_.top().at > now)) {
        return ntcs::Error(ntcs::Errc::timeout, "recv timed out");
      }
      cv_.wait_until(lk, *wake);
      if (deadline && std::chrono::steady_clock::now() >= *deadline) {
        // One more poll for a just-due item before giving up.
        const auto n2 = std::chrono::steady_clock::now();
        if (!inbox_.empty() && inbox_.top().at <= n2) continue;
        if (inbox_closed_ && inbox_.empty()) {
          return ntcs::Error(ntcs::Errc::closed, "endpoint closed");
        }
        return ntcs::Error(ntcs::Errc::timeout, "recv timed out");
      }
    } else {
      cv_.wait(lk);
    }
  }
}

std::optional<Delivery> Endpoint::try_recv() {
  ntcs::LockGuard lk(mu_);
  if (inbox_.empty() || inbox_.top().at > std::chrono::steady_clock::now()) {
    return std::nullopt;
  }
  Delivery d = std::move(const_cast<Item&>(inbox_.top()).d);
  inbox_.pop();
  inbox_depth_gauge().sub(1);
  return d;
}

ntcs::Status Endpoint::close_channel(ChannelId chan) {
  if (is_closed()) return ntcs::Status(ntcs::Errc::closed, "endpoint closed");
  return fabric_->close_channel_impl(this, chan);
}

void Endpoint::close() { fabric_->close_endpoint(this); }

bool Endpoint::is_closed() const {
  return closed_.load(std::memory_order_acquire);
}

std::size_t Endpoint::pending() const {
  ntcs::LockGuard lk(mu_);
  return inbox_.size();
}

void Endpoint::enqueue(Item item) {
  {
    ntcs::LockGuard lk(mu_);
    if (inbox_closed_) return;  // arrived after unbind: dropped by the IPCS
    if (item.d.kind == DeliveryKind::data && inbox_.size() >= kInboxCapacity) {
      static metrics::Counter& m_shed = metrics::counter("simnet.inbox_shed");
      m_shed.inc();
      health::journal_note(health::EventKind::shed, "simnet", "inbox_shed",
                           kInboxCapacity);
      return;
    }
    inbox_.push(std::move(item));
    inbox_depth_gauge().add(1);
  }
  cv_.notify_all();
}

void Endpoint::close_inbox() {
  {
    ntcs::LockGuard lk(mu_);
    inbox_closed_ = true;
    closed_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

}  // namespace ntcs::simnet
