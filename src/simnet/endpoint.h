// endpoint.h — a bound IPCS communication endpoint.
//
// An endpoint is what a module gets from the native IPCS when it "creates
// any necessary communication resources (e.g., a TCP/IP port, or an Apollo
// MBX server mailbox)" (paper §3.2). It accepts incoming connections
// implicitly (like a server mailbox), carries message frames over
// channels, and reports peer death as a `closed` delivery — the raw
// material from which the ND-Layer builds its uniform STD-IF.
//
// The inbox delivers strictly by (due time, enqueue sequence). The fabric
// normally keeps a per-channel FIFO floor so frames on one channel arrive
// in send order; an installed FaultPlan injects faults purely by bending
// that schedule — a duplicate is a second item, a reordered frame is one
// whose due time was pushed past later frames. The endpoint itself never
// needs to know a fault plan exists.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <vector>

#include "common/annotated.h"
#include "common/bytes.h"
#include "common/error.h"
#include "simnet/types.h"

namespace ntcs::simnet {

class Fabric;

enum class DeliveryKind : std::uint8_t {
  opened,  // a peer connected; payload empty, peer_phys = connector address
  data,    // one message frame
  closed,  // the peer (or the fabric) closed this channel
};

/// One item received from the IPCS.
struct Delivery {
  DeliveryKind kind = DeliveryKind::data;
  ChannelId chan = 0;
  ntcs::Bytes payload;
  std::string peer_phys;  // set for `opened`
};

/// A bound endpoint. Thread-safe. Obtained from Fabric::bind(); must not
/// outlive the Fabric. (enable_shared_from_this lets the fabric hold weak
/// references and pin the endpoint alive across delivery notifications.)
class Endpoint : public std::enable_shared_from_this<Endpoint> {
 public:
  ~Endpoint();
  Endpoint(const Endpoint&) = delete;
  Endpoint& operator=(const Endpoint&) = delete;

  const std::string& phys() const { return phys_; }
  IpcsKind kind() const { return kind_; }
  MachineId machine() const { return machine_; }

  /// Open a channel to another bound endpoint. Synchronous; the callee
  /// learns of the connection via an `opened` delivery.
  ntcs::Result<ChannelId> connect(const std::string& dst_phys);

  /// Send one frame (at most ipcs_mtu(kind()) bytes) on an open channel.
  ntcs::Status send(ChannelId chan, ntcs::BytesView frame);

  /// Gather-send: one frame given as header + body, concatenated by the
  /// fabric directly into the delivery buffer. This is the zero-copy
  /// fragmentation path's exit — the caller never materialises the frame,
  /// so the only copy of the chunk bytes is the delivery itself.
  ntcs::Status send(ChannelId chan, ntcs::BytesView header,
                    ntcs::BytesView body);

  /// Blocking receive of the next delivery.
  ntcs::Result<Delivery> recv();

  /// Receive with a relative timeout.
  ntcs::Result<Delivery> recv_for(std::chrono::nanoseconds timeout);

  /// Non-blocking receive.
  std::optional<Delivery> try_recv();

  /// Close one channel; the peer gets a `closed` delivery.
  ntcs::Status close_channel(ChannelId chan);

  /// Unbind: all channels close (peers notified), pending receives drain
  /// then report Errc::closed. Idempotent.
  void close();

  bool is_closed() const;

  /// Number of deliveries waiting (including not-yet-due ones).
  std::size_t pending() const;

 private:
  friend class Fabric;

  Endpoint(Fabric* fabric, MachineId machine, IpcsKind kind, std::string phys);

  struct Item {
    std::chrono::steady_clock::time_point at;
    std::uint64_t seq;
    Delivery d;
  };
  struct Later {
    bool operator()(const Item& a, const Item& b) const {
      return a.at > b.at || (a.at == b.at && a.seq > b.seq);
    }
  };

  void enqueue(Item item);
  void close_inbox();
  ntcs::Result<Delivery> recv_until(
      std::optional<std::chrono::steady_clock::time_point> deadline);

  Fabric* fabric_;
  MachineId machine_;
  IpcsKind kind_;
  std::string phys_;

  // Below every Nucleus lock (the ND-Layer receives/sends under its
  // waiter and tx locks); never nested with the fabric lock — the fabric
  // always releases its core lock before Endpoint::enqueue.
  mutable ntcs::Mutex mu_{ntcs::lockrank::kSimnetEndpoint, "simnet.endpoint"};
  ntcs::CondVar cv_;
  // bound: kInboxCapacity (endpoint.cpp) — beyond it data frames shed
  // like wire loss; opened/closed always accepted.
  std::priority_queue<Item, std::vector<Item>, Later> inbox_ GUARDED_BY(mu_);
  bool inbox_closed_ GUARDED_BY(mu_) = false;
  // Mirror of inbox_closed_ for is_closed(), so a send never contends
  // with this endpoint's own receiver. sync: release-stored under mu_,
  // acquire-loaded without it; a send that reads it stale was racing the
  // close anyway.
  std::atomic<bool> closed_{false};
};

}  // namespace ntcs::simnet
