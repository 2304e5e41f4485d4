// nd_layer.h — the Network Dependent Layer (paper §2.2).
//
// "The lowest layer in the NTCS is the Network Dependent Layer. All machine
// and network communication dependencies are localized here, providing a
// uniform virtual circuit interface (STD-IF) for the remainder of the NTCS.
// Everything above the ND-Layer is portable."
//
// Responsibilities:
//   * bind a native IPCS endpoint (TCP-like or MBX-like) and hide its
//     address format, MTU and error conventions behind the STD-IF;
//   * the channel-open protocol: exchange UAdd/architecture/physical
//     address with the peer on every new local virtual circuit (§3.3), and
//     cache the results;
//   * message fragmentation/reassembly over the IPCS frame size;
//   * retry on open — the only recovery the ND-Layer performs; every other
//     failure is "simply passed upward";
//   * TAdd bookkeeping on a per-channel basis (§3.4): a peer that
//     introduced itself with a TAdd is re-identified ("promoted") when its
//     real UAdd is learned.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/annotated.h"
#include "common/backoff.h"
#include "common/bytes.h"
#include "common/error.h"
#include "common/log.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "convert/machine.h"
#include "core/addr.h"
#include "core/identity.h"
#include "core/nd/backend.h"
#include "core/wire/frames.h"

namespace ntcs::core {

/// A local virtual circuit id (node-local; equal to the underlying IPCS
/// channel id in this implementation).
using LvcId = IpcsChannelId;

/// What the ND-Layer reports upward to the IP-Layer.
struct NdEvent {
  enum class Kind : std::uint8_t {
    opened,   // a peer completed the open protocol toward us
    message,  // a reassembled payload message (an IP envelope)
    closed,   // the LVC died (peer close, module death, channel kill)
  };
  Kind kind;
  LvcId lvc = 0;
  /// kind == message: the received buffer — a single-frame message's
  /// delivered frame, or the reassembled one — and where the IP envelope
  /// starts in it. The layers above decode views of it in place.
  ntcs::Bytes buffer;
  std::size_t offset = 0;
  /// kind == message: the peer is still known by a TAdd (§3.4), read in
  /// the same nd.state section that reassembled the message.
  bool peer_temporary = false;

  ntcs::BytesView message() const {
    return ntcs::BytesView(buffer).subspan(offset);
  }
};

/// Cached per-peer information from the channel-open exchange.
struct PeerInfo {
  UAdd uadd;
  convert::Arch arch = convert::Arch::vax780;
  PhysAddr phys;
};

/// Tunables for the open retry loop. Retries back off exponentially with
/// jitter (a fixed delay synchronises retry storms and keeps losing the
/// same race against a flapping link); observable via `nd.open_retries`.
struct NdConfig {
  int open_attempts = 5;
  BackoffPolicy open_backoff{std::chrono::milliseconds(1),
                             std::chrono::milliseconds(32), 2.0, 0.5};
  std::chrono::nanoseconds open_ack_timeout{std::chrono::seconds(5)};
};

class NdLayer {
 public:
  /// Counters go to `metrics`, the owning module's scope.
  NdLayer(IpcsBackend& backend, std::string local_name,
          std::shared_ptr<Identity> identity,
          metrics::MetricsRegistry& metrics, NdConfig cfg = {});
  ~NdLayer();

  NdLayer(const NdLayer&) = delete;
  NdLayer& operator=(const NdLayer&) = delete;

  /// Create the IPCS communication resource. Must be called before any
  /// open/send and before the pump starts.
  ntcs::Status bind();

  /// The module's own physical address (valid after bind()).
  PhysAddr local_phys() const;

  /// Open an LVC to a physical address, running the open protocol
  /// (with retry-on-open). Blocking; never call from the pump thread.
  ntcs::Result<LvcId> open(const PhysAddr& dst);

  /// Send one message (fragmenting to the IPCS MTU). Thread-safe,
  /// non-blocking.
  ntcs::Status send(LvcId lvc, ntcs::BytesView ip_envelope);
  /// The gather form: the IP envelope is `head` (the headers the layers
  /// above encoded in place) followed by `body`. The ND prologue is pushed
  /// onto `head`, and each frame is gathered from the two straight into
  /// the substrate — the payload's one copy on the way out.
  ntcs::Status send(LvcId lvc, wire::HeaderBuf& head, ntcs::BytesView body);

  /// Close an LVC; the peer sees an NdEvent::closed.
  ntcs::Status close(LvcId lvc);

  /// Pump one IPCS delivery. Returns an event for the IP-Layer, or
  /// std::nullopt when the delivery was internal to the ND-Layer (open
  /// protocol, mid-message fragment). Errors: timeout, closed (endpoint
  /// gone — pump loop should exit).
  ntcs::Result<std::optional<NdEvent>> pump(std::chrono::nanoseconds timeout);

  /// Peer info learned during the open exchange.
  std::optional<PeerInfo> peer(LvcId lvc) const;
  /// The peer's machine type alone (the per-message conversion decision),
  /// without copying its physical address.
  std::optional<convert::Arch> peer_arch(LvcId lvc) const;

  /// Replace a peer's TAdd with its real UAdd (§3.4 purge). No-op if the
  /// channel is gone.
  void promote_peer(LvcId lvc, UAdd real);

  /// UAdd -> physical address cache (fed by open exchanges, naming-service
  /// resolutions, and the well-known table).
  void cache_phys(UAdd uadd, PhysAddr phys);
  std::optional<PhysAddr> cached_phys(UAdd uadd) const;
  /// Drop a cache entry (it produced an address fault).
  void uncache_phys(UAdd uadd);

  /// Tear down the endpoint; the pump sees Errc::closed.
  void shutdown();

  IpcsBackend& backend() { return backend_; }

 private:
  /// Per-circuit transmit state: the lock serialises multi-fragment
  /// transmissions (a message's frames must stay contiguous on the circuit
  /// or the peer's reassembler would interleave concurrent senders'
  /// fragments), and `seq` is the running frame number stamped into each
  /// fragment word for the receiver's duplicate/overtake detection.
  struct TxState {
    // nd.tx: held across IpcsPort::send for a whole fragment train, so it
    // orders before the substrate locks and after nd.state.
    ntcs::Mutex mu{ntcs::lockrank::kNdTx, "nd.tx"};
    std::uint32_t seq GUARDED_BY(mu) = 0;
  };
  struct LvcState {
    PeerInfo peer;
    bool open_complete = false;
    bool initiated_by_us = false;
    wire::Reassembler reassembler;
    std::shared_ptr<TxState> tx = std::make_shared<TxState>();
  };
  struct OpenWaiter {
    // nd.open_wait: held across a whole open attempt, during which the
    // state lock is taken (twice) and stale channels are closed through
    // the backend — hence ranked before both.
    ntcs::Mutex mu{ntcs::lockrank::kNdOpenWait, "nd.open_wait"};
    ntcs::CondVar cv;
    std::optional<ntcs::Result<PeerInfo>> result GUARDED_BY(mu);
  };

  ntcs::Result<std::optional<NdEvent>> handle_delivery(IpcsDelivery d);
  /// One complete ND message: buffer[offset..].
  ntcs::Result<std::optional<NdEvent>> handle_message(LvcId lvc,
                                                      ntcs::Bytes buffer,
                                                      std::size_t offset,
                                                      bool peer_temporary);
  /// Transmit one ND message, `head ++ body`, on the circuit's frame
  /// stream. `tx` is the circuit's transmit state (null: look it up).
  ntcs::Status send_frames(LvcId lvc, std::shared_ptr<TxState> tx,
                           ntcs::BytesView head, ntcs::BytesView body);

  IpcsBackend& backend_;
  std::string local_name_;
  std::shared_ptr<Identity> identity_;
  NdConfig cfg_;
  ntcs::LayerLog log_;

  std::shared_ptr<IpcsPort> port_;

  // nd.state: ordered after lcm.state (the LCM-Layer seeds the phys cache
  // while holding its table lock) and before the substrate locks; never
  // held across IpcsPort::send/connect.
  mutable ntcs::Mutex mu_{ntcs::lockrank::kNdState, "nd.state"};
  ntcs::Rng rng_ GUARDED_BY(mu_);  // retry jitter
  std::unordered_map<LvcId, LvcState> lvcs_ GUARDED_BY(mu_);
  std::unordered_map<LvcId, std::shared_ptr<OpenWaiter>> open_waiters_
      GUARDED_BY(mu_);
  std::unordered_map<UAdd, PhysAddr> phys_cache_ GUARDED_BY(mu_);
  metrics::MetricsRegistry& metrics_;
  metrics::Counter& opens_ = metrics_.counter("nd.opens");
  metrics::Counter& open_retries_ = metrics_.counter("nd.open_retries");
  metrics::Counter& opens_accepted_ = metrics_.counter("nd.opens_accepted");
  metrics::Counter& msgs_sent_ = metrics_.counter("nd.msgs_sent");
  metrics::Counter& msgs_received_ = metrics_.counter("nd.msgs_received");
  metrics::Counter& lvcs_closed_ = metrics_.counter("nd.lvcs_closed");
  metrics::Counter& tadds_promoted_ = metrics_.counter("nd.tadds_promoted");
  // Duplicate/stale frames suppressed, and reassembly resyncs after a gap.
  metrics::Counter& frames_deduped_ = metrics_.counter("nd.frames_deduped");
  metrics::Counter& frames_resynced_ = metrics_.counter("nd.frames_resynced");
  // Frames gathered straight from the encoded headers and the caller's
  // payload into the substrate — each one a per-frame Bytes
  // materialisation (and, for a data message, a per-layer copy of its
  // payload) that never happens.
  metrics::Counter& frag_copies_avoided_ =
      metrics_.counter("nd.frag_copies_avoided");
};

}  // namespace ntcs::core
