// gateway.h — the Gateway module (paper §4).
//
// "The ability for each Gateway module to communicate with different
// networks is handled by the independent ComMods with which it binds. Each
// ComMod is bound with an ND-Layer designed for one of the networks. Thus,
// no network-dependent issues are visible within the Gateway."
//
// A Gateway owns one full Node per attached network and splices IVCs
// across them. Circuit establishment is autonomous per hop: an EXTEND
// arriving on one attachment is handed (by the pump, non-blocking) to the
// gateway worker, which opens the next LVC on the attachment named by the
// route's front hop, forwards the EXTEND, waits for the onward EXTEND_OK,
// installs the relay mapping in both attachments' IP-Layers, and answers
// backward. Data then relays on the pump's fast path with no gateway
// involvement. "No inter-gateway communication ever takes place" beyond
// the circuits themselves (§4.2).
//
// Gateways are also ordinary naming-service clients (§4.1): they register
// their name and connected networks "the same as any application module".
// Prime gateways additionally carry a well-known UAdd so they can be used
// before — or without — the Name Server.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/queue.h"
#include "core/node.h"

namespace ntcs::core {

class Gateway : public GatewayHook {
 public:
  struct Attachment {
    /// Backend the attachment's Node binds through ("each ComMod is
    /// bound with an ND-Layer designed for one of the networks" — the
    /// backends of one gateway may even be different substrates, which
    /// is how a simnet network gateways to a real-TCP one).
    std::shared_ptr<IpcsBackend> backend;
    NetName net;
  };

  Gateway(std::string name, std::vector<Attachment> attachments,
          std::optional<UAdd> prime_uadd = std::nullopt);
  ~Gateway() override;

  Gateway(const Gateway&) = delete;
  Gateway& operator=(const Gateway&) = delete;

  /// Bind and start all attachment nodes and the extend worker. After this
  /// the gateway can relay, and record() describes it.
  ntcs::Status start();

  /// Register with the naming service (installs the well-known table into
  /// every attachment first). Prime gateways request their fixed UAdd.
  ntcs::Status register_with_ns(const WellKnownTable& wk);

  void stop();

  /// This gateway's registry entry (valid after start()).
  GatewayRecord record() const;
  /// Description for a WellKnownTable (prime gateways, §3.4).
  PrimeGatewayInfo prime_info() const;

  UAdd uadd() const;
  const std::string& name() const { return name_; }
  std::size_t attachment_count() const { return nodes_.size(); }
  Node& attachment(std::size_t i) { return *nodes_.at(i); }
  /// The gateway's own counters (gw.extends_*, gw.extend_shed); each
  /// attachment node counts its relaying in its own scope.
  metrics::MetricsRegistry& metrics() { return metrics_; }

  // GatewayHook — called on an attachment's pump thread; must not block.
  void on_extend(IpLayer* in, LvcId in_lvc, std::uint64_t ivc,
                 wire::ExtendBody body) override;

 private:
  struct ExtendJob {
    IpLayer* in = nullptr;
    LvcId in_lvc = 0;
    std::uint64_t ivc = 0;
    wire::ExtendBody body;
  };

  void worker_main(const std::stop_token& st);
  void process(const ExtendJob& job);
  void fail(const ExtendJob& job, ntcs::Errc code, const std::string& text);

  std::string name_;
  std::vector<Attachment> attachments_;
  std::optional<UAdd> prime_uadd_;
  // Declared before the attachment nodes and the worker, whose threads
  // bump it.
  metrics::MetricsRegistry metrics_{metrics::MetricsRegistry::instance()};
  metrics::Counter& extends_handled_ = metrics_.counter("gw.extends_handled");
  metrics::Counter& extends_failed_ = metrics_.counter("gw.extends_failed");
  metrics::Counter& extend_shed_ = metrics_.counter("gw.extend_shed");
  std::vector<std::unique_ptr<Node>> nodes_;
  // bound: kExtendBacklog (gateway.cpp) — an overflowing EXTEND is failed
  // back to its originator with overloaded, never silently queued forever.
  ntcs::BlockingQueue<ExtendJob> jobs_;
  std::jthread worker_;
  // sync: the gateway's UAdd as a raw word, stored by the constructor and
  // register_with_ns, read by uadd()/record() on any thread; a whole value
  // that publishes no other memory.
  std::atomic<std::uint64_t> uadd_{0};
  bool running_ = false;  // start()/stop() caller only
};

}  // namespace ntcs::core
