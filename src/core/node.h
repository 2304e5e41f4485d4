// node.h — one NTCS module instance: Nucleus + ComMod bound together.
//
// A Node is the in-process equivalent of the paper's "process bound with a
// ComMod" (Fig. 2-1): it owns the module's Identity, the three Nucleus
// layers (ND, IP, LCM), the ComMod layers (NSP, ALI) and the pump thread
// that drives deliveries upward through them. The layers themselves stay
// passive, exactly as in the paper; the pump is the modern stand-in for
// the original's in-process upcall path, and it NEVER blocks — every
// blocking primitive runs on application/service threads. A service
// module also has at most one service thread, started by run() and
// stopped with the node. Every counter the layers bump lives in the
// node's own metrics scope (metrics()), a child of the process root.
#pragma once

#include <functional>
#include <memory>
#include <thread>

#include "common/metrics.h"
#include "core/ali/commod.h"
#include "core/identity.h"
#include "core/ip/ip_layer.h"
#include "core/lcm/lcm_layer.h"
#include "core/nd/backend.h"
#include "core/nd/nd_layer.h"
#include "core/nsp/nsp_layer.h"

namespace ntcs::core {

struct NodeConfig {
  std::string name;  // logical module name
  /// The STD-IF backend this module's ND-Layer binds through (a
  /// simnet::SimnetBackend or realnet::TcpBackend; built by Testbed or
  /// by hand). Must outlive the Node.
  std::shared_ptr<IpcsBackend> backend;
  NetName net;  // logical network identifier this module reports
  WellKnownTable well_known;
  NdConfig nd;
  IpConfig ip;
  LcmConfig lcm;
};

class Node {
 public:
  explicit Node(NodeConfig cfg);
  ~Node();

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  /// Bind the IPCS endpoint, preload the well-known address table, wire
  /// the recursive naming-service hooks, and start the pump.
  ntcs::Status start();

  /// Start the module's one service thread running `body` (after
  /// start(), once). `body` must return once its stop token is set or the
  /// node's receive queue closes — ComMod::serve does both. It may block
  /// on the NTCS, but must not stop its own node.
  void run(std::function<void(std::stop_token)> body);

  /// Stop the service thread and the pump and tear down the endpoint:
  /// request the service's stop, shut the layers down (closing the
  /// receive queue and failing nested waits), then join the service.
  /// Idempotent.
  void stop();

  /// Install (or replace) the well-known table after construction — used
  /// when a testbed builds the Name Server and prime gateways first and
  /// only then knows their physical addresses.
  void install_well_known(const WellKnownTable& wk);

  /// This module's counters (per-module numbers; the process root adds
  /// them into its totals).
  metrics::MetricsRegistry& metrics() { return metrics_; }
  Identity& identity() { return *identity_; }
  std::shared_ptr<Identity> identity_ptr() { return identity_; }
  NdLayer& nd() { return nd_; }
  IpLayer& ip() { return ip_; }
  LcmLayer& lcm() { return lcm_; }
  NspLayer& nsp() { return nsp_; }
  ComMod& commod() { return commod_; }
  IpcsBackend& backend() { return *cfg_.backend; }
  const NodeConfig& config() const { return cfg_; }
  PhysAddr phys() const { return nd_.local_phys(); }
  /// The local machine's clock, via the backend (simnet: the machine's
  /// skewed virtual clock; realnet: the OS steady clock).
  std::chrono::nanoseconds now() const { return cfg_.backend->now(); }
  bool running() const { return running_; }

 private:
  void pump_main(const std::stop_token& st);

  NodeConfig cfg_;
  // Declared before the layers, which hold references into it.
  metrics::MetricsRegistry metrics_{metrics::MetricsRegistry::instance()};
  std::shared_ptr<Identity> identity_;
  NdLayer nd_;
  IpLayer ip_;
  LcmLayer lcm_;
  NspLayer nsp_;
  ComMod commod_;
  std::jthread pump_;
  // Declared after the layers: destroyed (stopped and joined) first.
  std::jthread service_;
  bool running_ = false;
};

/// Build the IP-Layer's static gateway table from a well-known table.
std::vector<GatewayRecord> prime_gateway_records(const WellKnownTable& wk);

}  // namespace ntcs::core
