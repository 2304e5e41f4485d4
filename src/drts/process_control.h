// process_control.h — DRTS distributed process management (paper §1.2).
//
// "On top of both the NTCS and the native operating system at each
// machine, various DRTS services have been added as required" — process
// control being the first the paper names. The controller spawns managed
// modules (a Node running a service loop on its service thread), kills
// them, and — the URSA testbed requirement — *relocates* them, make before
// break: start a replacement on another machine and register it under the
// same logical name, then stop the old incarnation, whereupon the naming
// service's forwarding determination (§3.5) steers every old UAdd to it.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <stop_token>

#include "common/annotated.h"
#include "core/testbed.h"

namespace ntcs::drts {

/// The body of a managed module, run on its Node's service thread
/// (Node::run): a server loop reading from the Node's ComMod until stop
/// is requested — usually ComMod::serve.
using ServiceFn = std::function<void(core::Node&, std::stop_token)>;

class ProcessController {
 public:
  explicit ProcessController(core::Testbed& tb);
  ~ProcessController();

  ProcessController(const ProcessController&) = delete;
  ProcessController& operator=(const ProcessController&) = delete;

  /// Spawn a managed module: start a Node, register it, run `fn`.
  ntcs::Result<core::UAdd> spawn(const std::string& name,
                                 const std::string& machine,
                                 const std::string& net,
                                 const core::nsp::AttrMap& attrs,
                                 ServiceFn fn);

  /// Kill a managed module (endpoint closes; peers see address faults).
  ntcs::Status kill(const std::string& name);

  /// Dynamic reconfiguration (§3.5): move a module to another machine
  /// "while the system is in operation". Returns the new UAdd. The
  /// replacement is registered before the original stops, and its service
  /// runs after; if it cannot be started or registered, the old
  /// incarnation keeps serving.
  ntcs::Result<core::UAdd> relocate(const std::string& name,
                                    const std::string& new_machine,
                                    const std::string& new_net);

  /// The managed module's Node (nullptr if not running).
  core::Node* find(const std::string& name);

  std::size_t module_count() const;

 private:
  struct Managed {
    std::unique_ptr<core::Node> node;
    core::nsp::AttrMap attrs;
    ServiceFn fn;
    // True while spawn()/relocate() start this module outside the table
    // lock (the slot reserves the name; node is null). kill()/relocate()
    // refuse mid-start modules instead of dereferencing the placeholder.
    bool starting = false;
  };

  /// Move `name`'s module out of the table; a placeholder keeps the name
  /// reserved when `reserve` is set.
  ntcs::Result<Managed> take(const std::string& name, bool reserve);
  /// Run `m`'s registered node's service and publish it in the name's
  /// reserved slot.
  void launch(const std::string& name, Managed m);

  core::Testbed& tb_;
  // Outermost rank of the whole tree: registration state is mutated under
  // it, but module start/stop (which re-enters every layer) happens with
  // it released — a name is reserved first, then started unlocked.
  mutable ntcs::Mutex mu_{ntcs::lockrank::kDrtsProcessControl,
                          "drts.process_control"};
  std::map<std::string, Managed> modules_ GUARDED_BY(mu_);
};

/// Ready-made service loop for tests, benches and examples: replies to
/// every request with `prefix` + its payload.
ServiceFn make_echo_service(std::string prefix = "echo:");

}  // namespace ntcs::drts
