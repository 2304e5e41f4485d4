#include "drts/process_control.h"

namespace ntcs::drts {

ProcessController::ProcessController(core::Testbed& tb) : tb_(tb) {}

ProcessController::~ProcessController() {
  std::vector<std::string> names;
  {
    ntcs::LockGuard lk(mu_);
    for (auto& [name, m] : modules_) names.push_back(name);
  }
  for (const auto& name : names) (void)kill(name);
}

ntcs::Result<ProcessController::Managed> ProcessController::take(
    const std::string& name, bool reserve) {
  ntcs::LockGuard lk(mu_);
  auto it = modules_.find(name);
  if (it == modules_.end()) {
    return ntcs::Error(ntcs::Errc::not_found,
                       "no managed module '" + name + "'");
  }
  if (it->second.starting) {
    return ntcs::Error(ntcs::Errc::no_resource,
                       "managed module '" + name + "' still starting");
  }
  Managed m = std::move(it->second);
  if (reserve) {
    it->second = Managed{};
    it->second.starting = true;
  } else {
    modules_.erase(it);
  }
  return m;
}

void ProcessController::launch(const std::string& name, Managed m) {
  m.node->run([node = m.node.get(), fn = m.fn](std::stop_token st) {
    fn(*node, std::move(st));
  });
  ntcs::LockGuard lk(mu_);
  modules_[name] = std::move(m);
}

ntcs::Result<core::UAdd> ProcessController::spawn(
    const std::string& name, const std::string& machine,
    const std::string& net, const core::nsp::AttrMap& attrs, ServiceFn fn) {
  // Reserve the name under the lock, but run the actual start — which
  // blocks on a full Node bring-up and naming-service registration, and
  // re-enters every layer of the Nucleus — with the lock released, so
  // concurrent kill/find/module_count (e.g. a monitor poll) never stall
  // behind a slow or fault-injected start.
  {
    ntcs::LockGuard lk(mu_);
    if (modules_.count(name) != 0) {
      return ntcs::Error(ntcs::Errc::already_exists,
                         "managed module '" + name + "' already running");
    }
    modules_[name].starting = true;
  }
  auto node = tb_.make_node(name, machine, net);
  if (!node) {
    ntcs::LockGuard lk(mu_);
    modules_.erase(name);
    return node.error();
  }
  auto uadd = node.value()->commod().register_self(attrs);
  if (!uadd) {
    node.value().reset();  // stopped with the table lock released
    ntcs::LockGuard lk(mu_);
    modules_.erase(name);
    return uadd;
  }
  Managed m;
  m.node = std::move(node.value());
  m.attrs = attrs;
  m.fn = std::move(fn);
  launch(name, std::move(m));
  return uadd;
}

ntcs::Status ProcessController::kill(const std::string& name) {
  auto victim = take(name, /*reserve=*/false);
  if (!victim) return victim.error();
  victim.value().node->stop();  // closes the queue; the service is joined
  return ntcs::Status::success();
}

ntcs::Result<core::UAdd> ProcessController::relocate(
    const std::string& name, const std::string& new_machine,
    const std::string& new_net) {
  // "allow the replacement, removal or addition of modules while the
  // system is in operation" (§1.3). Make before break: the replacement
  // starts and registers under the same name while the old incarnation
  // still serves, so a relocation that cannot place or register the module
  // leaves it serving. Only then is the old one stopped: its conversations
  // fault, and every forwarding query from then on finds this newer module
  // (§3.5) — there is no window in which the name has no live successor.
  auto node = tb_.make_node(name, new_machine, new_net);
  if (!node) return node.error();
  auto m = take(name, /*reserve=*/true);
  if (!m) return m.error();
  Managed& managed = m.value();
  auto uadd = node.value()->commod().register_self(managed.attrs);
  if (!uadd) {
    node.value().reset();  // stopped with the table lock released
    ntcs::LockGuard lk(mu_);
    modules_[name] = std::move(managed);
    return uadd;
  }
  managed.node->stop();
  managed.node = std::move(node.value());
  launch(name, std::move(managed));
  return uadd;
}

core::Node* ProcessController::find(const std::string& name) {
  ntcs::LockGuard lk(mu_);
  auto it = modules_.find(name);
  return it == modules_.end() ? nullptr : it->second.node.get();
}

std::size_t ProcessController::module_count() const {
  ntcs::LockGuard lk(mu_);
  return modules_.size();
}

ServiceFn make_echo_service(std::string prefix) {
  return [prefix = std::move(prefix)](core::Node& node, std::stop_token st) {
    node.commod().serve(st, [&prefix](const core::Incoming& in) {
      ntcs::Bytes out = ntcs::to_bytes(prefix);
      ntcs::append(out, in.payload);
      return out;
    });
  };
}

}  // namespace ntcs::drts
