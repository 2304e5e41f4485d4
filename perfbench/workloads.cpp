// workloads.cpp — the three workloads and the code that times them.
//
//   pipeline_simnet  one client keeps 32 64-byte requests in flight to a
//                    same-architecture echo module on a zero-latency simnet
//                    LAN: per-message cost, nothing else.
//   ursa_realnet     two URSA hosts (vax780, net office) search and fetch
//                    against the index/search/doc servers (sun3, net
//                    backend) behind one gateway, over real loopback TCP.
//   reconfig_churn   sync requests round-robin over 4 echo services across
//                    a gateway, 1 op in 4 a locate that misses the lease
//                    cache of a 4-shard, 100k-name service, and a service
//                    relocated to the other net every 200 ops.
#include <array>
#include <cstring>
#include <map>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "core/nsp/shard_map.h"
#include "core/testbed.h"
#include "drts/process_control.h"
#include "ursa/query.h"
#include "ursa/servers.h"

namespace perfbench {

namespace {

using namespace std::chrono_literals;
using ntcs::convert::Arch;
namespace core = ntcs::core;
namespace drts = ntcs::drts;

// An untraced run measures kSubRuns timed loops, each on a fresh rig. Before
// them, extra rigs are set up and torn down until kSetupBudgetS of set-up
// time (or kMaxSetups set-ups) has been spent; setup_s is the median of all.
constexpr int kSubRuns = 4;
constexpr std::size_t kMaxSetups = 100;
constexpr double kSetupBudgetS = 1.0;
constexpr std::size_t kPayload = 64;    // request size (bytes)
constexpr int kEpilogueRelocations = 8;  // per sub-run
constexpr int kEpilogueLocates = 2000;   // per sub-run
// Names bulk-loaded into the classic Name Server of the pipeline and URSA
// rigs, for the epilogue's locates.
constexpr std::uint64_t kBulkNames = 10'000;

/// Seeded request body; the first 8 bytes carry the op id so a reply that
/// belongs to another request cannot compare equal.
ntcs::Bytes make_payload(ntcs::Rng& rng, std::uint64_t op) {
  ntcs::Bytes b(kPayload);
  std::memcpy(b.data(), &op, sizeof op);
  for (std::size_t i = sizeof op; i < b.size(); i += 8) {
    const std::uint64_t r = rng.next();
    std::memcpy(b.data() + i, &r, std::min<std::size_t>(8, b.size() - i));
  }
  return b;
}

double us_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) / 1e3;
}

std::unique_ptr<core::Node> spawn(core::Testbed& tb, const std::string& name,
                                  const std::string& machine,
                                  const std::string& net) {
  auto n = tb.spawn_module(name, machine, net);
  need(n.ok(), "spawn " + name);
  return std::move(n.value());
}

core::UAdd locate(core::Node& node, const std::string& name) {
  auto a = node.commod().locate(name);
  need(a.ok(), "locate " + name);
  return a.value();
}

/// Echo that prefixes the reply with the serving module's UAdd, so a reply
/// proves which incarnation answered.
drts::ServiceFn tagged_echo() {
  return [](core::Node& node, std::stop_token st) {
    while (!st.stop_requested()) {
      auto in = node.commod().receive(100ms);
      if (!in) {
        if (in.code() == ntcs::Errc::timeout) continue;
        break;
      }
      if (!in.value().is_request) continue;
      const std::uint64_t self = node.commod().self().raw();
      ntcs::Bytes out(sizeof self);
      std::memcpy(out.data(), &self, sizeof self);
      ntcs::append(out, in.value().payload);
      (void)node.commod().reply(in.value().reply_ctx, out);
    }
  };
}

/// Time locates of distinct names bulk-loaded into a classic (unsharded)
/// Name Server, so each one misses the lease cache and goes to the server.
void bulk_locates(LoadCtx& ctx, core::ComMod& cm) {
  ntcs::Rng rng(ctx.seed);
  const std::uint64_t first = rng.next_below(kBulkNames);
  for (int i = 0; i < kEpilogueLocates; ++i) {
    const std::uint64_t n = (first + static_cast<std::uint64_t>(i)) % kBulkNames;
    const std::string name = "bulk" + std::to_string(n);
    const std::int64_t t0 = now_ns();
    auto a = cm.locate(name);
    const double us = us_since(t0);
    ctx.locate_us.add(us);
    if (a.ok() && a.value() == core::UAdd::permanent(core::kFirstDynamicUAdd + n)) {
      ctx.done(us, true);
    } else {
      ctx.failure(us, "locate " + name);
    }
  }
}

/// Relocate `name` and time the first request to its old address, `addr`.
/// `check` validates the reply against the new incarnation's UAdd.
template <typename Request, typename Check>
void timed_recovery(LoadCtx& ctx, drts::ProcessController& pc,
                    core::Node& client, const std::string& name,
                    core::UAdd addr, const std::string& machine,
                    const std::string& net, Request&& request,
                    Check&& check) {
  const std::uint64_t op = ctx.spans->next_id();
  const std::uint64_t closed = client.ip().stats().ivcs_closed;
  const std::int64_t r0 = now_ns();
  auto moved = traced(*ctx.spans, "drts.relocate", op, op,
                      [&] { return pc.relocate(name, machine, net); });
  ++ctx.relocations;
  if (!moved.ok()) {
    ctx.failure(0, "relocate " + name + ": " + moved.error().to_string());
    return;
  }
  // Let the old circuit's teardown reach the client before the timed
  // request. A teardown that lands between LcmLayer's send and its
  // recording of the circuit on the pending request is never matched to
  // that request, which then waits out its whole timeout; that race is the
  // stack's, not this workload's, so the workload steps around it.
  const std::int64_t settle_end = now_ns() + 200'000'000;
  while (client.ip().stats().ivcs_closed == closed && now_ns() < settle_end) {
    std::this_thread::sleep_for(50us);
  }
  const std::int64_t t0 = now_ns();
  auto reply = traced(*ctx.spans, "op.recovery_request", op, op,
                      [&] { return request(); });
  const double us = us_since(t0);
  ctx.spans->add("op.relocation", op, 0, op, r0, now_ns());
  ctx.recovery_ms.add(us / 1e3);
  if (!reply.ok()) {
    ctx.failure(us, "post-relocation request: " + reply.error().to_string());
  } else if (client.lcm().current_target(addr) != moved.value() ||
             !check(reply.value(), moved.value())) {
    ctx.failure(us, "post-relocation reply not from the new incarnation");
  } else {
    ctx.done(us, true);
  }
}

// ------------------------------------------------------------ pipeline_simnet

class PipelineSimnet final : public Workload {
 public:
  explicit PipelineSimnet(std::uint64_t seed) : tb_(seed) {
    tb_.net("lan");
    for (const char* m : {"m-client", "m-echo", "m-echo2"}) {
      tb_.machine(m, Arch::vax780, {"lan"});
    }
    need(tb_.start_name_server("m-client", "lan").ok(), "name server");
    need(tb_.finalize().ok(), "finalize");
    tb_.name_server().load_records("bulk", kBulkNames, "tcp:bulk:1", "lan");
    need(pc_.spawn("echo", "m-echo", "lan", {}, drts::make_echo_service(""))
             .ok(),
         "spawn echo");
    client_ = spawn(tb_, "client", "m-client", "lan");
    echo_ = locate(*client_, "echo");
    const ntcs::Bytes probe = ntcs::to_bytes("first");
    auto r = client_->commod().request(echo_, probe, 5s);
    need(r.ok() && r.value().payload == probe, "first echo reply");
  }
  ~PipelineSimnet() override {
    if (client_) client_->stop();
  }

  int threads() const override { return 1; }

  void body(LoadCtx& ctx) override {
    constexpr int kDepth = 32;  // = the default LCM window
    struct Slot {
      core::RequestTicket ticket;
      ntcs::Bytes payload;
      std::int64_t start = 0;
      std::uint64_t op = 0;
      bool live = false;
    };
    ntcs::Rng rng(ctx.seed);
    core::ComMod& cm = client_->commod();
    std::array<Slot, kDepth> slots;
    std::uint64_t next_op = 0;
    auto send_next = [&](Slot& s) {
      s.op = ctx.spans->enabled() ? ctx.spans->next_id() : ++next_op;
      s.payload = make_payload(rng, s.op);
      s.start = now_ns();
      auto t = traced(*ctx.spans, "ali.request_async", s.op, s.op,
                      [&] { return cm.request_async(echo_, s.payload); });
      s.live = t.ok();
      if (t.ok()) {
        s.ticket = std::move(t.value());
      } else {
        ctx.failure(us_since(s.start),
                    "request_async: " + t.error().to_string());
      }
    };
    for (Slot& s : slots) send_next(s);
    while (!ctx.stopping()) {
      for (Slot& s : slots) {
        if (s.live) {
          auto r = traced(*ctx.spans, "ali.await", s.op, s.op,
                          [&] { return cm.await(s.ticket); });
          const std::int64_t end = now_ns();
          ctx.spans->add("op.pipelined_request", s.op, 0, s.op, s.start, end);
          const double us = static_cast<double>(end - s.start) / 1e3;
          s.live = false;
          if (!r.ok()) {
            ctx.failure(us, "await: " + r.error().to_string());
          } else if (r.value().payload != s.payload) {
            ctx.failure(us, "echo reply differs from the request");
          } else {
            ctx.done(us, true);
          }
        }
        if (!ctx.stopping()) send_next(s);
      }
    }
    for (Slot& s : slots) {
      if (s.live) (void)cm.await(s.ticket);  // drain, uncounted
    }
  }

  void epilogue(LoadCtx& ctx) override {
    core::ComMod& cm = client_->commod();
    bulk_locates(ctx, cm);
    ntcs::Rng rng(ctx.seed);
    for (int i = 0; i < kEpilogueRelocations; ++i) {
      on_echo2_ = !on_echo2_;
      const ntcs::Bytes payload = make_payload(rng, i);
      timed_recovery(
          ctx, pc_, *client_, "echo", echo_, on_echo2_ ? "m-echo2" : "m-echo",
          "lan", [&] { return cm.request(echo_, payload, 5s); },
          [&](const core::Reply& r, core::UAdd) {
            return r.payload == payload;
          });
    }
  }

 private:
  core::Testbed tb_;
  drts::ProcessController pc_{tb_};
  std::unique_ptr<core::Node> client_;
  core::UAdd echo_;
  bool on_echo2_ = false;
};

// --------------------------------------------------------------- ursa_realnet

class UrsaRealnet final : public Workload {
 public:
  static constexpr std::size_t kDocs = 500;
  static constexpr std::uint64_t kCorpusSeed = 21;
  static constexpr std::size_t kHits = 10;
  static constexpr std::size_t kQueryVocab = 200;  // terms drawn from ranks
  static constexpr int kHosts = 2;

  explicit UrsaRealnet(std::uint64_t seed)
      : tb_(seed, core::Substrate::realnet) {
    tb_.net("office");
    tb_.net("backend");
    tb_.machine("vax-h0", Arch::vax780, {"office"});
    tb_.machine("vax-h1", Arch::vax780, {"office"});
    tb_.machine("gw", Arch::apollo_dn330, {"office", "backend"});
    tb_.machine("sun-be", Arch::sun3, {"backend"});
    tb_.machine("sun-be2", Arch::sun3, {"backend"});
    need(tb_.start_name_server("vax-h0", "office").ok(), "name server");
    need(tb_.add_gateway("gw-1", "gw", {"office", "backend"}).ok(), "gateway");
    need(tb_.finalize().ok(), "finalize");
    tb_.name_server().load_records("bulk", kBulkNames, "tcp:bulk:1",
                                   "office");
    ursa::UrsaPlacement at;
    at.index_machine = at.doc_machine = at.search_machine = "sun-be";
    at.index_net = at.doc_net = at.search_net = "backend";
    auto c = ursa::spawn_ursa(pc_, at, kDocs, kCorpusSeed);
    need(c.ok(), "spawn URSA servers");
    corpus_ = c.value();
    index_.add_corpus(*corpus_);
    for (int h = 0; h < kHosts; ++h) {
      const std::string id = std::to_string(h);
      nodes_.push_back(spawn(tb_, "host-" + id, "vax-h" + id, "office"));
      hosts_.push_back(std::make_unique<ursa::UrsaHost>(*nodes_.back()));
      need(hosts_.back()->connect().ok(), "URSA host connect");
    }
    docs_ = locate(*nodes_[0], std::string(ursa::kDocServerName));
    for (auto& host : hosts_) {
      auto hits = host->search(corpus_->vocabulary().at(0), kHits);
      need(hits.ok() && hits.value() == reference(corpus_->vocabulary().at(0)),
           "first search");
      auto doc = host->fetch(1);
      need(doc.ok() && same_doc(doc.value(), 1), "first fetch");
    }
  }
  ~UrsaRealnet() override {
    for (auto& n : nodes_) n->stop();
  }

  int threads() const override { return kHosts; }

  void body(LoadCtx& ctx) override {
    ntcs::Rng rng(ctx.seed);
    ursa::UrsaHost& host = *hosts_.at(static_cast<std::size_t>(ctx.index));
    const auto& vocab = corpus_->vocabulary();
    const std::size_t ranks = std::min(kQueryVocab, vocab.size());
    while (!ctx.stopping()) {
      const std::uint64_t op = ctx.spans->next_id();
      if (rng.next_below(4) == 0) {
        const std::uint64_t id = rng.next_in(1, kDocs);
        const std::int64_t t0 = now_ns();
        auto doc = traced(*ctx.spans, "ursa.fetch", 0, op,
                          [&] { return host.fetch(id); });
        const double us = us_since(t0);
        if (!doc.ok()) {
          ctx.failure(us, "fetch: " + doc.error().to_string());
        } else if (!same_doc(doc.value(), id)) {
          ctx.failure(us, "fetched text differs from the corpus");
        } else {
          ctx.done(us, true);
        }
        continue;
      }
      const auto terms = rng.next_in(1, 3);
      std::string q;
      for (std::uint64_t t = 0; t < terms; ++t) {
        if (t != 0) q.push_back(' ');
        q += vocab[rng.next_below(ranks)];
      }
      const bool verify = rng.next_below(8) == 0;
      const std::int64_t t0 = now_ns();
      auto hits = traced(*ctx.spans, "ursa.search", 0, op,
                         [&] { return host.search(q, kHits); });
      const double us = us_since(t0);
      if (!hits.ok()) {
        ctx.failure(us, "search: " + hits.error().to_string());
      } else if (hits.value().size() > kHits ||
                 (verify && hits.value() != reference(q))) {
        ctx.failure(us, "search hits differ from local evaluation: " + q);
      } else {
        ctx.done(us, true);
      }
    }
  }

  void epilogue(LoadCtx& ctx) override {
    core::ComMod& cm = nodes_[0]->commod();
    const std::string docs(ursa::kDocServerName);
    bulk_locates(ctx, cm);
    ntcs::Rng rng(ctx.seed);
    for (int i = 0; i < kEpilogueRelocations; ++i) {
      moved_ = !moved_;
      const std::uint64_t id = rng.next_in(1, kDocs);
      timed_recovery(
          ctx, pc_, *nodes_[0], docs, docs_, moved_ ? "sun-be2" : "sun-be",
          "backend", [&] { return hosts_[0]->fetch(id); },
          [&](const ursa::Document& d, core::UAdd) { return same_doc(d, id); });
    }
  }

 private:
  bool same_doc(const ursa::Document& d, std::uint64_t id) const {
    const ursa::Document* want = corpus_->find(id);
    return want != nullptr && d.id == id && d.title == want->title &&
           d.text == want->text;
  }

  /// The hits a correct search server returns, evaluated locally.
  std::vector<ursa::SearchHit> reference(const std::string& q) const {
    const ursa::Query query = ursa::parse_query(q);
    std::map<std::string, std::vector<ursa::Posting>> postings;
    for (const std::string& t : query.distinct_terms()) {
      postings[t] = index_.postings(t);
    }
    return ursa::evaluate_query(query, postings, index_.doc_count(), kHits);
  }

  core::Testbed tb_;
  drts::ProcessController pc_{tb_};
  std::shared_ptr<ursa::Corpus> corpus_;
  ursa::InvertedIndex index_;
  std::vector<std::unique_ptr<core::Node>> nodes_;
  std::vector<std::unique_ptr<ursa::UrsaHost>> hosts_;
  core::UAdd docs_;
  bool moved_ = false;
};

// ------------------------------------------------------------- reconfig_churn

class ReconfigChurn final : public Workload {
 public:
  static constexpr std::size_t kShards = 4;
  static constexpr std::size_t kNames = 100'000;
  static constexpr int kServices = 4;
  static constexpr int kOpsPerRelocation = 200;

  explicit ReconfigChurn(std::uint64_t seed) : tb_(seed), ring_(kShards) {
    tb_.net("net-a");
    tb_.net("net-b");
    tb_.machine("a1", Arch::vax780, {"net-a"});
    tb_.machine("a2", Arch::sun3, {"net-a"});
    tb_.machine("a3", Arch::apollo_dn330, {"net-a"});
    tb_.machine("b1", Arch::sun3, {"net-b"});
    tb_.machine("b2", Arch::vax780, {"net-b"});
    tb_.machine("gw", Arch::apollo_dn330, {"net-a", "net-b"});
    need(tb_.start_name_service(kShards, {"a1", "a2", "a3"}, "net-a",
                                /*with_standbys=*/true)
             .ok(),
         "name service");
    need(tb_.add_gateway("gw-1", "gw", {"net-a", "net-b"}).ok(), "gateway");
    need(tb_.finalize().ok(), "finalize");
    for (std::size_t s = 0; s < kShards; ++s) {
      tb_.shard(s).load_records("bulk", kNames, "tcp:bulk:1", "net-a");
      if (tb_.shard_has_standby(s)) {
        tb_.shard_standby(s).load_records("bulk", kNames, "tcp:bulk:1",
                                          "net-a");
      }
    }
    for (int i = 0; i < kServices; ++i) {
      on_b_[i] = i % 2 == 1;
      auto u = pc_.spawn(service(i), on_b_[i] ? "b1" : "a2",
                         on_b_[i] ? "net-b" : "net-a", {}, tagged_echo());
      need(u.ok(), "spawn " + service(i));
      current_[i] = u.value();
    }
    client_ = spawn(tb_, "client", "a1", "net-a");
    ntcs::Rng rng(seed);
    for (int i = 0; i < kServices; ++i) {
      addr_[i] = locate(*client_, service(i));
      const ntcs::Bytes payload = make_payload(rng, i);
      auto r = client_->commod().request(addr_[i], payload, 5s);
      need(r.ok() && tagged_reply_ok(r.value(), current_[i], payload),
           "first reply from " + service(i));
    }
  }
  ~ReconfigChurn() override {
    if (client_) client_->stop();
  }

  int threads() const override { return 1; }

  void body(LoadCtx& ctx) override {
    ntcs::Rng rng(ctx.seed);
    core::ComMod& cm = client_->commod();
    std::uint64_t k = 0;
    int next_svc = 0;
    while (!ctx.stopping()) {
      ++k;
      if (k % kOpsPerRelocation == 0) relocate_one(ctx, rng);
      const std::uint64_t op = ctx.spans->next_id();
      if (k % 4 == 0) {
        const std::uint64_t i = rng.next_below(kNames);
        const std::string name = "bulk" + std::to_string(i);
        const core::UAdd want = core::UAdd::permanent(
            core::kFirstDynamicUAdd + i * kShards + ring_.shard_of(name));
        const std::int64_t t0 = now_ns();
        auto a = traced(*ctx.spans, "ali.locate", 0, op,
                        [&] { return cm.locate(name); });
        const double us = us_since(t0);
        ctx.locate_us.add(us);
        if (a.ok() && a.value() == want) {
          ctx.done(us, true);
        } else {
          ctx.failure(us, "locate " + name);
        }
        continue;
      }
      const int svc = next_svc;
      next_svc = (next_svc + 1) % kServices;
      const ntcs::Bytes payload = make_payload(rng, op);
      const std::int64_t t0 = now_ns();
      auto r = traced(*ctx.spans, "ali.request", 0, op, [&] {
        return cm.request(addr_[svc], payload, 5s);
      });
      const double us = us_since(t0);
      if (!r.ok()) {
        ctx.failure(us, "request " + service(svc) + ": " +
                            r.error().to_string());
      } else if (!tagged_reply_ok(r.value(), current_[svc], payload)) {
        ctx.failure(us, "wrong reply from " + service(svc));
      } else {
        ctx.done(us, true);
      }
    }
  }

 private:
  static std::string service(int i) { return "svc-" + std::to_string(i); }

  static bool tagged_reply_ok(const core::Reply& r, core::UAdd from,
                              const ntcs::Bytes& payload) {
    std::uint64_t tag = 0;
    if (r.payload.size() != sizeof tag + payload.size()) return false;
    std::memcpy(&tag, r.payload.data(), sizeof tag);
    return tag == from.raw() &&
           std::equal(payload.begin(), payload.end(),
                      r.payload.begin() + sizeof tag);
  }

  /// Move a seeded service to the other net and time the next request to
  /// its old address.
  void relocate_one(LoadCtx& ctx, ntcs::Rng& rng) {
    const auto svc = static_cast<int>(rng.next_below(kServices));
    on_b_[svc] = !on_b_[svc];
    static constexpr std::array<const char*, 2> kA{"a2", "a3"};
    static constexpr std::array<const char*, 2> kB{"b1", "b2"};
    const char* machine = (on_b_[svc] ? kB : kA)[rng.next_below(2)];
    const ntcs::Bytes payload = make_payload(rng, ctx.relocations);
    core::ComMod& cm = client_->commod();
    timed_recovery(
        ctx, pc_, *client_, service(svc), addr_[svc], machine,
        on_b_[svc] ? "net-b" : "net-a",
        [&] { return cm.request(addr_[svc], payload, 5s); },
        [&](const core::Reply& r, core::UAdd now) {
          current_[svc] = now;
          return tagged_reply_ok(r, now, payload);
        });
  }

  core::Testbed tb_;
  drts::ProcessController pc_{tb_};
  std::unique_ptr<core::Node> client_;
  ntcs::core::nsp::ShardMap ring_;
  std::array<core::UAdd, kServices> addr_{};     // as first located
  std::array<core::UAdd, kServices> current_{};  // live incarnation
  std::array<bool, kServices> on_b_{};
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Registry counters summed over a phase and the epilogue after it (where
/// the pipeline and URSA workloads relocate and locate).
double counter_sum(const Phase& p, const ntcs::metrics::Snapshot& epi,
                   std::string_view name) {
  return counter_delta(p, name) + static_cast<double>(epi.value(name));
}

void report_layers(const Phase& a, const LoadCtx& epi,
                   const ntcs::metrics::Snapshot& epi_delta,
                   double untraced_rps, double traced_rps,
                   std::uint64_t spans_kept, Result& out) {
  const auto ops = static_cast<double>(std::max<std::uint64_t>(a.attempted, 1));
  out.metric("cpu.client_us_per_op", a.client_cpu_us / ops, "us");
  out.metric("cpu.stack_us_per_op",
             (a.process_cpu_us - a.client_cpu_us) / ops, "us");
  out.metric("alloc.count_per_op", static_cast<double>(a.allocs.count) / ops,
             "count");
  out.metric("alloc.bytes_per_op", static_cast<double>(a.allocs.bytes) / ops,
             "B");
  out.metric("threads.count", a.threads, "count");
  out.metric("lcm.window_stalls_per_op",
             counter_delta(a, "lcm.window_stalls") / ops, "count");
  out.metric("lcm.window.in_flight_peak",
             gauge_peak(a, "lcm.window.in_flight"), "count");
  out.metric("lcm.app_queue_peak", gauge_peak(a, "lcm.app_queue.depth"),
             "count");
  out.metric("simnet.inbox_peak", gauge_peak(a, "simnet.inbox.depth"),
             "count");
  out.metric("realnet.inbox_peak", gauge_peak(a, "realnet.inbox.depth"),
             "count");
  out.metric("realnet.inbox_stalls", counter_delta(a, "realnet.inbox_stalls"),
             "count");
  out.metric("nd.msgs_sent_per_op", counter_delta(a, "nd.msgs_sent") / ops,
             "count");
  out.metric("ip.hops_forwarded_per_op",
             counter_delta(a, "ip.hops_forwarded") / ops, "count");
  const double packed = counter_delta(a, "convert.mode.packed");
  out.metric("convert.packed_share",
             ratio(packed, packed + counter_delta(a, "convert.mode.image") +
                               counter_delta(a, "convert.mode.shift")),
             "ratio");
  const auto relocs = static_cast<double>(a.relocations + epi.relocations);
  out.metric("lcm.address_faults_per_reloc",
             ratio(counter_sum(a, epi_delta, "lcm.address_faults"), relocs),
             "count");
  out.metric("lcm.fault_backoffs_per_reloc",
             ratio(counter_sum(a, epi_delta, "lcm.fault_backoffs"), relocs),
             "count");
  out.metric("lcm.reconnects_per_reloc",
             ratio(counter_sum(a, epi_delta, "lcm.reconnects"), relocs),
             "count");
  const double hits = counter_sum(a, epi_delta, "nsp.cache_hits");
  const double lookups =
      hits + counter_sum(a, epi_delta, "nsp.cache_misses");
  out.metric("nsp.lease_hit_ratio", ratio(hits, lookups), "ratio");
  out.metric("nsp.lookups", lookups, "count");
  out.metric("trace.untraced_rps", untraced_rps, "1/s");
  out.metric("trace.traced_rps", traced_rps, "1/s");
  out.metric("trace.overhead_pct",
             100.0 * ratio(untraced_rps - traced_rps, untraced_rps), "%");
  out.metric("trace.spans", static_cast<double>(spans_kept), "count");
}

/// Run the untimed epilogue in a context of its own.
LoadCtx run_epilogue(Workload& w, std::uint64_t seed, SpanLog& spans,
                     ntcs::metrics::Snapshot& delta) {
  static const std::atomic<bool> kNeverStop{false};
  std::atomic<std::uint64_t> completed{0};
  LoadCtx ctx;
  ctx.seed = seed ^ 0x9E3779B97F4A7C15ULL;
  ctx.stop = &kNeverStop;
  ctx.completed = &completed;
  ctx.spans = &spans;
  const auto before = ntcs::metrics::MetricsRegistry::instance().snapshot();
  w.epilogue(ctx);
  delta = ntcs::metrics::MetricsRegistry::instance().snapshot().delta(before);
  ctx.completed = nullptr;
  return ctx;
}

void tally(Result& out, std::uint64_t attempted, std::uint64_t failed,
           const std::vector<std::string>& errors) {
  out.attempted += attempted;
  out.failed += failed;
  for (const auto& e : errors) out.fail(e);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "pipeline_simnet") return std::make_unique<PipelineSimnet>(seed);
  if (name == "ursa_realnet") return std::make_unique<UrsaRealnet>(seed);
  if (name == "reconfig_churn") return std::make_unique<ReconfigChurn>(seed);
  throw BenchError("unknown workload " + name);
}

/// Build a fresh rig, timing the set-up into `setup_s`.
std::unique_ptr<Workload> timed_setup(const RunConfig& cfg, Samples& setup_s) {
  const std::int64_t t0 = now_ns();
  auto w = make_workload(cfg.workload, cfg.seed);
  setup_s.add(static_cast<double>(now_ns() - t0) / 1e9);
  return w;
}

/// Untimed epilogue on `w`, folded into the totals.
void epilogue_into(Workload& w, std::uint64_t seed, Samples& recovery,
                   Samples& locates, Result& out) {
  SpanLog off(false);
  ntcs::metrics::Snapshot delta;
  LoadCtx epi = run_epilogue(w, seed, off, delta);
  tally(out, epi.attempted, epi.failed, epi.errors);
  recovery.merge(epi.recovery_ms);
  locates.merge(epi.locate_us);
}

/// The end-to-end run: kSubRuns timed loops, each on a freshly built rig
/// (so one unlucky thread placement moves one sub-run, not the result),
/// reporting medians over the sub-runs.
void run_untraced(const RunConfig& cfg, Samples& setup_s, Result& out) {
  Samples rps, p50, p90, p99, cpu, recovery, locates;
  std::vector<double> rps_each;
  std::uint64_t samples = 0;
  std::size_t windows = 0;
  bool loop_recovery = false;
  for (int k = 0; k < kSubRuns; ++k) {
    auto w = timed_setup(cfg, setup_s);
    need(wait_drained(2s), "queues did not drain before timing");
    const Phase p =
        run_phase(w->threads(), cfg.seconds / kSubRuns, cfg.seed + k, false,
                  [&w](LoadCtx& ctx) { w->body(ctx); });
    tally(out, p.attempted, p.failed, p.errors);
    rps.add(p.throughput_rps());
    rps_each.push_back(p.throughput_rps());
    p50.add(p.latency_us(0.50));
    p99.add(p.latency_us(0.99));
    p90.add(p.latency_us(0.90));
    cpu.add(p.process_cpu_us /
            static_cast<double>(std::max<std::uint64_t>(p.attempted, 1)));
    recovery.merge(p.recovery_ms);
    locates.merge(p.locate_us);
    loop_recovery = loop_recovery || p.recovery_ms.size() > 0;
    samples += p.latency_samples();
    windows += p.window_rps.size();
    epilogue_into(*w, cfg.seed + k, recovery, locates, out);
  }
  out.metric("setup_s", setup_s.median(), "s");
  out.metric("throughput_rps", rps.median(), "1/s");
  out.metric("latency_p50_us", p50.median(), "us");
  out.metric("latency_p90_us", p90.median(), "us");
  // Printed, not bounded: on a shared 4-vCPU host its run-to-run spread is
  // too wide for a regression gate (see README.md).
  out.metric("latency_p99_us", p99.median(), "us");
  out.metric("cpu_us_per_op", cpu.median(), "us");
  out.metric("peak_rss_mb", peak_rss_mb(), "MB");
  out.metric("recovery_p50_ms", recovery.median(), "ms");
  out.metric("locate_p50_us", locates.median(), "us");
  out.note("error_rate", fmt(ratio(static_cast<double>(out.failed),
                                   static_cast<double>(out.attempted))));
  out.note("sub_runs", std::to_string(kSubRuns));
  std::string per_sub;
  for (double r : rps_each) per_sub += (per_sub.empty() ? "" : " ") + fmt(r);
  out.note("sub_run_throughput_rps", per_sub);
  out.note("latency_samples", std::to_string(samples));
  out.note("throughput_windows", std::to_string(windows));
  out.note("recovery_samples", std::to_string(recovery.size()));
  out.note("locate_samples", std::to_string(locates.size()));
  out.note("setup_repetitions", std::to_string(setup_s.size()));
  out.note("setup_p10_p90_s", fmt(setup_s.quantile(0.1)) + " " +
                                  fmt(setup_s.quantile(0.9)));
  out.note("recovery_source",
           loop_recovery ? "timed loop and epilogue" : "epilogue");
}

/// The per-layer run: one rig, untraced and traced phases alternated so
/// neither side gets the warmer half, then the layer probes.
void run_traced(const RunConfig& cfg, Result& out) {
  Samples setup_s;
  auto w = timed_setup(cfg, setup_s);
  need(wait_drained(2s), "queues did not drain before timing");
  const LoadBody body = [&w](LoadCtx& ctx) { w->body(ctx); };
  set_alloc_counting(true);
  const double slice = cfg.seconds * 0.15;
  std::vector<Phase> untraced, traced_phases;
  for (int pair = 0; pair < 2; ++pair) {
    untraced.push_back(
        run_phase(w->threads(), slice, cfg.seed + pair, false, body));
    need(wait_drained(2s), "queues did not drain between phases");
    traced_phases.push_back(
        run_phase(w->threads(), slice, cfg.seed + pair, true, body));
    need(wait_drained(2s), "queues did not drain between phases");
  }
  SpanLog epi_spans(true);
  ntcs::metrics::Snapshot epi_delta;
  LoadCtx epi = run_epilogue(*w, cfg.seed, epi_spans, epi_delta);
  set_alloc_counting(false);

  Samples rps_off, rps_on;
  std::vector<const SpanLog*> logs;
  std::uint64_t kept = 0;
  std::uint64_t dropped = 0;
  for (const Phase& p : untraced) {
    rps_off.add(p.throughput_rps());
    tally(out, p.attempted, p.failed, p.errors);
  }
  for (const Phase& p : traced_phases) {
    rps_on.add(p.throughput_rps());
    tally(out, p.attempted, p.failed, p.errors);
    for (const SpanLog& s : p.spans) {
      logs.push_back(&s);
      kept += s.spans().size();
      dropped += s.dropped();
    }
  }
  logs.push_back(&epi_spans);
  kept += epi_spans.spans().size();
  tally(out, epi.attempted, epi.failed, epi.errors);
  report_layers(untraced.front(), epi, epi_delta, rps_off.median(),
                rps_on.median(), kept, out);
  for (const auto& [name, st] : span_stats(logs)) {
    out.note("span." + name, "n=" + std::to_string(st.count) +
                                 " mean_us=" + fmt(st.mean_us) +
                                 " self_us=" + fmt(st.self_us));
  }
  const std::string path = cfg.out_dir + "/spans-" + cfg.workload + ".tsv";
  need(write_spans(path, logs), "write " + path);
  out.note("spans_file", path);
  out.note("spans_dropped", std::to_string(dropped));
  w.reset();
  run_probes(cfg, out);
}

}  // namespace

void run_workload(const RunConfig& cfg, Result& out) {
  if (cfg.trace) {
    run_traced(cfg, out);
    return;
  }
  // Extra set-ups first, so cheap ones are timed often enough for a steady
  // median; every rig measured afterwards adds its set-up too.
  Samples setup_s;
  double total = 0;
  while (setup_s.size() < kMaxSetups && total < kSetupBudgetS) {
    const std::int64_t t0 = now_ns();
    timed_setup(cfg, setup_s).reset();
    total += static_cast<double>(now_ns() - t0) / 1e9;
  }
  run_untraced(cfg, setup_s, out);
}

}  // namespace perfbench
