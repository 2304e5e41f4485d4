// probes.cpp — the per-layer probes of a traced run.
//
// A probe rig of its own (simnet: two nets joined by one gateway, a
// classic Name Server, same-architecture echo modules, a relocatable
// module and an URSA deployment) is driven through each layer's public
// call, one call per span:
//
//   layer ladder   the same 64-byte payload over a warm 0-hop circuit
//                  through ComMod, LcmLayer, IpLayer and NdLayer; a layer's
//                  self time is the difference between adjacent rungs;
//   substrate      raw frame ping-pong between two ports bound through
//                  IpcsBackend::bind, on simnet and on loopback TCP;
//   set-up paths   NdLayer open+close, IpLayer open_ivc at 0 and 1 gateway
//                  hops, NspLayer lookups that hit and miss the lease
//                  cache, ProcessController::relocate;
//   conversion     ComMod::payload_for + pack and ComMod::decode on a
//                  512-field schema record; UrsaHost search and fetch.
#include <cstring>
#include <functional>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "convert/mode.h"
#include "convert/schema.h"
#include "core/testbed.h"
#include "core/wire/frames.h"
#include "drts/process_control.h"
#include "ursa/servers.h"

namespace perfbench {

namespace {

using namespace std::chrono_literals;
using ntcs::convert::Arch;
namespace core = ntcs::core;
namespace drts = ntcs::drts;
namespace wire = ntcs::core::wire;

constexpr int kCalls = 2000;      // per cheap rung
constexpr int kSetupCalls = 200;  // per set-up path probe
constexpr int kBatch = 32;        // async sends between drains

class Prober {
 public:
  Prober(SpanLog& log, Result& out) : log_(log), out_(out) {}

  /// Time `n` calls of f(i) -> bool (true = correct), one span each, and
  /// report the median in µs (or ms when scale is 1e3).
  template <typename F>
  double time(const char* name, int n, F&& f, double scale = 1.0) {
    Samples s;
    const std::uint64_t op = log_.next_id();
    for (int i = 0; i < n; ++i) {
      const std::uint64_t id = log_.next_id();
      const std::int64_t t0 = now_ns();
      const bool ok = f(i);
      const std::int64_t t1 = now_ns();
      log_.add(name, id, 0, op, t0, t1);
      s.add(static_cast<double>(t1 - t0) / 1e3 / scale);
      if (!ok) out_.fail(std::string(name) + ": call failed or reply wrong");
    }
    return s.median();
  }

  struct Rung {
    const char* name;
    std::function<bool()> call;
  };

  /// Time ladder rungs round-robin, one call of each per round, so drift
  /// in the machine's speed lands on every rung alike and the differences
  /// between rungs stay meaningful. With `drain`, the queues are drained
  /// (untimed) every kBatch rounds. Returns each rung's median in µs.
  std::vector<double> ladder(const std::vector<Rung>& rungs, int n,
                             bool drain) {
    std::vector<Samples> s(rungs.size());
    const std::uint64_t op = log_.next_id();
    for (int i = 0; i < n; ++i) {
      for (std::size_t r = 0; r < rungs.size(); ++r) {
        const std::uint64_t id = log_.next_id();
        const std::int64_t t0 = now_ns();
        const bool ok = rungs[r].call();
        const std::int64_t t1 = now_ns();
        log_.add(rungs[r].name, id, 0, op, t0, t1);
        s[r].add(static_cast<double>(t1 - t0) / 1e3);
        if (!ok) out_.fail(std::string(rungs[r].name) + ": call failed");
      }
      if (drain && (i + 1) % kBatch == 0 && !wait_drained(2s)) {
        out_.fail("ladder: queues did not drain");
      }
    }
    if (drain && !wait_drained(2s)) out_.fail("ladder: no drain");
    std::vector<double> medians;
    for (const Samples& x : s) medians.push_back(x.median());
    return medians;
  }

 private:
  SpanLog& log_;
  Result& out_;
};

/// Raw frame ping-pong between two ports of one backend: the substrate
/// floor under the ladder.
double frame_rtt_us(Prober& pr, const char* name, core::IpcsBackend& backend,
                    const std::string& tag, Result& out) {
  auto a = backend.bind(tag + "-a");
  auto b = backend.bind(tag + "-b");
  need(a.ok() && b.ok(), std::string(name) + ": bind");
  std::shared_ptr<core::IpcsPort> pa = a.value();
  std::shared_ptr<core::IpcsPort> pb = b.value();
  std::jthread echo([pb](std::stop_token st) {
    while (!st.stop_requested()) {
      auto d = pb->recv_for(20ms);
      if (!d.ok()) {
        if (d.code() == ntcs::Errc::timeout) continue;
        return;
      }
      if (d.value().kind == core::IpcsDeliveryKind::data) {
        (void)pb->send(d.value().chan, {}, d.value().payload);
      }
    }
  });
  auto chan = pa->connect(pb->phys());
  need(chan.ok(), std::string(name) + ": connect");
  ntcs::Bytes frame(64, 0x5A);
  auto ping = [&](int i) {
    std::memcpy(frame.data(), &i, sizeof i);
    if (!pa->send(chan.value(), {}, frame).ok()) return false;
    for (;;) {
      auto d = pa->recv_for(2s);
      if (!d.ok()) return false;
      if (d.value().kind == core::IpcsDeliveryKind::data) {
        return d.value().payload == frame;
      }
    }
  };
  for (int i = 0; i < 200; ++i) {
    if (!ping(i)) out.fail(std::string(name) + ": warm-up ping");
  }
  const double rtt = pr.time(name, kCalls, ping);
  echo.request_stop();
  echo.join();
  pa->close();
  pb->close();
  return rtt;
}

/// A 512-field record, all u64, seeded.
ntcs::convert::MessageSchema wide_schema() {
  std::vector<ntcs::convert::FieldSpec> fields;
  for (int i = 0; i < 512; ++i) {
    fields.push_back({"f" + std::to_string(i), ntcs::convert::FieldType::u64});
  }
  return ntcs::convert::MessageSchema("wide", std::move(fields));
}

struct ProbeRig {
  core::Testbed tb;
  drts::ProcessController pc{tb};
  std::shared_ptr<ursa::Corpus> corpus;
  std::unique_ptr<core::Node> src;
  std::unique_ptr<ursa::UrsaHost> host;
  core::UAdd dst, far;

  explicit ProbeRig(std::uint64_t seed) : tb(seed) {
    tb.net("p0");
    tb.net("p1");
    tb.machine("pa", Arch::vax780, {"p0"});
    tb.machine("pb", Arch::vax780, {"p0"});
    tb.machine("pg", Arch::apollo_dn330, {"p0", "p1"});
    tb.machine("pc", Arch::sun3, {"p1"});
    tb.machine("pc2", Arch::sun3, {"p1"});
    need(tb.start_name_server("pa", "p0").ok(), "probe name server");
    need(tb.add_gateway("gw", "pg", {"p0", "p1"}).ok(), "probe gateway");
    need(tb.finalize().ok(), "probe finalize");
    tb.name_server().load_records("pm", kCalls, "tcp:bulk:1", "p0");
    struct Placed {
      const char* name;
      const char* machine;
      const char* net;
    };
    for (const Placed& m : {Placed{"p-dst", "pb", "p0"},
                            Placed{"p-far", "pc", "p1"},
                            Placed{"p-mover", "pc", "p1"}}) {
      need(pc.spawn(m.name, m.machine, m.net, {}, drts::make_echo_service(""))
               .ok(),
           std::string("spawn ") + m.name);
    }
    ursa::UrsaPlacement at;
    at.index_machine = at.doc_machine = at.search_machine = "pc";
    at.index_net = at.doc_net = at.search_net = "p1";
    auto c = ursa::spawn_ursa(pc, at, 500, 21);
    need(c.ok(), "probe URSA servers");
    corpus = c.value();
    auto s = tb.spawn_module("p-src", "pa", "p0");
    need(s.ok(), "probe source module");
    src = std::move(s.value());
    auto d = src->commod().locate("p-dst");
    auto f = src->commod().locate("p-far");
    need(d.ok() && f.ok(), "probe locate");
    dst = d.value();
    far = f.value();
    host = std::make_unique<ursa::UrsaHost>(*src);
    need(host->connect().ok(), "probe URSA host");
  }
  ~ProbeRig() { src->stop(); }

  core::ResolvedDest resolved(const char* name, core::UAdd u) {
    core::Node* n = pc.find(name);
    need(n != nullptr, std::string("probe module ") + name);
    return core::ResolvedDest{u, n->phys(), n->config().net};
  }
};

}  // namespace

void run_probes(const RunConfig& cfg, Result& out) {
  SpanLog log(true, 1 << 16);
  Prober pr(log, out);
  ProbeRig rig(cfg.seed);
  core::ComMod& cm = rig.src->commod();
  ntcs::Rng rng(cfg.seed);
  ntcs::Bytes payload(64);
  for (auto& b : payload) b = static_cast<std::uint8_t>(rng.next());
  const core::Payload raw = core::Payload::raw(payload);
  for (int i = 0; i < 200; ++i) {
    need(cm.request(rig.dst, payload, 5s).ok(), "probe warm-up request");
  }
  need(wait_drained(2s), "probe rig queues did not drain");

  // ---- the layer ladder: sync requests, then async sends ----------------
  const std::vector<double> sync = pr.ladder(
      {{"ali.request",
        [&] {
          auto r = cm.request(rig.dst, payload, 5s);
          return r.ok() && r.value().payload == payload;
        }},
       {"lcm.request",
        [&] {
          auto r = rig.src->lcm().request(rig.dst, raw);
          return r.ok() && r.value().payload == payload;
        }}},
      kCalls, false);
  const core::ResolvedDest dst = rig.resolved("p-dst", rig.dst);
  auto ivc = rig.src->ip().open_ivc(dst);
  need(ivc.ok(), "probe open_ivc");
  wire::LcmHeader hdr;
  hdr.kind = wire::LcmKind::data;
  hdr.src = cm.self();
  hdr.dst = rig.dst;
  hdr.mode = ntcs::convert::xfer_mode_wire_id(ntcs::convert::XferMode::image);
  hdr.src_arch = ntcs::convert::arch_wire_id(cm.arch());
  const ntcs::Bytes lcm_msg = wire::encode_lcm(hdr, payload);
  auto lvc = rig.src->nd().open(dst.phys);
  need(lvc.ok(), "probe nd open");
  // IP data envelopes for a circuit the peer does not know: the peer's
  // IP-Layer drops them, so only the sending side's cost is in the rung.
  const ntcs::Bytes envelope = wire::encode_ip_data(0xBE7C4, lcm_msg);
  const ntcs::Bytes big = wire::encode_ip_data(
      0xBE7C4, wire::encode_lcm(hdr, ntcs::Bytes(64 << 10, 0xA5)));
  const std::vector<double> async = pr.ladder(
      {{"ali.send", [&] { return cm.send(rig.dst, payload).ok(); }},
       {"lcm.send", [&] { return rig.src->lcm().send(rig.dst, raw).ok(); }},
       {"ip.send",
        [&] { return rig.src->ip().send(ivc.value(), lcm_msg).ok(); }},
       {"nd.send",
        [&] { return rig.src->nd().send(lvc.value(), envelope).ok(); }}},
      kCalls, true);
  const double nd_send_64k = pr.ladder(
      {{"nd.send_64k",
        [&] { return rig.src->nd().send(lvc.value(), big).ok(); }}},
      kSetupCalls, true)[0];
  (void)rig.src->ip().close_ivc(ivc.value());
  (void)rig.src->nd().close(lvc.value());
  out.metric("ali.request_us", sync[0], "us");
  out.metric("lcm.request_us", sync[1], "us");
  out.metric("ali.send_us", async[0], "us");
  out.metric("lcm.send_us", async[1], "us");
  out.metric("ip.send_us", async[2], "us");
  out.metric("nd.send_us", async[3], "us");
  out.metric("nd.send_64k_us", nd_send_64k, "us");
  out.metric("self.ali_request_us", sync[0] - sync[1], "us");
  out.metric("self.ali_send_us", async[0] - async[1], "us");
  out.metric("self.lcm_send_us", async[1] - async[2], "us");
  out.metric("self.ip_send_us", async[2] - async[3], "us");

  // ---- substrate floor ---------------------------------------------------
  out.metric("simnet.frame_rtt_us",
             frame_rtt_us(pr, "simnet.frame_rtt", *rig.tb.backend("pa"),
                          "rtt", out),
             "us");
  {
    core::Testbed tcp(cfg.seed, core::Substrate::realnet);
    tcp.net("lo");
    tcp.machine("ra", Arch::vax780, {"lo"});
    out.metric("realnet.frame_rtt_us",
               frame_rtt_us(pr, "realnet.frame_rtt", *tcp.backend("ra"), "rtt",
                            out),
               "us");
  }

  // ---- set-up paths ------------------------------------------------------
  out.metric("nd.open_us", pr.time("nd.open_close", kSetupCalls, [&](int) {
    auto l = rig.src->nd().open(dst.phys);
    return l.ok() && rig.src->nd().close(l.value()).ok();
  }), "us");
  const core::ResolvedDest far = rig.resolved("p-far", rig.far);
  for (const auto& [name, to] : {std::pair{"ip.open_ivc_0hop", &dst},
                                 std::pair{"ip.open_ivc_1hop", &far}}) {
    out.metric(std::string(name) + "_us",
               pr.time(name, kSetupCalls, [&](int) {
                 auto h = rig.src->ip().open_ivc(*to);
                 return h.ok() && rig.src->ip().close_ivc(h.value()).ok();
               }),
               "us");
  }
  out.metric("nsp.lookup_hit_us", pr.time("nsp.lookup_hit", kCalls, [&](int) {
    auto u = rig.src->nsp().lookup("p-dst");
    return u.ok() && u.value() == rig.dst;
  }), "us");
  out.metric("nsp.lookup_miss_us", pr.time("nsp.lookup_miss", kCalls, [&](int i) {
    return rig.src->nsp().lookup("pm" + std::to_string(i)).ok();
  }), "us");
  bool moved = false;
  out.metric("drts.relocate_ms", pr.time("drts.relocate", 8, [&](int) {
    moved = !moved;
    return rig.pc.relocate("p-mover", moved ? "pc2" : "pc", "p1").ok();
  }, 1e3), "ms");

  // ---- conversion and the URSA host API ----------------------------------
  const auto schema = wide_schema();
  auto rec = schema.make_record();
  for (const auto& f : schema.fields()) (void)rec.set_u64(f.name, rng.next());
  ntcs::Bytes packed;
  out.metric("convert.pack_us", pr.time("convert.pack", 500, [&](int) {
    auto p = cm.payload_for(rec);
    if (!p.ok() || !p.value().pack) return false;
    auto bytes = p.value().pack();
    if (!bytes.ok()) return false;
    packed = std::move(bytes.value());
    return true;
  }), "us");
  core::Reply packed_reply{packed, ntcs::convert::XferMode::packed, Arch::sun3};
  out.metric("convert.decode_us", pr.time("convert.decode", 500, [&](int) {
    auto r = cm.decode(packed_reply, schema);
    return r.ok() && r.value() == rec;
  }), "us");
  const auto& vocab = rig.corpus->vocabulary();
  out.metric("ursa.search_us", pr.time("ursa.search", 300, [&](int i) {
    const std::string q =
        vocab[static_cast<std::size_t>(i) % std::min<std::size_t>(200, vocab.size())];
    return rig.host->search(q, 10).ok();
  }), "us");
  out.metric("ursa.fetch_us", pr.time("ursa.fetch", 300, [&](int i) {
    const auto id = static_cast<std::uint64_t>(i % 500 + 1);
    auto d = rig.host->fetch(id);
    return d.ok() && d.value().text == rig.corpus->find(id)->text;
  }), "us");

  const std::string path =
      cfg.out_dir + "/spans-" + cfg.workload + "-probes.tsv";
  need(write_spans(path, {&log}), "write " + path);
  out.note("probe_spans_file", path);
}

}  // namespace perfbench
