// bench_overload.cpp — the overload-control acceptance experiment.
//
// Unlike the other benchmarks this is scenario-driven, not
// iteration-driven: it offers a 10x overload storm to a bounded-queue
// victim and writes BENCH_overload.json with the three numbers the
// overload design is accountable for:
//
//   1. bounded memory — process RSS growth during the storm stays within
//      allocator slack, nowhere near the offered byte volume;
//   2. bounded latency for admitted requests — the p99 of requests that
//      were admitted (completed) stays within a small multiple of the
//      unloaded p99, because everything that cannot be served in time is
//      shed fast (busy frames, deadline-aware admission) instead of
//      queued;
//   3. accounting — completed + shed/rejected + timed-out reconciles with
//      offered: overload never makes requests disappear silently.
//
// A fourth scenario saturates a metered gateway relay and records the
// per-peer fairness drops next to a control-plane lookup that must cross
// the same relay unmetered.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "core/testbed.h"

namespace ntcs::bench {
namespace {

using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

long max_rss_kb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss;
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * (v.size() - 1));
  return v[idx];
}

/// One LAN, a pipelining sender and an echo victim whose inbound queue is
/// bounded tight, so a storm exercises shed + busy back-pressure rather
/// than buffering.
struct StormRig {
  core::Testbed tb{1};
  std::unique_ptr<core::Node> sender;
  std::unique_ptr<core::Node> victim;
  std::jthread echo;
  core::UAdd victim_addr;

  explicit StormRig(std::size_t victim_queue, std::size_t reserve,
                    std::chrono::nanoseconds busy_pause = 2ms) {
    tb.net("lan");
    tb.machine("m1", convert::Arch::vax780, {"lan"});
    tb.machine("m2", convert::Arch::sun3, {"lan"});
    if (!tb.start_name_server("m1", "lan").ok()) std::abort();
    if (!tb.finalize().ok()) std::abort();

    auto scfg = tb.node_config("src", "m1", "lan");
    scfg.lcm.busy_pause = busy_pause;
    sender = std::make_unique<core::Node>(scfg);
    if (!sender->start().ok() || !sender->commod().register_self().ok()) {
      std::abort();
    }
    auto vcfg = tb.node_config("victim", "m2", "lan");
    vcfg.lcm.max_inbound_queue = victim_queue;
    vcfg.lcm.control_reserve = reserve;
    victim = std::make_unique<core::Node>(vcfg);
    if (!victim->start().ok() || !victim->commod().register_self().ok()) {
      std::abort();
    }
    echo = std::jthread([this](std::stop_token st) {
      while (!st.stop_requested()) {
        auto in = victim->commod().receive(50ms);
        if (in.ok() && in.value().is_request) {
          (void)victim->commod().reply(in.value().reply_ctx,
                                       in.value().payload);
        }
      }
    });
    victim_addr = sender->commod().locate("victim").value();
    (void)sender->commod().request(victim_addr, to_bytes("warm"), 5s);
  }

  ~StormRig() {
    echo.request_stop();
    if (echo.joinable()) echo.join();
    sender->stop();
    victim->stop();
  }
};

struct StormResult {
  std::uint64_t offered = 0;
  std::uint64_t completed = 0;
  std::uint64_t overloaded = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t other = 0;
  double p50_admitted_us = 0;
  double p99_admitted_us = 0;
  long rss_growth_kb = 0;
};

/// Offer `threads * per_thread` requests and tally every outcome. With
/// `pace` zero the threads re-offer as fast as the busy/admission
/// machinery allows (the storm); a non-zero pace keeps the offered load
/// inside capacity (the concurrency-matched baseline).
StormResult run_storm(StormRig& rig, int threads, int per_thread,
                      std::chrono::nanoseconds deadline,
                      std::chrono::nanoseconds pace = {},
                      std::chrono::nanoseconds reject_backoff = {}) {
  StormResult res;
  res.offered = static_cast<std::uint64_t>(threads) * per_thread;
  const long rss_before = max_rss_kb();
  std::atomic<std::uint64_t> completed{0}, overloaded{0}, timeouts{0},
      other{0};
  std::vector<std::vector<double>> lat(threads);
  {
    std::vector<std::jthread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const ntcs::Bytes body = to_bytes(std::string(1024, 's'));
        lat[t].reserve(per_thread);
        for (int i = 0; i < per_thread; ++i) {
          const auto start = Clock::now();
          auto r = rig.sender->commod().request(rig.victim_addr, body,
                                                deadline);
          if (r.ok()) {
            const auto us = std::chrono::duration<double, std::micro>(
                                Clock::now() - start)
                                .count();
            lat[t].push_back(us);
            completed.fetch_add(1, std::memory_order_relaxed);
          } else if (r.code() == ntcs::Errc::overloaded) {
            overloaded.fetch_add(1, std::memory_order_relaxed);
          } else if (r.code() == ntcs::Errc::timeout) {
            timeouts.fetch_add(1, std::memory_order_relaxed);
          } else {
            other.fetch_add(1, std::memory_order_relaxed);
          }
          if (!r.ok() && r.code() == ntcs::Errc::overloaded &&
              reject_backoff.count() > 0) {
            // overloaded is retriable: a well-behaved client backs off
            // before re-offering, which also keeps the storm sustained in
            // time instead of burning all its attempts into one pause.
            std::this_thread::sleep_for(reject_backoff);
          }
          if (pace.count() > 0) std::this_thread::sleep_for(pace);
        }
      });
    }
  }
  res.rss_growth_kb = max_rss_kb() - rss_before;
  res.completed = completed.load();
  res.overloaded = overloaded.load();
  res.timeouts = timeouts.load();
  res.other = other.load();
  std::vector<double> all;
  for (auto& v : lat) all.insert(all.end(), v.begin(), v.end());
  res.p50_admitted_us = percentile(all, 0.50);
  res.p99_admitted_us = percentile(all, 0.99);
  return res;
}

/// Saturate a metered gateway relay with data frames while a control-class
/// lookup crosses the same relay.
struct GatewayResult {
  std::uint64_t offered = 0;
  std::uint64_t fairness_drops = 0;
  bool control_ok = false;
};

GatewayResult run_gateway_saturation() {
  GatewayResult res;
  HopRig& rig = hop_rig(1);
  for (std::size_t g = 0; g < rig.tb.gateway_count(); ++g) {
    auto& gw = rig.tb.gateway(g);
    for (std::size_t i = 0; i < gw.attachment_count(); ++i) {
      gw.attachment(i).ip().set_relay_fair_rate(200);
    }
  }
  const std::uint64_t before =
      metrics::MetricsRegistry::instance().snapshot().value(
          "gw.fairness_drops");
  constexpr int kStorm = 4000;
  res.offered = kStorm;
  const ntcs::Bytes junk = to_bytes(std::string(64, 'g'));
  for (int i = 0; i < kStorm; ++i) {
    (void)rig.src->commod().send(rig.dst_addr, junk);
  }
  res.fairness_drops = metrics::MetricsRegistry::instance().snapshot().value(
                           "gw.fairness_drops") -
                       before;
  // Control-class traffic (naming lookup from the far side, internal on
  // the wire) must cross the saturated relay unmetered.
  res.control_ok = rig.dst->commod().locate("src").ok();
  // Restore the unmetered default so other scenarios reusing the cached
  // rig are unaffected.
  for (std::size_t g = 0; g < rig.tb.gateway_count(); ++g) {
    auto& gw = rig.tb.gateway(g);
    for (std::size_t i = 0; i < gw.attachment_count(); ++i) {
      gw.attachment(i).ip().set_relay_fair_rate(0);
    }
  }
  return res;
}

}  // namespace
}  // namespace ntcs::bench

int main() {
  using namespace ntcs::bench;
  using namespace std::chrono_literals;
  using Clock = std::chrono::steady_clock;

  // ---- unloaded baseline: one caller, no contention ----------------------
  std::vector<double> base_lat;
  {
    StormRig rig(/*victim_queue=*/4096, /*reserve=*/256);
    constexpr int kBase = 400;
    base_lat.reserve(kBase);
    const ntcs::Bytes body = ntcs::to_bytes(std::string(1024, 'b'));
    for (int i = 0; i < kBase; ++i) {
      const auto start = Clock::now();
      auto r = rig.sender->commod().request(rig.victim_addr, body, 5s);
      if (r.ok()) {
        base_lat.push_back(std::chrono::duration<double, std::micro>(
                               Clock::now() - start)
                               .count());
      }
    }
  }
  const double base_p50 = percentile(base_lat, 0.50);
  const double base_p99 = percentile(base_lat, 0.99);

  // ---- concurrency-matched baseline --------------------------------------
  // The same 6 caller threads, paced inside capacity against an unbounded
  // victim: its p99 carries the scheduler-contention cost of 6 threads on
  // however many cores this host has, with no overload in play. The storm
  // is then accountable for at most 2x THIS number — comparing the storm
  // against the single-caller baseline would blame admission control for
  // plain CPU contention.
  StormResult paced;
  {
    StormRig rig(/*victim_queue=*/4096, /*reserve=*/256);
    paced = run_storm(rig, /*threads=*/6, /*per_thread=*/400,
                      /*deadline=*/5s, /*pace=*/2ms);
  }

  // ---- 10x overload storm against a tightly bounded victim ---------------
  // 6 threads re-offering as fast as back-pressure allows against a
  // 2-deep inbound queue: offered load stays an order of magnitude past
  // what the victim admits, the rest sheds fast and accounts exactly.
  // Shed callers back off 2 ms before re-offering (overloaded is
  // retriable; a client that re-offers instantly is a spin loop, not a
  // workload), which keeps the storm sustained across many busy-pause
  // cycles. Admitted requests wait behind at most the 1-slot backlog
  // plus one 1 ms pause, so their p99 stays within 2x the
  // concurrency-matched baseline — the bounded-latency claim the
  // admission machinery exists to make.
  constexpr auto kStormPause = 1ms;
  StormResult storm;
  {
    StormRig rig(/*victim_queue=*/2, /*reserve=*/1,
                 /*busy_pause=*/kStormPause);
    storm = run_storm(rig, /*threads=*/6, /*per_thread=*/400,
                      /*deadline=*/100ms, /*pace=*/{},
                      /*reject_backoff=*/2ms);
  }

  // ---- gateway relay saturation with per-peer fairness metering ----------
  const GatewayResult gw = run_gateway_saturation();

  const std::uint64_t accounted =
      storm.completed + storm.overloaded + storm.timeouts + storm.other;
  const double accounted_ratio =
      storm.offered ? static_cast<double>(accounted) / storm.offered : 0.0;
  const bool pass_memory = storm.rss_growth_kb < 64 * 1024;
  // The design's latency promise for an admitted request: it waits at
  // most one busy pause plus the (1-slot) bounded backlog before the
  // victim serves it, so its p99 must stay within 2x of the
  // unloaded-at-equal-concurrency p99 plus that one pause. Without the
  // bounds and the back-pressure the storm's queues grow without limit
  // and this number grows with them.
  const double pause_us =
      std::chrono::duration<double, std::micro>(kStormPause).count();
  const bool pass_p99 =
      storm.p99_admitted_us <= 2.0 * (paced.p99_admitted_us + pause_us);
  const bool pass_accounting = accounted_ratio >= 0.99;

  // Gauge-plane accounting: the LCM inbound-queue gauge must have
  // witnessed the storm reaching the shed cliff — sheds happen only once
  // depth crosses bound - reserve, so shed > 0 implies a recorded peak at
  // least that deep (the tight victim's cliff is 2 - 1 = 1) — and must
  // balance back to zero after every rig is torn down: one unpaired
  // increment/decrement across the storm's enqueue/shed/drain cycles
  // would leave a residue in the live depth.
  const ntcs::metrics::Snapshot gsnap =
      ntcs::metrics::MetricsRegistry::instance().snapshot();
  const std::int64_t q_depth = gsnap.gauge_value("lcm.app_queue.depth");
  std::int64_t q_peak = 0;
  if (auto it = gsnap.values.find("lcm.app_queue.depth");
      it != gsnap.values.end()) {
    q_peak = it->second.gauge_peak;
  }
  const bool pass_gauges =
      storm.overloaded == 0 || (q_peak >= 1 && q_depth == 0);

  std::FILE* f = std::fopen("BENCH_overload.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "failed to open BENCH_overload.json\n");
    return 1;
  }
  std::fprintf(f,
               "{\n"
               "  \"unloaded\": {\"requests\": %zu, \"p50_us\": %.1f, "
               "\"p99_us\": %.1f},\n"
               "  \"paced_baseline\": {\"offered\": %llu, \"completed\": "
               "%llu, \"p50_us\": %.1f, \"p99_us\": %.1f},\n"
               "  \"storm\": {\n"
               "    \"offered\": %llu,\n"
               "    \"completed\": %llu,\n"
               "    \"shed_overloaded\": %llu,\n"
               "    \"timeouts\": %llu,\n"
               "    \"other_errors\": %llu,\n"
               "    \"accounted_ratio\": %.4f,\n"
               "    \"p50_admitted_us\": %.1f,\n"
               "    \"p99_admitted_us\": %.1f,\n"
               "    \"rss_growth_kb\": %ld\n"
               "  },\n"
               "  \"gateway\": {\"offered\": %llu, \"fairness_drops\": %llu, "
               "\"control_plane_ok\": %s},\n"
               "  \"queue_gauge\": {\"depth_after\": %lld, \"peak\": %lld},\n"
               "  \"pass\": {\"bounded_memory\": %s, \"bounded_p99\": %s, "
               "\"accounting\": %s, \"gauge_accounting\": %s, "
               "\"gateway_fairness\": %s}\n"
               "}\n",
               base_lat.size(), base_p50, base_p99,
               static_cast<unsigned long long>(paced.offered),
               static_cast<unsigned long long>(paced.completed),
               paced.p50_admitted_us, paced.p99_admitted_us,
               static_cast<unsigned long long>(storm.offered),
               static_cast<unsigned long long>(storm.completed),
               static_cast<unsigned long long>(storm.overloaded),
               static_cast<unsigned long long>(storm.timeouts),
               static_cast<unsigned long long>(storm.other),
               accounted_ratio, storm.p50_admitted_us, storm.p99_admitted_us,
               storm.rss_growth_kb,
               static_cast<unsigned long long>(gw.offered),
               static_cast<unsigned long long>(gw.fairness_drops),
               gw.control_ok ? "true" : "false",
               static_cast<long long>(q_depth), static_cast<long long>(q_peak),
               pass_memory ? "true" : "false", pass_p99 ? "true" : "false",
               pass_accounting ? "true" : "false",
               pass_gauges ? "true" : "false",
               (gw.fairness_drops > 0 && gw.control_ok) ? "true" : "false");
  std::fclose(f);
  if (!dump_metrics_json("BENCH_overload_metrics.json")) {
    std::fprintf(stderr, "failed to write BENCH_overload_metrics.json\n");
    return 1;
  }
  std::printf(
      "bench_overload: offered=%llu completed=%llu shed=%llu timeouts=%llu "
      "p99_admitted=%.0fus (unloaded p99=%.0fus) rss_growth=%ldKiB "
      "gw_drops=%llu\n",
      static_cast<unsigned long long>(storm.offered),
      static_cast<unsigned long long>(storm.completed),
      static_cast<unsigned long long>(storm.overloaded),
      static_cast<unsigned long long>(storm.timeouts), storm.p99_admitted_us,
      base_p99, storm.rss_growth_kb,
      static_cast<unsigned long long>(gw.fairness_drops));
  return (pass_memory && pass_accounting && pass_gauges) ? 0 : 1;
}
