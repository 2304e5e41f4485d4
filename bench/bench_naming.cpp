// Naming at scale (DESIGN §5f, EXPERIMENTS A6): the sharded, replicated
// name service under a realistic large-registry load.
//
// Four measured phases, written to BENCH_naming_scale.json:
//
//   1. load      — one million names bulk-loaded into a 4-shard service
//                  (primaries and warm standbys load the same deterministic
//                  striped records, so replication ships no snapshot);
//   2. storm     — a lookup storm over a 1000-name working set; leases must
//                  absorb >= 90% of it (measured, not assumed) and the
//                  p50/p99 of the mixed hit/miss stream is recorded;
//   3. kill      — a shard primary dies mid-storm; lookups keep flowing
//                  through candidate rotation and a write promotes the
//                  standby. p99 across the window, and ZERO non-retriable
//                  errors allowed;
//   4. reconfig  — a 10k-move storm (re-registrations of loaded names):
//                  every move bumps the owner shard's epoch, killing stale
//                  leases; the rate and a moved-name resolution check are
//                  recorded.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "core/nsp/shard_map.h"

namespace {

using namespace ntcs;
using namespace ntcs::bench;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

constexpr std::size_t kShards = 4;
constexpr std::size_t kNames = 1'000'000;
constexpr std::size_t kWorkingSet = 1'000;
constexpr int kStormRounds = 20;
constexpr std::size_t kMoves = 10'000;
constexpr std::size_t kKillShard = 1;

double us_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
}

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t idx =
      std::min(v.size() - 1, static_cast<std::size_t>(p * v.size()));
  return v[idx];
}

bool retriable(ntcs::Errc e) {
  switch (e) {
    case ntcs::Errc::timeout:
    case ntcs::Errc::not_found:
    case ntcs::Errc::wrong_shard:
    case ntcs::Errc::address_fault:
    case ntcs::Errc::no_route:
    case ntcs::Errc::closed:
    case ntcs::Errc::refused:
    case ntcs::Errc::overloaded:
    case ntcs::Errc::partitioned:
      return true;
    default:
      return false;
  }
}

std::string bulk_name(std::size_t i) { return "n" + std::to_string(i); }

}  // namespace

int main() {
  core::Testbed tb;
  tb.net("lan");
  tb.machine("m1", convert::Arch::vax780, {"lan"});
  tb.machine("m2", convert::Arch::sun3, {"lan"});
  tb.machine("m3", convert::Arch::apollo_dn330, {"lan"});
  if (!tb.start_name_service(kShards, {"m1", "m2", "m3"}, "lan",
                             /*with_standbys=*/true, /*lease_ms=*/10'000)
           .ok()) {
    std::fprintf(stderr, "name service bring-up failed\n");
    return 1;
  }
  if (!tb.finalize().ok()) {
    std::fprintf(stderr, "finalize failed\n");
    return 1;
  }

  // ---- phase 1: bulk-load one million names ------------------------------
  // Primaries and standbys load the identical deterministic records; the
  // replication link then only has to carry the increments of phases 3-4.
  const auto load_t0 = Clock::now();
  std::size_t loaded_primary = 0;
  std::size_t loaded_standby = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    loaded_primary += tb.shard(s).load_records("n", kNames, "tcp:bulk:1", "lan");
    loaded_standby +=
        tb.shard_standby(s).load_records("n", kNames, "tcp:bulk:1", "lan");
  }
  const double load_ms = us_since(load_t0) / 1000.0;
  if (loaded_primary != kNames || loaded_standby != kNames) {
    std::fprintf(stderr, "bulk load mismatch: %zu/%zu of %zu\n",
                 loaded_primary, loaded_standby, kNames);
    return 1;
  }

  auto client = tb.spawn_module("bench-client", "m1", "lan").value();

  // ---- phase 2: lookup storm over a hot working set ----------------------
  // kWorkingSet distinct names, kStormRounds passes: the first pass misses
  // (one shard round trip each), every later pass must come out of the
  // lease cache.
  std::vector<std::string> working;
  working.reserve(kWorkingSet);
  for (std::size_t i = 0; i < kWorkingSet; ++i) {
    working.push_back(bulk_name((i * 997) % kNames));
  }
  const metrics::Snapshot storm_stats_before = client->metrics().snapshot();
  std::vector<double> storm_us;
  storm_us.reserve(kWorkingSet * kStormRounds);
  for (int round = 0; round < kStormRounds; ++round) {
    for (const std::string& name : working) {
      const auto t0 = Clock::now();
      auto r = client->nsp().lookup(name);
      storm_us.push_back(us_since(t0));
      if (!r.ok()) {
        std::fprintf(stderr, "storm lookup '%s' failed: %s\n", name.c_str(),
                     r.error().what().c_str());
        return 1;
      }
    }
  }
  const metrics::Snapshot storm_stats =
      client->metrics().snapshot().delta(storm_stats_before);
  const std::uint64_t storm_hits = storm_stats.value("nsp.cache_hits");
  const std::uint64_t storm_misses = storm_stats.value("nsp.cache_misses");
  const double hit_ratio =
      static_cast<double>(storm_hits) /
      static_cast<double>(storm_hits + storm_misses);
  const double storm_p50 = percentile(storm_us, 0.50);
  const double storm_p99 = percentile(storm_us, 0.99);

  // ---- phase 3: primary death across a lookup window ---------------------
  // Work a set owned by the victim shard, force each lookup to the server
  // (leases would otherwise hide the outage entirely), kill the primary
  // mid-window, and promote the standby with one write. Every error in the
  // window must be retriable.
  const core::nsp::ShardMap map(kShards);
  std::vector<std::string> victims;
  for (std::size_t i = 0; victims.size() < 200 && i < kNames; ++i) {
    if (map.shard_of(bulk_name(i)) == kKillShard) {
      victims.push_back(bulk_name(i));
    }
  }
  const metrics::MetricsRegistry& standby =
      tb.shard_standby(kKillShard).node().metrics();
  const std::uint64_t promotions_before =
      standby.snapshot().value("ns.failovers");
  std::vector<double> kill_us;
  std::size_t nonretriable = 0;
  std::size_t kill_lookups = 0;
  bool killed = false;
  for (int round = 0; round < 8; ++round) {
    if (round == 3) {
      tb.kill_shard_primary(kKillShard);
      killed = true;
    }
    if (round == 5 && killed) {
      // The promoting write: a real module registration whose name the
      // victim shard owns.
      std::string promo = "promo-0";
      for (int i = 0; map.shard_of(promo) != kKillShard; ++i) {
        promo = "promo-" + std::to_string(i);
      }
      auto mod = tb.spawn_module(promo, "m2", "lan");
      if (mod.ok()) mod.value()->stop();
    }
    for (const std::string& name : victims) {
      client->nsp().debug_force_expire(name);
      const auto t0 = Clock::now();
      auto r = client->nsp().lookup(name);
      kill_us.push_back(us_since(t0));
      ++kill_lookups;
      if (!r.ok() && !retriable(r.code())) ++nonretriable;
    }
  }
  const double kill_p99 = percentile(kill_us, 0.99);
  const std::uint64_t promotions =
      standby.snapshot().value("ns.failovers") - promotions_before;

  // ---- phase 4: the 10k-move reconfigure storm ---------------------------
  // Re-register loaded names under the client's own address: each one is a
  // module move — new striped UAdd, epoch bump on the owning shard, every
  // stale lease for that shard dead.
  const auto move_t0 = Clock::now();
  std::size_t moves_ok = 0;
  for (std::size_t i = 0; i < kMoves; ++i) {
    core::RegistrationInfo info;
    info.name_override = bulk_name(i * 61 % kNames);
    if (client->nsp().register_module(info).ok()) ++moves_ok;
  }
  const double move_ms = us_since(move_t0) / 1000.0;
  const double moves_per_sec = moves_ok / (move_ms / 1000.0);

  // A moved name must resolve to its new (post-move) UAdd: anything minted
  // by the move storm is far past the bulk-loaded stripe.
  client->nsp().debug_force_expire(bulk_name(61 % kNames));
  auto moved = client->nsp().lookup(bulk_name(61 % kNames));
  const bool moved_ok =
      moved.ok() &&
      moved.value().raw() >= core::kFirstDynamicUAdd + kNames * kShards;

  const bool pass_hits = hit_ratio >= 0.90;
  const bool pass_kill = nonretriable == 0 && promotions >= 1;
  const bool pass_moves = moves_ok == kMoves && moved_ok;

  // Gauge-plane accounting: the lease-cache size gauge must show a live
  // cache after the lookup storm — a 90% hit ratio with a zero-size gauge
  // would mean the observability plane lost track of the very structure
  // that produced the hits.
  const std::int64_t lease_cache_size =
      metrics::MetricsRegistry::instance().snapshot().gauge_value(
          "nsp.lease_cache.size");
  const bool pass_gauge = lease_cache_size > 0;

  std::FILE* f = std::fopen("BENCH_naming_scale.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "failed to open BENCH_naming_scale.json\n");
    return 1;
  }
  std::fprintf(
      f,
      "{\n"
      "  \"shards\": %zu,\n"
      "  \"load\": {\"names\": %zu, \"primary_loaded\": %zu, "
      "\"standby_loaded\": %zu, \"load_ms\": %.1f},\n"
      "  \"lookup_storm\": {\"lookups\": %zu, \"cache_hit_ratio\": %.4f, "
      "\"p50_us\": %.1f, \"p99_us\": %.1f},\n"
      "  \"shard_kill\": {\"lookups\": %zu, \"p99_us\": %.1f, "
      "\"nonretriable_errors\": %zu, \"promotions\": %llu},\n"
      "  \"reconfigure_storm\": {\"moves\": %zu, \"applied\": %zu, "
      "\"moves_per_sec\": %.0f, \"moved_name_resolves_new\": %s},\n"
      "  \"lease_cache_size\": %lld,\n"
      "  \"pass\": {\"cache_hits_90pct\": %s, \"failover_clean\": %s, "
      "\"moves_applied\": %s, \"lease_gauge_live\": %s}\n"
      "}\n",
      kShards, kNames, loaded_primary, loaded_standby, load_ms,
      storm_us.size(), hit_ratio, storm_p50, storm_p99, kill_lookups,
      kill_p99, nonretriable, static_cast<unsigned long long>(promotions),
      kMoves, moves_ok, moves_per_sec, moved_ok ? "true" : "false",
      static_cast<long long>(lease_cache_size),
      pass_hits ? "true" : "false", pass_kill ? "true" : "false",
      pass_moves ? "true" : "false", pass_gauge ? "true" : "false");
  std::fclose(f);
  if (!dump_metrics_json("BENCH_naming_metrics.json")) {
    std::fprintf(stderr, "failed to write BENCH_naming_metrics.json\n");
    return 1;
  }
  std::printf(
      "bench_naming: loaded=%zu hit_ratio=%.3f storm_p99=%.0fus "
      "kill_p99=%.0fus nonretriable=%zu promotions=%llu moves=%zu "
      "(%.0f/s) pass=%s\n",
      loaded_primary, hit_ratio, storm_p99, kill_p99, nonretriable,
      static_cast<unsigned long long>(promotions), moves_ok, moves_per_sec,
      (pass_hits && pass_kill && pass_moves && pass_gauge) ? "yes" : "NO");
  client->stop();
  return (pass_hits && pass_kill && pass_moves && pass_gauge) ? 0 : 1;
}
