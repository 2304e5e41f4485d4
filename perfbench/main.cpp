// main.cpp — ntcs_perfbench: run one workload once and print its result
// record as one JSON line on stdout.
//
//   ntcs_perfbench --workload <pipeline_simnet|ursa_realnet|reconfig_churn>
//                  --seed <n> --seconds <s> --trace <0|1> --out <dir>
//
// --trace 0 reports the end-to-end metrics; --trace 1 the per-layer ones.
// Exit 0 with a record, 2 on bad arguments, 3 when the run cannot finish.
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>

#include "bench.h"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: ntcs_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --out <dir>\n");
}

void provenance(const perfbench::RunConfig& cfg, perfbench::Result& r) {
  r.note("workload", cfg.workload);
  r.note("seed", std::to_string(cfg.seed));
  r.note("seconds", std::to_string(cfg.seconds));
  r.note("trace", cfg.trace ? "1" : "0");
  r.note("build_type", NTCS_BENCH_BUILD_TYPE);
#ifdef NTCS_LOCK_RANK_CHECKS
  const bool lock_checks = true;
#else
  const bool lock_checks = false;
#endif
  r.note("ntcs_lock_checks", lock_checks ? "ON" : "OFF");
#if defined(__SANITIZE_ADDRESS__)
  const char* sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  const char* sanitizer = "thread";
#else
  const char* sanitizer = "none";
#endif
  r.note("sanitizer", sanitizer);
  r.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  const bool release = std::strcmp(NTCS_BENCH_BUILD_TYPE, "Release") == 0;
  if (!release || lock_checks || std::strcmp(sanitizer, "none") != 0) {
    r.note("flag", "NOT A BENCHMARK CONFIGURATION: needs a Release build "
                   "with lock checks off and no sanitizer");
  }
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  cfg.out_dir = ".";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    try {
      if (k == "--workload") {
        cfg.workload = v;
      } else if (k == "--seed") {
        cfg.seed = std::stoull(v);
      } else if (k == "--seconds") {
        cfg.seconds = std::stod(v);
      } else if (k == "--trace") {
        cfg.trace = v == "1";
      } else if (k == "--out") {
        cfg.out_dir = v;
      } else {
        usage();
        return 2;
      }
    } catch (const std::exception&) {
      usage();
      return 2;
    }
  }
  if (cfg.workload.empty() || argc % 2 == 0 || cfg.seconds <= 0) {
    usage();
    return 2;
  }

  perfbench::Result result;
  provenance(cfg, result);
  try {
    perfbench::run_workload(cfg, result);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ntcs_perfbench: %s: %s\n", cfg.workload.c_str(),
                 e.what());
    return 3;
  }
  if (result.failed != 0) result.correct = false;
  std::printf("%s\n", result.to_json().c_str());
  return 0;
}
