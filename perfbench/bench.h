// bench.h — the benchmark's workloads and probes.
//
// Each workload builds its own fresh testbed (the set-up is timed several
// times and the last one is kept), asserts the process's queues have
// drained, and then runs a closed loop against it. An untraced run reports
// the end-to-end metrics; a traced run reports the per-layer metrics and
// then runs the layer probes (probes.cpp) on a probe rig of its own.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>

#include "measure.h"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out_dir;  // spans and per-run records go here
};

/// Set-up or probe failure: the run cannot produce a result.
struct BenchError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

inline void need(bool ok, const std::string& what) {
  if (!ok) throw BenchError(what);
}

/// One workload's rig plus its load loop. Construction is the set-up: it
/// ends with the first correct reply.
class Workload {
 public:
  virtual ~Workload() = default;
  /// Load threads the closed loop runs (at most 2).
  virtual int threads() const = 0;
  /// One load thread's loop; runs until ctx.stopping().
  virtual void body(LoadCtx& ctx) = 0;
  /// Untimed reconfiguration epilogue after the timed loop: relocation
  /// recoveries and locates on this workload's own rig, for workloads whose
  /// loop does not produce them itself. Records into ctx.
  virtual void epilogue(LoadCtx& ctx) { (void)ctx; }
};

/// Drive one workload end to end and fill `out`.
void run_workload(const RunConfig& cfg, Result& out);

/// The per-layer probes of a traced run: the layer ladder, raw substrate
/// frame round trips, set-up path timings, conversion and URSA calls.
void run_probes(const RunConfig& cfg, Result& out);

}  // namespace perfbench
