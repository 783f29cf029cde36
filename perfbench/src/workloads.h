// The four workloads.  Each rep builds its world from the seed, times its
// set-up and its measured phase separately, checks its own outputs and
// returns everything in a RepResult.  README.md explains why each workload
// exists and which layer it loads.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "probe.h"

namespace perfbench {

// Times a set-up far shorter than the clock's jitter: calls `fn` in
// batches of a size that lasts at least 2 ms and returns five per-call
// times, each the mean over one batch.
std::vector<double> time_cheap_setup(const std::function<void()>& fn);

RepResult run_sweep(const RepOptions& opts);
RepResult run_scale(const RepOptions& opts);
RepResult run_pdes(const RepOptions& opts);
RepResult run_churn(const RepOptions& opts);

struct WorkloadDef {
  std::string name;
  RepResult (*rep)(const RepOptions&);
  // Instances a --trace 0 run pools its deterministic outcome over.  Losses
  // within one instance share its estimator state and timer streams, so
  // where they are few and correlated (scale) more instances are needed.
  std::size_t instances;
  // Parallel-kernel workloads: the worker count the traced run compares
  // against the sequential kernel (0 for sequential workloads).
  unsigned speedup_threads;
};

const std::vector<WorkloadDef>& workloads();

}  // namespace perfbench
