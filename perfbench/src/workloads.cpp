#include "workloads.h"

namespace perfbench {

std::vector<double> time_cheap_setup(const std::function<void()>& fn) {
  constexpr double kMinBatchSeconds = 0.002;
  constexpr int kSamples = 5;
  std::size_t batch = 1;
  for (;;) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < batch; ++i) fn();
    if (now_s() - t0 >= kMinBatchSeconds || batch >= (std::size_t{1} << 20)) {
      break;
    }
    batch *= 2;
  }
  std::vector<double> out;
  for (int s = 0; s < kSamples; ++s) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < batch; ++i) fn();
    out.push_back((now_s() - t0) / static_cast<double>(batch));
  }
  return out;
}

const std::vector<WorkloadDef>& workloads() {
  static const std::vector<WorkloadDef> defs = {
      {"sweep", &run_sweep, 5, 0},
      {"scale", &run_scale, 10, 0},
      {"pdes", &run_pdes, 5, 2},
      {"churn", &run_churn, 5, 0},
  };
  return defs;
}

}  // namespace perfbench
