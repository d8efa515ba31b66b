#include "host_speed.h"

#include <chrono>
#include <cmath>

namespace perfbench {
namespace {

/// Eight independent chains of a multiply-add and a square root, 400 rounds
/// each: enough parallel work to keep the core's arithmetic units as busy as
/// the filter's kernels do, so the probe slows as they do when a sibling
/// hyperthread or a lower clock takes the core's throughput.
double ProbeWork(double x) {
  double a[8];
  double acc[8];
  for (int k = 0; k < 8; ++k) {
    a[k] = x + k;
    acc[k] = 0.0;
  }
  for (int i = 0; i < 400; ++i) {
    for (int k = 0; k < 8; ++k) {
      a[k] = a[k] * 1.0000001 + 1e-9;
      acc[k] += std::sqrt(a[k] + i);
    }
  }
  double sum = 0.0;
  for (int k = 0; k < 8; ++k) sum += acc[k];
  return sum;
}

}  // namespace

int64_t TimeHostProbe() {
  static volatile double seed = 1.0001;
  static volatile double sink = 0.0;
  // The first run after the benchmark's own work pays for cold instruction
  // caches and branch predictors, which depend on that work; only the second
  // is timed.
  sink = sink + ProbeWork(seed);
  const auto t0 = std::chrono::steady_clock::now();
  sink = sink + ProbeWork(seed);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
}

}  // namespace perfbench
