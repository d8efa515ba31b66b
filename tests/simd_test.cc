// Tests for the 4-wide lane layer (util/simd.h): load/store round trips and
// the exact elementwise min/max behind ParticleSoa's bounds, which must
// agree with std::min/std::max on every backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>

#include "util/rng.h"
#include "util/simd.h"

namespace rfid {
namespace {

TEST(SimdTest, LoadStoreAndSet1RoundTrip) {
  const double in[4] = {1.0, -2.5, 0.0, 1e300};
  double out[4] = {};
  simd::Store(out, simd::Load(in));
  for (int i = 0; i < simd::kLanes; ++i) EXPECT_EQ(out[i], in[i]);

  simd::Store(out, simd::Set1(-7.25));
  for (double v : out) EXPECT_EQ(v, -7.25);
}

TEST(SimdTest, MinMaxMatchStdPerLane) {
  Rng rng(17);
  for (int trial = 0; trial < 1000; ++trial) {
    double a[4], b[4];
    for (int i = 0; i < 4; ++i) {
      a[i] = rng.Uniform(-100.0, 100.0);
      b[i] = rng.Uniform(-100.0, 100.0);
    }
    if (trial == 0) {
      a[0] = b[0];  // Ties.
      a[1] = INFINITY;
      b[2] = -INFINITY;
    }
    double lo[4], hi[4];
    simd::Store(lo, simd::Min(simd::Load(a), simd::Load(b)));
    simd::Store(hi, simd::Max(simd::Load(a), simd::Load(b)));
    for (int i = 0; i < 4; ++i) {
      EXPECT_EQ(lo[i], std::min(a[i], b[i])) << "trial " << trial;
      EXPECT_EQ(hi[i], std::max(a[i], b[i])) << "trial " << trial;
    }
  }
}

TEST(SimdTest, BackendNameIsKnown) {
  const std::string name = simd::kBackendName;
  EXPECT_TRUE(name == "avx2" || name == "neon" || name == "scalar") << name;
}

}  // namespace
}  // namespace rfid
