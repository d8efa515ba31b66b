// Tests for the basic (unfactorized) particle filter (§IV-A).
#include <gtest/gtest.h>

#include <cstring>

#include "core/experiment.h"
#include "model/spherical_sensor.h"
#include "pf/basic_filter.h"
#include "sim/lab.h"
#include "test_util.h"

namespace rfid {
namespace {

using testing_util::MakeEpoch;
using testing_util::MakeLineWorld;

BasicFilterConfig SmallConfig(int particles = 2000) {
  BasicFilterConfig c;
  c.num_particles = particles;
  c.seed = 17;
  return c;
}

TEST(BasicFilterTest, UnknownTagHasNoEstimate) {
  BasicParticleFilter filter(MakeLineWorld(), SmallConfig(100));
  filter.ObserveEpoch(MakeEpoch(0, 0.0, {}));
  EXPECT_FALSE(filter.EstimateObject(1000).has_value());
  EXPECT_EQ(filter.NumTrackedObjects(), 0u);
}

TEST(BasicFilterTest, TracksReaderAlongReportedPath) {
  BasicParticleFilter filter(MakeLineWorld(), SmallConfig(500));
  for (int t = 0; t < 50; ++t) {
    filter.ObserveEpoch(MakeEpoch(t, 0.1 * t, {}));
  }
  const ReaderEstimate est = filter.EstimateReader();
  EXPECT_NEAR(est.mean.y, 0.1 * 49, 0.3);
  EXPECT_NEAR(est.mean.x, 0.0, 0.3);
}

TEST(BasicFilterTest, ObjectEstimateConvergesNearTruth) {
  // Object at (1.5, 2.0): the reader passes by and reads it repeatedly.
  BasicParticleFilter filter(MakeLineWorld(), SmallConfig(3000));
  const Vec3 truth{1.5, 2.0, 0.0};
  ConeSensorModel sensor;
  Rng rng(3);
  for (int t = 0; t < 60; ++t) {
    const double y = 0.1 * t - 1.0 + 2.0;  // Pass from y=1 to y=7 around it.
    std::vector<TagId> tags;
    const Pose pose({0.0, y, 0.0}, 0.0);
    if (rng.Bernoulli(sensor.ProbReadAt(pose, truth))) tags.push_back(1000);
    filter.ObserveEpoch(MakeEpoch(t, y, tags));
  }
  const auto est = filter.EstimateObject(1000);
  ASSERT_TRUE(est.has_value());
  EXPECT_LT(est->mean.DistanceXYTo(truth), 1.0);
  EXPECT_EQ(est->support, 3000);
}

TEST(BasicFilterTest, NewObjectsGetSlots) {
  BasicParticleFilter filter(MakeLineWorld(), SmallConfig(200));
  filter.ObserveEpoch(MakeEpoch(0, 2.0, {1000, 1001}));
  EXPECT_EQ(filter.NumTrackedObjects(), 2u);
  EXPECT_TRUE(filter.EstimateObject(1000).has_value());
  EXPECT_TRUE(filter.EstimateObject(1001).has_value());
  // Shelf tags never become object slots.
  filter.ObserveEpoch(MakeEpoch(1, 2.1, {1}));
  EXPECT_EQ(filter.NumTrackedObjects(), 2u);
  EXPECT_FALSE(filter.EstimateObject(1).has_value());
}

TEST(BasicFilterTest, InitialParticlesComeFromSensingCone) {
  BasicParticleFilter filter(MakeLineWorld(), SmallConfig(2000));
  filter.ObserveEpoch(MakeEpoch(0, 3.0, {1000}));
  const auto est = filter.EstimateObject(1000);
  ASSERT_TRUE(est.has_value());
  // The cone points toward +x from (0, 3): the estimate must be in front of
  // the reader and within the (overestimated) range.
  EXPECT_GT(est->mean.x, 0.0);
  EXPECT_LT(est->mean.DistanceXYTo({0, 3, 0}), 4.5 * 1.2 + 0.5);
}

TEST(BasicFilterTest, VarianceShrinksWithMoreReadings) {
  BasicParticleFilter filter(MakeLineWorld(), SmallConfig(2000));
  filter.ObserveEpoch(MakeEpoch(0, 1.0, {1000}));
  const auto first = filter.EstimateObject(1000);
  ASSERT_TRUE(first.has_value());
  const double var0 = first->variance.x + first->variance.y;
  for (int t = 1; t < 30; ++t) {
    filter.ObserveEpoch(MakeEpoch(t, 1.0 + 0.1 * t, {1000}));
  }
  const auto later = filter.EstimateObject(1000);
  ASSERT_TRUE(later.has_value());
  EXPECT_LT(later->variance.x + later->variance.y, var0);
}

TEST(BasicFilterTest, DeterministicForFixedSeed) {
  auto run = [](uint64_t seed) {
    BasicFilterConfig c = SmallConfig(500);
    c.seed = seed;
    BasicParticleFilter filter(MakeLineWorld(), c);
    for (int t = 0; t < 20; ++t) {
      filter.ObserveEpoch(MakeEpoch(t, 0.1 * t, t % 3 == 0
                                                    ? std::vector<TagId>{1000}
                                                    : std::vector<TagId>{}));
    }
    return filter.EstimateObject(1000)->mean;
  };
  const Vec3 a = run(5), b = run(5), c = run(6);
  EXPECT_EQ(a, b);
  EXPECT_FALSE(a == c);
}

TEST(BasicFilterTest, ShelfTagEvidenceCorrectsSystematicBias) {
  // Reported locations are biased +0.8 in y; shelf tags anchor the truth.
  WorldModel model = MakeLineWorld(1e-4, {0.0, 0.8, 0.0}, {0.05, 0.05, 0.0});
  BasicFilterConfig config = SmallConfig(4000);
  BasicParticleFilter filter(std::move(model), config);
  ConeSensorModel sensor;
  Rng rng(9);
  // True reader path passes the shelf tag at y=2.5; reports say y+0.8.
  for (int t = 0; t < 50; ++t) {
    const double y = 0.1 * t;
    std::vector<TagId> tags;
    const Pose pose({0.0, y, 0.0}, 0.0);
    for (TagId shelf_tag : {1u, 2u}) {
      const Vec3 loc = shelf_tag == 1 ? Vec3{1.5, 2.5, 0} : Vec3{1.5, 7.5, 0};
      if (rng.Bernoulli(sensor.ProbReadAt(pose, loc))) tags.push_back(shelf_tag);
    }
    filter.ObserveEpoch(MakeEpoch(t, y, tags, /*reported_offset_y=*/0.8));
  }
  const ReaderEstimate est = filter.EstimateReader();
  // Without correction the estimate would sit near 4.9 + 0.8; the model knows
  // the bias, so the posterior must land near the true 4.9.
  EXPECT_NEAR(est.mean.y, 4.9, 0.4);
}

/// FNV-1a over the bit patterns of doubles.
class BitHash {
 public:
  void Add(double v) {
    uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h_ ^= (bits >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(const Vec3& v) {
    Add(v.x);
    Add(v.y);
    Add(v.z);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Hashes the reader estimate and every tracked object's mean and variance
/// after each epoch.
template <typename EpochFn>
uint64_t HashRun(BasicParticleFilter* filter, size_t epochs,
                 const std::vector<TagId>& tags, const EpochFn& epoch_at) {
  BitHash hash;
  for (size_t t = 0; t < epochs; ++t) {
    filter->ObserveEpoch(epoch_at(t));
    const ReaderEstimate reader = filter->EstimateReader();
    hash.Add(reader.mean);
    hash.Add(reader.variance);
    hash.Add(reader.heading);
    for (TagId tag : tags) {
      const auto est = filter->EstimateObject(tag);
      if (!est.has_value()) continue;
      hash.Add(est->mean);
      hash.Add(est->variance);
    }
  }
  return hash.value();
}

// Golden pin of fixed-seed runs: the spherical lab trace (range/bearing
// evaluator) and a scripted pass on the line world (cone evaluator). Any
// change to how the weighting evaluates the sensor model must leave every
// estimate bit unchanged. The constants are those of a default x86-64 build
// (SSE2 arithmetic, no multiply-add contraction). With FMA enabled (e.g.
// -march=native, or any aarch64 build) the compiler fuses multiply-adds,
// which rounds differently and yields other, equally valid bits, so the pin
// does not apply there.
TEST(BasicFilterTest, FixedSeedRunsArePinnedBitForBit) {
#if !defined(__x86_64__) || defined(__FMA__)
  GTEST_SKIP() << "estimate bits are pinned for x86-64 builds without FMA";
#endif
  LabConfig lc;
  lc.tags_per_row = 8;
  lc.reference_tags_per_row = 2;
  lc.seed = 31;
  const auto lab = BuildLabDeployment(lc);
  ASSERT_TRUE(lab.ok());
  ExperimentModelOptions options;
  options.motion.delta = {};
  options.motion.sigma = {0.05, 0.15, 0.0};
  options.motion.heading_sigma = 0.2;
  options.sensing.sigma = {0.3, 0.3, 0.0};
  options.sensing.heading_sigma = 0.1;
  BasicFilterConfig lab_config = SmallConfig(300);
  lab_config.init.half_angle = M_PI;
  BasicParticleFilter lab_filter(
      MakeWorldModel(lab.value().shelf_boxes, lab.value().shelf_tags,
                     std::make_unique<SphericalSensorModel>(lab.value().sensor),
                     options),
      lab_config);
  std::vector<TagId> lab_tags;
  for (const ObjectPlacement& o : lab.value().objects) lab_tags.push_back(o.tag);
  const std::vector<SimEpoch>& lab_epochs = lab.value().trace.epochs;
  ASSERT_GT(lab_epochs.size(), 50u);
  const uint64_t lab_hash =
      HashRun(&lab_filter, lab_epochs.size(), lab_tags,
              [&](size_t t) { return lab_epochs[t].observations; });

  BasicParticleFilter line_filter(MakeLineWorld(), SmallConfig(400));
  ConeSensorModel sensor;
  Rng rng(5);
  const std::vector<Vec3> truth = {{1.5, 2.0, 0.0}, {2.2, 4.0, 0.0}};
  const uint64_t line_hash =
      HashRun(&line_filter, 60, {1000, 1001}, [&](size_t t) {
        const double y = 0.1 * static_cast<double>(t);
        const Pose pose({0.0, y, 0.0}, 0.0);
        std::vector<TagId> tags;
        for (size_t i = 0; i < truth.size(); ++i) {
          if (rng.Bernoulli(sensor.ProbReadAt(pose, truth[i]))) {
            tags.push_back(static_cast<TagId>(1000 + i));
          }
        }
        return MakeEpoch(static_cast<int64_t>(t), y, tags);
      });

  EXPECT_GT(lab_filter.NumTrackedObjects(), 0u);
  EXPECT_EQ(line_filter.NumTrackedObjects(), 2u);
  EXPECT_EQ(lab_hash, 0xc3bc5299b62b5565ULL);
  EXPECT_EQ(line_hash, 0x00b96cf718da21a8ULL);
}

}  // namespace
}  // namespace rfid
