// Tests for motion, location sensing, object dynamics and the joint model.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "model/cone_sensor.h"
#include "model/location_sensing.h"
#include "model/motion_model.h"
#include "model/object_model.h"
#include "model/world_model.h"
#include "sim/lab.h"
#include "sim/warehouse.h"

namespace rfid {
namespace {

// -------------------------------------------------------- GaussianLogPdf ---

TEST(GaussianLogPdfTest, MatchesClosedForm) {
  const double lp = GaussianLogPdf(1.0, 0.0, 2.0);
  const double expected =
      -0.5 * (1.0 / 4.0) - std::log(2.0) - 0.5 * std::log(2 * M_PI);
  EXPECT_NEAR(lp, expected, 1e-12);
}

TEST(GaussianLogPdfTest, PeaksAtMean) {
  EXPECT_GT(GaussianLogPdf(0.0, 0.0, 1.0), GaussianLogPdf(0.5, 0.0, 1.0));
}

TEST(GaussianLogPdfTest, ZeroSigmaIsDeterministic) {
  EXPECT_EQ(GaussianLogPdf(3.0, 3.0, 0.0), 0.0);
  EXPECT_EQ(GaussianLogPdf(3.1, 3.0, 0.0),
            -std::numeric_limits<double>::infinity());
}

// ------------------------------------------------------------ MotionModel --

TEST(MotionModelTest, PropagateAppliesDeltaOnAverage) {
  MotionModelParams p;
  p.delta = {0.0, 0.1, 0.0};
  p.sigma = {0.01, 0.01, 0.0};
  const MotionModel m(p);
  Rng rng(1);
  Vec3 sum;
  constexpr int kN = 20000;
  const Pose start({1.0, 2.0, 0.0}, 0.0);
  for (int i = 0; i < kN; ++i) {
    sum += m.Propagate(start, rng).position - start.position;
  }
  EXPECT_NEAR(sum.x / kN, 0.0, 0.001);
  EXPECT_NEAR(sum.y / kN, 0.1, 0.001);
  EXPECT_EQ(sum.z, 0.0);
}

TEST(MotionModelTest, LogPdfPeaksAtExpectedStep) {
  MotionModelParams p;
  p.delta = {0.0, 0.1, 0.0};
  p.sigma = {0.01, 0.01, 0.0};
  const MotionModel m(p);
  const Pose prev({0, 0, 0}, 0.0);
  const Pose at_mean({0.0, 0.1, 0.0}, 0.0);
  const Pose off_mean({0.0, 0.3, 0.0}, 0.0);
  EXPECT_GT(m.LogPdf(prev, at_mean), m.LogPdf(prev, off_mean));
}

TEST(MotionModelTest, ZeroSigmaAxesAreDeterministic) {
  MotionModelParams p;
  p.delta = {0.0, 0.1, 0.0};
  p.sigma = {0.0, 0.01, 0.0};
  const MotionModel m(p);
  Rng rng(2);
  const Pose start({5.0, 0.0, 0.0}, 0.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(m.Propagate(start, rng).position.x, 5.0);
  }
}

TEST(MotionModelTest, HeadingNoiseWrapAround) {
  MotionModelParams p;
  p.heading_delta = 0.2;
  p.heading_sigma = 0.05;
  const MotionModel m(p);
  Rng rng(3);
  Pose pose({0, 0, 0}, M_PI - 0.05);
  pose = m.Propagate(pose, rng);
  EXPECT_LE(pose.heading, M_PI);
  EXPECT_GT(pose.heading, -M_PI);
}

// ----------------------------------------------------- LocationSensing ----

TEST(LocationSensingTest, ObservationBiasAndNoise) {
  LocationSensingParams p;
  p.mu = {0.5, -0.25, 0.0};
  p.sigma = {0.1, 0.2, 0.0};
  const LocationSensingModel m(p);
  Rng rng(4);
  const Vec3 truth{1.0, 1.0, 0.0};
  Vec3 sum, sum_sq;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    const Vec3 obs = m.SampleObservation(truth, rng);
    const Vec3 r = obs - truth;
    sum += r;
    sum_sq += {r.x * r.x, r.y * r.y, r.z * r.z};
  }
  EXPECT_NEAR(sum.x / kN, 0.5, 0.01);
  EXPECT_NEAR(sum.y / kN, -0.25, 0.01);
  const double var_x = sum_sq.x / kN - (sum.x / kN) * (sum.x / kN);
  EXPECT_NEAR(std::sqrt(var_x), 0.1, 0.01);
}

TEST(LocationSensingTest, LogPdfPeaksAtBiasedLocation) {
  LocationSensingParams p;
  p.mu = {0.5, 0.0, 0.0};
  p.sigma = {0.1, 0.1, 0.0};
  const LocationSensingModel m(p);
  const Vec3 truth{0, 0, 0};
  EXPECT_GT(m.LogPdf({0.5, 0.0, 0.0}, truth), m.LogPdf({0.0, 0.0, 0.0}, truth));
}

TEST(LocationSensingTest, ZeroSigmaAxesCarryNoInformation) {
  LocationSensingParams p;
  p.sigma = {0.1, 0.1, 0.0};
  const LocationSensingModel m(p);
  // Different z must not change the density (z sigma is 0 => ignored).
  EXPECT_EQ(m.LogPdf({0, 0, 5}, {0, 0, 0}), m.LogPdf({0, 0, -5}, {0, 0, 0}));
}

// --------------------------------------------------------- ShelfRegions ---

TEST(ShelfRegionsTest, EmptyByDefault) {
  ShelfRegions r;
  EXPECT_TRUE(r.empty());
  EXPECT_FALSE(r.Contains({0, 0, 0}));
}

TEST(ShelfRegionsTest, ContainsRespectsAllRegions) {
  const ShelfRegions r({Aabb({0, 0, 0}, {1, 1, 0}), Aabb({5, 0, 0}, {6, 1, 0})});
  EXPECT_TRUE(r.Contains({0.5, 0.5, 0}));
  EXPECT_TRUE(r.Contains({5.5, 0.5, 0}));
  EXPECT_FALSE(r.Contains({3.0, 0.5, 0}));
}

TEST(ShelfRegionsTest, SamplesLandInsideRegions) {
  const ShelfRegions r({Aabb({0, 0, 0}, {1, 2, 0}), Aabb({5, 0, 0}, {6, 2, 0})});
  Rng rng(5);
  for (int i = 0; i < 2000; ++i) {
    EXPECT_TRUE(r.Contains(r.SampleUniform(rng)));
  }
}

TEST(ShelfRegionsTest, SamplingProportionalToArea) {
  // First region has 3x the area of the second.
  const ShelfRegions r(
      {Aabb({0, 0, 0}, {3, 1, 0}), Aabb({10, 0, 0}, {11, 1, 0})});
  Rng rng(6);
  int in_first = 0;
  constexpr int kN = 40000;
  for (int i = 0; i < kN; ++i) {
    if (r.SampleUniform(rng).x < 5.0) ++in_first;
  }
  EXPECT_NEAR(in_first / static_cast<double>(kN), 0.75, 0.02);
}

TEST(ShelfRegionsTest, BoundingBoxCoversAll) {
  const ShelfRegions r(
      {Aabb({0, 0, 0}, {1, 1, 0}), Aabb({5, -2, 0}, {6, 3, 0})});
  const Aabb& b = r.BoundingBox();
  EXPECT_EQ(b.min, Vec3(0, -2, 0));
  EXPECT_EQ(b.max, Vec3(6, 3, 0));
}

/// The linear scan that ShelfRegions::Contains must agree with exactly.
bool LinearScanContains(const std::vector<Aabb>& boxes, const Vec3& p) {
  for (const Aabb& b : boxes) {
    if (b.Contains(p)) return true;
  }
  return false;
}

/// Compares Contains with the scan at 10^5 random points over and around
/// the bounding box (half of them in a box's z plane, so flat boxes are
/// hit), at every box's corners, edge and face midpoints and centre with
/// their one-ulp neighbours, just outside the bounding box, and at NaN.
void ExpectContainsMatchesScan(const std::vector<Aabb>& boxes, uint64_t seed) {
  const ShelfRegions regions(boxes);
  size_t inside = 0;
  auto check = [&](const Vec3& p) {
    const bool expected = LinearScanContains(boxes, p);
    inside += expected;
    ASSERT_EQ(regions.Contains(p), expected) << "point " << p;
  };
  const Aabb& b = regions.BoundingBox();
  const Vec3 margin = b.Extent() * 0.1 + Vec3{0.5, 0.5, 0.5};
  Rng rng(seed);
  for (int i = 0; i < 100000; ++i) {
    const Aabb& box = boxes[rng.UniformInt(boxes.size())];
    const double z = rng.Bernoulli(0.5)
                         ? (rng.Bernoulli(0.5) ? box.min.z : box.max.z)
                         : rng.Uniform(b.min.z - margin.z, b.max.z + margin.z);
    check({rng.Uniform(b.min.x - margin.x, b.max.x + margin.x),
           rng.Uniform(b.min.y - margin.y, b.max.y + margin.y), z});
  }
  constexpr double kInf = std::numeric_limits<double>::infinity();
  for (const Aabb& box : boxes) {
    const Vec3 mid = box.Center();
    for (const double x : {box.min.x, mid.x, box.max.x}) {
      for (const double y : {box.min.y, mid.y, box.max.y}) {
        for (const double z : {box.min.z, mid.z, box.max.z}) {
          for (const double step : {-kInf, 0.0, kInf}) {
            check({std::nextafter(x, step), y, z});
            check({x, std::nextafter(y, step), z});
            check({x, y, std::nextafter(z, step)});
          }
        }
      }
    }
  }
  const Vec3 c = b.Center();
  check({std::nextafter(b.min.x, -kInf), c.y, c.z});
  check({std::nextafter(b.max.x, kInf), c.y, c.z});
  check({c.x, std::nextafter(b.min.y, -kInf), c.z});
  check({c.x, std::nextafter(b.max.y, kInf), c.z});
  check({c.x, c.y, std::nextafter(b.min.z, -kInf)});
  check({c.x, c.y, std::nextafter(b.max.z, kInf)});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const Aabb& box : boxes) {
    const Vec3 m = box.Center();
    check({nan, m.y, m.z});
    check({m.x, nan, m.z});
    check({m.x, m.y, nan});
  }
  EXPECT_GT(inside, 0u) << "no point landed in a region";
}

TEST(ShelfRegionsTest, ContainsMatchesLinearScanOnWarehouse) {
  WarehouseConfig config;
  config.num_shelves = 40;
  config.objects_per_shelf = 50;
  const auto layout = BuildWarehouse(config);
  ASSERT_TRUE(layout.ok());
  ASSERT_EQ(layout.value().shelf_boxes.size(), 40u);
  ExpectContainsMatchesScan(layout.value().shelf_boxes, 21);
}

TEST(ShelfRegionsTest, ContainsMatchesLinearScanOnLab) {
  const auto lab = BuildLabDeployment(LabConfig{});
  ASSERT_TRUE(lab.ok());
  ExpectContainsMatchesScan(lab.value().shelf_boxes, 22);
}

TEST(ShelfRegionsTest, ContainsMatchesLinearScanOnSingleRegion) {
  ExpectContainsMatchesScan({Aabb({-1, 2, 0}, {3, 2.5, 0})}, 23);
}

TEST(ShelfRegionsTest, ContainsMatchesLinearScanOnOverlappingRegions) {
  // Nested, partly overlapping, thick-z, flat-z, zero-width and point-like
  // boxes, plus an empty one that must never match.
  ExpectContainsMatchesScan({Aabb({0, 0, 0}, {10, 10, 2}),
                             Aabb({2, 2, 0.5}, {3, 3, 1}),
                             Aabb({8, -3, 0}, {14, 4, 0}),
                             Aabb({5, 5, 1}, {5, 12, 1}),
                             Aabb({-4, 7, -1}, {-4, 7, -1}),
                             Aabb::Empty(),
                             Aabb({1e-3, 9.999, 0}, {20, 10.001, 3})},
                            24);
  Rng rng(25);
  std::vector<Aabb> random;
  for (int i = 0; i < 30; ++i) {
    const Vec3 lo{rng.Uniform(-50, 50), rng.Uniform(-20, 20),
                  rng.Uniform(-1, 1)};
    random.push_back(Aabb(lo, lo + Vec3{rng.Uniform(0, 30), rng.Uniform(0, 8),
                                        rng.Bernoulli(0.5) ? 0.0 : 1.0}));
  }
  ExpectContainsMatchesScan(random, 26);
}

// -------------------------------------------------- ObjectLocationModel ---

TEST(ObjectModelTest, StationaryWhenAlphaZero) {
  ObjectModelParams p;
  p.move_probability = 0.0;
  const ObjectLocationModel m(p, ShelfRegions({Aabb({0, 0, 0}, {10, 10, 0})}));
  Rng rng(7);
  const Vec3 pos{3, 3, 0};
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(m.Propagate(pos, rng), pos);
  }
}

TEST(ObjectModelTest, MoveFrequencyMatchesAlpha) {
  ObjectModelParams p;
  p.move_probability = 0.1;
  const ObjectLocationModel m(p, ShelfRegions({Aabb({0, 0, 0}, {10, 10, 0})}));
  Rng rng(8);
  const Vec3 pos{3, 3, 0};
  int moved = 0;
  constexpr int kN = 50000;
  for (int i = 0; i < kN; ++i) {
    if (!(m.Propagate(pos, rng) == pos)) ++moved;
  }
  EXPECT_NEAR(moved / static_cast<double>(kN), 0.1, 0.01);
}

TEST(ObjectModelTest, JumpsLandOnShelves) {
  ObjectModelParams p;
  p.move_probability = 1.0;  // Always jump.
  const ShelfRegions shelves({Aabb({0, 0, 0}, {2, 8, 0})});
  const ObjectLocationModel m(p, shelves);
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(shelves.Contains(m.Propagate({100, 100, 0}, rng)));
  }
}

TEST(ObjectModelTest, NoShelvesMeansNoJumps) {
  ObjectModelParams p;
  p.move_probability = 1.0;
  const ObjectLocationModel m(p, ShelfRegions{});
  Rng rng(10);
  const Vec3 pos{1, 2, 0};
  EXPECT_EQ(m.Propagate(pos, rng), pos);
}

// ------------------------------------------------------------ WorldModel --

WorldModel MakeTestModel() {
  std::vector<ShelfTag> shelf_tags = {{1, {1.5, 2.0, 0.0}},
                                      {2, {1.5, 8.0, 0.0}}};
  return WorldModel(std::make_unique<ConeSensorModel>(), MotionModel(),
                    LocationSensingModel(),
                    ObjectLocationModel(
                        ObjectModelParams{},
                        ShelfRegions({Aabb({1.5, 0, 0}, {2.5, 10, 0})})),
                    shelf_tags);
}

TEST(WorldModelTest, ShelfTagLookup) {
  const WorldModel m = MakeTestModel();
  Vec3 loc;
  EXPECT_TRUE(m.IsShelfTag(1, &loc));
  EXPECT_EQ(loc, Vec3(1.5, 2.0, 0.0));
  EXPECT_TRUE(m.IsShelfTag(2));
  EXPECT_FALSE(m.IsShelfTag(999));
}

TEST(WorldModelTest, FindShelfTagReturnsCanonicalPointer) {
  const WorldModel m = MakeTestModel();
  const ShelfTag* s = m.FindShelfTag(2);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->tag, 2u);
  EXPECT_EQ(s, &m.shelf_tags()[1]);
  EXPECT_EQ(m.FindShelfTag(42), nullptr);
}

TEST(WorldModelTest, ShelfTagsNearFiltersByRange) {
  const WorldModel m = MakeTestModel();
  // Cone max range is 4.5 ft; from y=2 only the first shelf tag is in range.
  const auto near = m.ShelfTagsNear({0.0, 2.0, 0.0});
  ASSERT_EQ(near.size(), 1u);
  EXPECT_EQ(near[0]->tag, 1u);
  // From the middle, both are within 4.5 ft.
  EXPECT_EQ(m.ShelfTagsNear({1.5, 5.0, 0.0}).size(), 2u);
}

TEST(WorldModelTest, CopyIsDeep) {
  WorldModel a = MakeTestModel();
  WorldModel b = a;
  b.SetSensor(std::make_unique<LogisticSensorModel>());
  // a keeps its cone model: probability at major range differs.
  EXPECT_NE(a.sensor().ProbRead(0.1, 0.0), b.sensor().ProbRead(0.1, 0.0));
}

TEST(WorldModelTest, SetSensorReplacesModel) {
  WorldModel m = MakeTestModel();
  const double before = m.sensor().MaxRange();
  ConeSensorParams p;
  p.major_range = 1.0;
  p.minor_extra_range = 0.5;
  m.SetSensor(std::make_unique<ConeSensorModel>(p));
  EXPECT_NE(m.sensor().MaxRange(), before);
  EXPECT_DOUBLE_EQ(m.sensor().MaxRange(), 1.5);
}

TEST(WorldModelTest, AssignmentIsDeep) {
  WorldModel a = MakeTestModel();
  WorldModel b = MakeTestModel();
  ConeSensorParams p;
  p.major_read_rate = 0.5;
  b.SetSensor(std::make_unique<ConeSensorModel>(p));
  a = b;
  EXPECT_DOUBLE_EQ(a.sensor().ProbRead(0.1, 0.0), 0.5);
  b.SetSensor(std::make_unique<ConeSensorModel>());
  EXPECT_DOUBLE_EQ(a.sensor().ProbRead(0.1, 0.0), 0.5);  // Unaffected.
}

}  // namespace
}  // namespace rfid
