// Parity tests for the batched sensor kernel (reader_frame.h): the
// per-element frame gather must reproduce the scalar ProbReadAt result to
// 1e-12 per element, for the cone, spherical and logistic models, including
// the degenerate tag-at-reader geometry and out-of-range positions. A single
// frame (the basic filter's shape: one reader against all of a particle's
// objects) goes through it as a one-frame table with an all-zero index.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "model/cone_sensor.h"
#include "model/spherical_sensor.h"
#include "model/sensor_model.h"
#include "util/rng.h"

namespace rfid {
namespace {

constexpr double kTol = 1e-12;
constexpr size_t kNumPositions = 4096;

struct Soa {
  std::vector<double> xs, ys, zs;
};

/// Positions spanning in-range, edge-of-range, far-out and degenerate cases.
Soa MakePositions(const Pose& reader, uint64_t seed) {
  Rng rng(seed);
  Soa soa;
  for (size_t k = 0; k < kNumPositions; ++k) {
    soa.xs.push_back(rng.Uniform(-8.0, 8.0));
    soa.ys.push_back(rng.Uniform(-8.0, 8.0));
    soa.zs.push_back(rng.Uniform(-2.0, 2.0));
  }
  // Degenerate: tag exactly at the reader position.
  soa.xs.push_back(reader.position.x);
  soa.ys.push_back(reader.position.y);
  soa.zs.push_back(reader.position.z);
  return soa;
}

/// Evaluates n positions against one frame through the gather entry point:
/// a one-frame table and an all-zero index.
void GatherOneFrame(const SensorModel& sensor, const ReaderFrame& frame,
                    const double* xs, const double* ys, const double* zs,
                    size_t n, double* out) {
  const std::vector<uint32_t> zero_idx(n, 0);
  sensor.ProbReadBatchGather(&frame, zero_idx.data(), xs, ys, zs, n, out);
}

void ExpectBatchMatchesScalar(const SensorModel& sensor, uint64_t seed) {
  const Pose reader({0.7, -1.2, 0.3}, 0.9);
  const Soa soa = MakePositions(reader, seed);
  const size_t n = soa.xs.size();
  const ReaderFrame frame = ReaderFrame::From(reader);

  std::vector<double> out(n, -1.0);
  GatherOneFrame(sensor, frame, soa.xs.data(), soa.ys.data(), soa.zs.data(),
                 n, out.data());
  for (size_t k = 0; k < n; ++k) {
    const double scalar =
        sensor.ProbReadAt(reader, {soa.xs[k], soa.ys[k], soa.zs[k]});
    EXPECT_NEAR(out[k], scalar, kTol) << "one-frame gather, element " << k;
  }
}

void ExpectGatherMatchesScalar(const SensorModel& sensor, uint64_t seed) {
  // Several frames, each particle attached to one of them — the factored
  // filter's access pattern.
  std::vector<Pose> poses = {Pose({0, 0, 0}, 0.0), Pose({1, 2, 0}, 1.3),
                             Pose({-2, 4, 0.5}, -2.7), Pose({3, -1, 0}, 3.1)};
  std::vector<ReaderFrame> frames;
  for (const Pose& p : poses) frames.push_back(ReaderFrame::From(p));

  Rng rng(seed);
  Soa soa = MakePositions(poses[0], seed + 1);
  const size_t n = soa.xs.size();
  std::vector<uint32_t> frame_idx(n);
  for (size_t k = 0; k < n; ++k) {
    frame_idx[k] = static_cast<uint32_t>(rng.UniformInt(poses.size()));
  }

  std::vector<double> out(n, -1.0);
  sensor.ProbReadBatchGather(frames.data(), frame_idx.data(), soa.xs.data(),
                             soa.ys.data(), soa.zs.data(), n, out.data());
  for (size_t k = 0; k < n; ++k) {
    const double scalar = sensor.ProbReadAt(
        poses[frame_idx[k]], {soa.xs[k], soa.ys[k], soa.zs[k]});
    EXPECT_NEAR(out[k], scalar, kTol) << "gather batch, element " << k;
  }
}

TEST(BatchKernelTest, ConeMatchesScalar) {
  ExpectBatchMatchesScalar(ConeSensorModel(), 101);
  ExpectGatherMatchesScalar(ConeSensorModel(), 102);
}

TEST(BatchKernelTest, SphericalMatchesScalar) {
  ExpectBatchMatchesScalar(SphericalSensorModel(), 201);
  ExpectGatherMatchesScalar(SphericalSensorModel(), 202);
}

TEST(BatchKernelTest, SphericalTimeoutVariantsMatchScalar) {
  for (double timeout : {250.0, 500.0, 750.0}) {
    ExpectBatchMatchesScalar(SphericalSensorModel::ForTimeoutMs(timeout), 301);
  }
}

TEST(BatchKernelTest, LogisticMatchesScalar) {
  ExpectBatchMatchesScalar(LogisticSensorModel(), 401);
  ExpectGatherMatchesScalar(LogisticSensorModel(), 402);
}

TEST(BatchKernelTest, BaseClassDefaultMatchesScalar) {
  // A model that does not override the batch API must still agree through
  // the base-class fallback loops.
  class PlainModel final : public SensorModel {
   public:
    double ProbRead(double distance, double angle) const override {
      return std::exp(-distance) * (1.0 - angle / (2.0 * M_PI));
    }
    double MaxRange() const override { return 10.0; }
    std::unique_ptr<SensorModel> Clone() const override {
      return std::make_unique<PlainModel>(*this);
    }
  };
  ExpectBatchMatchesScalar(PlainModel(), 501);
  ExpectGatherMatchesScalar(PlainModel(), 502);
}

/// Far-field short circuit: beyond NegligibleRange() the spherical and
/// logistic batch kernels return exactly 0; the scalar value there is below
/// kBatchNegligibleProb, which the filters provably cannot distinguish from
/// 0 (see reader_frame.h). Just inside the boundary the kernels still
/// produce the (tiny) true probability.
template <typename ModelT>
void ExpectFarFieldShortCircuit(const ModelT& sensor) {
  const double cutoff = sensor.NegligibleRange();
  ASSERT_GT(cutoff, 0.0);
  ASSERT_TRUE(std::isfinite(cutoff));
  // On-axis positions straddling the cutoff, reader at origin, heading 0.
  const ReaderFrame frame = ReaderFrame::From(Pose({0, 0, 0}, 0.0));
  const double xs[] = {cutoff * (1.0 - 1e-9), cutoff, cutoff * 1.5,
                       cutoff * 100.0};
  const double ys[] = {0.0, 0.0, 0.0, 0.0};
  const double zs[] = {0.0, 0.0, 0.0, 0.0};
  double out[4] = {-1, -1, -1, -1};
  GatherOneFrame(sensor, frame, xs, ys, zs, 4, out);
  EXPECT_GT(out[0], 0.0);  // Just inside: true (tiny) probability.
  EXPECT_EQ(out[1], 0.0);  // At and beyond: exactly zero.
  EXPECT_EQ(out[2], 0.0);
  EXPECT_EQ(out[3], 0.0);
  // The scalar value at the boundary really is negligible (the rounding is
  // invisible through max(p, 1e-9) and 1.0 - p). Allow a whisker of float
  // slack on the threshold itself: 2^-54, the level that actually matters,
  // is 50 million times higher.
  EXPECT_LT(sensor.ProbRead(cutoff, 0.0), kBatchNegligibleProb * 1.01);
  EXPECT_EQ(1.0 - sensor.ProbRead(cutoff, 0.0), 1.0);
}

TEST(BatchKernelTest, SphericalFarFieldShortCircuit) {
  ExpectFarFieldShortCircuit(SphericalSensorModel());
}

TEST(BatchKernelTest, LogisticFarFieldShortCircuit) {
  ExpectFarFieldShortCircuit(LogisticSensorModel());
}

TEST(BatchKernelTest, LogisticUpturnedFitNeverShortCircuits) {
  // A (degenerate) learned fit with a positive d^2 coefficient has no
  // decaying tail; the cutoff must be +infinity, never zeroing real values.
  const LogisticSensorModel sensor({-3.0, -0.1, 0.02}, {0.0, -0.5, -0.1});
  EXPECT_FALSE(std::isfinite(sensor.NegligibleRange()));
  const ReaderFrame frame = ReaderFrame::From(Pose({0, 0, 0}, 0.0));
  const double xs[] = {50.0};
  const double ys[] = {0.0};
  const double zs[] = {0.0};
  double out[1] = {-1};
  GatherOneFrame(sensor, frame, xs, ys, zs, 1, out);
  EXPECT_NEAR(out[0], sensor.ProbRead(50.0, 0.0), kTol);
}

TEST(BatchKernelTest, ConeZeroBeyondMaxRangeExactly) {
  // The cone kernel short-circuits past MaxRange(); verify the fast path
  // returns exactly 0, as the scalar does.
  const ConeSensorModel sensor;
  const Pose reader({0, 0, 0}, 0.0);
  const ReaderFrame frame = ReaderFrame::From(reader);
  const double far = sensor.MaxRange() + 0.5;
  const double xs[] = {far, -far, 100.0};
  const double ys[] = {0.0, 0.0, 100.0};
  const double zs[] = {0.0, 0.0, 0.0};
  double out[3] = {-1, -1, -1};
  GatherOneFrame(sensor, frame, xs, ys, zs, 3, out);
  for (double p : out) EXPECT_EQ(p, 0.0);
}

/// Offsets (heading-0 frame) whose computed cos θ = dx / |d| sits at, or as
/// close as the arithmetic allows to, `target`, at distance ~`dist` and
/// height `dz`: dx is walked one ulp at a time towards the target.
Vec3 OffsetAtCos(double target, double dist, double dz) {
  const double planar = std::sqrt(dist * dist - dz * dz);
  const double dy = planar * std::sqrt(std::max(0.0, 1.0 - target * target));
  double dx = target * dist;
  auto cos_of = [&](double x) {
    return x / std::sqrt(x * x + dy * dy + dz * dz);
  };
  for (int i = 0; i < 64 && cos_of(dx) != target; ++i) {
    dx = std::nextafter(
        dx, cos_of(dx) < target ? std::numeric_limits<double>::infinity()
                                : -std::numeric_limits<double>::infinity());
  }
  return {dx, dy, dz};
}

/// The gather kernel — with per-element frames, and with one frame and an
/// all-zero index — must return exactly ProbReadAt at positions built on and
/// around the wedge edges, where the cone kernel's bearing pre-test decides
/// without an acos.
void ExpectConeWedgeEdgesExact(const ConeSensorModel& sensor) {
  const ConeSensorParams& p = sensor.params();
  const double theta_major = p.major_half_angle;
  const double theta_max = theta_major + p.minor_extra_angle;
  std::vector<double> cosines;
  for (const double edge : {std::cos(theta_major), std::cos(theta_max)}) {
    for (const double base : {edge, edge - 1e-12, edge + 1e-12}) {
      cosines.push_back(base);
      double up = base, down = base;
      for (int ulps = 1; ulps <= 4; ++ulps) {
        up = std::nextafter(up, 2.0);
        down = std::nextafter(down, -2.0);
        if (ulps != 3) {
          cosines.push_back(up);
          cosines.push_back(down);
        }
      }
    }
  }
  std::vector<Vec3> offsets;
  for (const double c : cosines) {
    for (const double dist : {0.5, 2.0, 3.7, 4.4}) {
      offsets.push_back(OffsetAtCos(c, dist, 0.0));
      offsets.push_back(OffsetAtCos(c, dist, 0.3));
    }
  }
  // Behind the antenna (dot <= 0), inside and outside the degenerate
  // 1e-12 distance guard.
  for (const double d : {1e-13, 1e-12, 5e-12, 1e-11, 2e-11, 0.5, 4.0}) {
    offsets.push_back({-d, 0.0, 0.0});
    offsets.push_back({0.0, d, 0.0});
    offsets.push_back({0.0, -d, 0.0});
    offsets.push_back({-d, d, 0.0});
    offsets.push_back({0.0, 0.0, d});
  }
  offsets.push_back({0.0, 0.0, 0.0});
  offsets.push_back({1e-13, 0.0, 0.0});
  offsets.push_back({1e-12, 0.0, 0.0});
  // Exactly MaxRange(), and one ulp inside, on and off the axis.
  const double r = sensor.MaxRange();
  for (const double d : {r, std::nextafter(r, 0.0)}) {
    offsets.push_back({d, 0.0, 0.0});
    offsets.push_back({-d, 0.0, 0.0});
    offsets.push_back({0.0, d, 0.0});
    offsets.push_back(OffsetAtCos(std::cos(theta_major), d, 0.0));
  }

  // Frame 0 has heading 0, so the offsets are exact; frame 1 turns and
  // moves them, so the edges are hit to within a few ulps.
  const std::vector<Pose> poses = {Pose({0, 0, 0}, 0.0),
                                   Pose({1.5, -2.0, 0.25}, 2.1)};
  std::vector<uint32_t> frame_idx;
  std::vector<Vec3> positions;
  std::vector<uint32_t> offsets_by_frame = {0};
  for (uint32_t j = 0; j < poses.size(); ++j) {
    const Pose& pose = poses[j];
    const double c = std::cos(pose.heading), s = std::sin(pose.heading);
    for (const Vec3& o : offsets) {
      frame_idx.push_back(j);
      positions.push_back(pose.position +
                          Vec3{o.x * c - o.y * s, o.x * s + o.y * c, o.z});
    }
    offsets_by_frame.push_back(static_cast<uint32_t>(positions.size()));
  }
  const size_t n = positions.size();
  Soa soa;
  for (const Vec3& q : positions) {
    soa.xs.push_back(q.x);
    soa.ys.push_back(q.y);
    soa.zs.push_back(q.z);
  }
  std::vector<ReaderFrame> frames;
  for (const Pose& pose : poses) frames.push_back(ReaderFrame::From(pose));

  std::vector<double> out_one(n, -1.0);
  for (size_t j = 0; j < poses.size(); ++j) {
    const uint32_t begin = offsets_by_frame[j];
    const size_t count = offsets_by_frame[j + 1] - begin;
    GatherOneFrame(sensor, frames[j], soa.xs.data() + begin,
                   soa.ys.data() + begin, soa.zs.data() + begin, count,
                   out_one.data() + begin);
  }
  std::vector<double> out_gather(n, -1.0);
  sensor.ProbReadBatchGather(frames.data(), frame_idx.data(), soa.xs.data(),
                             soa.ys.data(), soa.zs.data(), n,
                             out_gather.data());

  size_t in_minor_wedge = 0;
  for (size_t k = 0; k < n; ++k) {
    const double scalar = sensor.ProbReadAt(poses[frame_idx[k]], positions[k]);
    in_minor_wedge += scalar > 0.0 && scalar < p.major_read_rate;
    EXPECT_EQ(out_one[k], scalar) << "one-frame gather, element " << k;
    EXPECT_EQ(out_gather[k], scalar) << "Gather, element " << k;
  }
  EXPECT_GT(in_minor_wedge, 0u);
}

TEST(BatchKernelTest, ConeWedgeEdgesMatchScalarExactly) {
  ExpectConeWedgeEdgesExact(ConeSensorModel());
}

TEST(BatchKernelTest, ConeWedgeEdgesMatchScalarExactlyForOtherWedges) {
  // θ_max = 90° (no behind-the-antenna shortcut), past 90°, past π (no
  // pre-test at all) and no minor wedge.
  for (const auto& [major_deg, minor_deg] :
       {std::pair{40.0, 50.0}, std::pair{60.0, 45.0}, std::pair{120.0, 70.0},
        std::pair{20.0, 0.0}}) {
    ConeSensorParams params;
    params.major_half_angle = major_deg * M_PI / 180.0;
    params.minor_extra_angle = minor_deg * M_PI / 180.0;
    SCOPED_TRACE(::testing::Message() << major_deg << "+" << minor_deg);
    ExpectConeWedgeEdgesExact(ConeSensorModel(params));
  }
}

}  // namespace
}  // namespace rfid
