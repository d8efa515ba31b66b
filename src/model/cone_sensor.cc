#include "model/cone_sensor.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace rfid {

Aabb ConeSensorModel::SensingBounds(const Pose& reader) const {
  const double r = MaxRange();
  const double theta_max = params_.major_half_angle + params_.minor_extra_angle;
  Aabb box;
  box.Extend(reader.position);
  // Sample the bounding arc: the extremes of the cone's planar footprint are
  // attained at the arc endpoints, the axis, and (if inside the wedge) the
  // axis-aligned tangent directions.
  for (double a : {-theta_max, -theta_max / 2, 0.0, theta_max / 2, theta_max}) {
    const double phi = reader.heading + a;
    box.Extend(reader.position + Vec3{r * std::cos(phi), r * std::sin(phi), 0});
  }
  for (double phi_card = -M_PI; phi_card <= M_PI + 1e-9; phi_card += M_PI / 2) {
    if (std::abs(WrapAngle(phi_card - reader.heading)) <= theta_max) {
      box.Extend(reader.position +
                 Vec3{r * std::cos(phi_card), r * std::sin(phi_card), 0});
    }
  }
  // The 3-D angular acceptance allows tags above/below the antenna plane.
  const double z_span = r * std::sin(theta_max);
  box.Extend(reader.position + Vec3{0, 0, z_span});
  box.Extend(reader.position - Vec3{0, 0, z_span});
  return box;
}

double ConeSensorModel::ProbRead(double distance, double angle) const {
  const double theta_major = params_.major_half_angle;
  const double theta_max = theta_major + params_.minor_extra_angle;
  if (angle >= theta_max) return 0.0;

  const double r_major = params_.major_range;
  const double r_max = r_major + params_.minor_extra_range;
  if (distance >= r_max) return 0.0;

  // Linear decay factors in the minor wedge / minor range; 1 inside major.
  double angle_factor = 1.0;
  if (angle > theta_major) {
    angle_factor = 1.0 - (angle - theta_major) / params_.minor_extra_angle;
  }
  double range_factor = 1.0;
  if (distance > r_major) {
    range_factor = 1.0 - (distance - r_major) / params_.minor_extra_range;
  }
  return params_.major_read_rate * angle_factor * range_factor;
}

namespace {

/// Scalar per-element cone evaluator: RangeBearingEval with a bearing
/// pre-test on cos θ = dot / dist, so only the minor-wedge band pays the
/// acos. It returns exactly what RangeBearingEval (and ProbReadAt) would:
/// acos is decreasing on [-1, 1] with |acos'| >= 1, so a cos θ more than
/// kBearingMargin beyond a wedge edge's cosine puts the computed angle more
/// than ~kBearingMargin beyond that edge — ~10^4 ulps past every rounding
/// in cos, acos and the margin itself (PERF.md, "Far-field transcendental
/// avoidance").
class ConeBatchEval {
 public:
  explicit ConeBatchEval(const ConeSensorModel& model)
      : model_(model),
        r_max_sq_(model.MaxRange() * model.MaxRange()) {
    const ConeSensorParams& p = model.params();
    const double theta_major = p.major_half_angle;
    const double theta_max = theta_major + p.minor_extra_angle;
    // acos inverts cos only on [0, π]; outside it (or with a negative
    // wedge) the thresholds stay at ±inf and never fire.
    if (theta_major >= 0.0 && p.minor_extra_angle >= 0.0 &&
        theta_max <= M_PI) {
      cos_zero_below_ = std::cos(theta_max) - kBearingMargin;
      cos_full_above_ = std::cos(theta_major) + kBearingMargin;
    }
  }

  double operator()(const ReaderFrame& f, double tx, double ty,
                    double tz) const {
    const double dx = tx - f.origin.x;
    const double dy = ty - f.origin.y;
    const double dz = tz - f.origin.z;
    const double dist_sq = dx * dx + dy * dy + dz * dz;
    if (dist_sq >= r_max_sq_) return 0.0;
    const double dot = dx * f.cos_heading + dy * f.sin_heading;
    // Behind the antenna cos θ <= 0 < cos_zero_below_, so the sqrt can go
    // too — once the tag is clear of the 1e-12 degenerate-distance guard.
    if (dot <= 0.0 && cos_zero_below_ > 0.0 && dist_sq > kClearOfGuardSq) {
      return 0.0;
    }
    const double dist = std::sqrt(dist_sq);
    if (!(dist > 1e-12)) return model_.ProbRead(dist, 0.0);
    const double cos_theta = dot / dist;
    if (cos_theta < cos_zero_below_) return 0.0;  // θ >= θ_max.
    if (cos_theta > cos_full_above_) {
      return model_.ProbRead(dist, 0.0);  // θ <= θ_major: angle factor 1.
    }
    return model_.ProbRead(dist, std::acos(std::clamp(cos_theta, -1.0, 1.0)));
  }

 private:
  static constexpr double kBearingMargin = 1e-12;
  /// sqrt(1e-22) = 1e-11, safely past the 1e-12 guard.
  static constexpr double kClearOfGuardSq = 1e-22;

  const ConeSensorModel& model_;
  double r_max_sq_;
  double cos_zero_below_ = -std::numeric_limits<double>::infinity();
  double cos_full_above_ = std::numeric_limits<double>::infinity();
};

}  // namespace

void ConeSensorModel::ProbReadBatchGather(const ReaderFrame* frames,
                                          const uint32_t* frame_idx,
                                          const double* xs, const double* ys,
                                          const double* zs, size_t n,
                                          double* out) const {
  batch_detail::BatchGather(ConeBatchEval(*this), frames, frame_idx, xs, ys,
                            zs, n, out);
}

}  // namespace rfid
