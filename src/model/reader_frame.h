// Precomputed reader frames for batched sensor-model evaluation.
//
// Per paper Eq. (1) every likelihood evaluation needs the tag's range and
// bearing relative to a reader pose, and the bearing needs cos/sin of the
// reader heading. The filters evaluate thousands of particles against a
// handful of poses per epoch, so the trig is hoisted out of the per-particle
// loop into a ReaderFrame computed once per pose per epoch.
//
// The templated kernels below replicate ComputeRangeBearing (geometry/vec.h)
// term for term — same expressions, same association order, same 1e-12
// degenerate-distance guard — so a batched evaluation returns exactly what a
// scalar ProbReadAt call would. When instantiated with a concrete `final`
// sensor model the per-particle ProbRead call devirtualizes and inlines.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#include "geometry/vec.h"

namespace rfid {

/// A reader pose with the heading trig precomputed.
struct ReaderFrame {
  Vec3 origin;
  double cos_heading = 1.0;
  double sin_heading = 0.0;

  static ReaderFrame From(const Pose& pose) {
    ReaderFrame f;
    f.origin = pose.position;
    f.cos_heading = std::cos(pose.heading);
    f.sin_heading = std::sin(pose.heading);
    return f;
  }
};

namespace batch_detail {

/// The default per-element evaluator: range/bearing of one offset against
/// one frame, then the model's ProbRead. `zero_beyond` is the cutoff
/// distance past which the model's probability is (exactly or negligibly)
/// zero; it is compared squared, so far-field elements skip the sqrt as well
/// as the acos. Pass kNoCutoff for no cutoff. Comparing squares can disagree
/// with comparing distances by one ulp exactly at the cutoff, where every
/// model's probability is below the 1e-12 parity tolerance by construction.
template <typename ModelT>
class RangeBearingEval {
 public:
  RangeBearingEval(const ModelT& model, double zero_beyond)
      : model_(model), zero_beyond_sq_(zero_beyond * zero_beyond) {}

  double operator()(const ReaderFrame& f, double tx, double ty,
                    double tz) const {
    const double dx = tx - f.origin.x;
    const double dy = ty - f.origin.y;
    const double dz = tz - f.origin.z;
    const double dist_sq = dx * dx + dy * dy + dz * dz;
    if (dist_sq >= zero_beyond_sq_) return 0.0;
    const double dist = std::sqrt(dist_sq);
    double angle = 0.0;
    if (dist > 1e-12) {
      const double cos_theta = (dx * f.cos_heading + dy * f.sin_heading) / dist;
      angle = std::acos(std::clamp(cos_theta, -1.0, 1.0));
    }
    return model_.ProbRead(dist, angle);
  }

 private:
  const ModelT& model_;
  double zero_beyond_sq_;
};

/// Per-element frame lookup (the factored filter: particle k is conditioned
/// on reader particle frame_idx[k]) over any per-element evaluator
/// `eval(frame, x, y, z)` — RangeBearingEval, or a model's own exact variant
/// of it.
template <typename EvalT>
inline void BatchGather(const EvalT& eval, const ReaderFrame* frames,
                        const uint32_t* frame_idx, const double* xs,
                        const double* ys, const double* zs, size_t n,
                        double* out) {
  for (size_t k = 0; k < n; ++k) {
    out[k] = eval(frames[frame_idx[k]], xs[k], ys[k], zs[k]);
  }
}

inline constexpr double kNoCutoff = std::numeric_limits<double>::infinity();

}  // namespace batch_detail

/// Probability below which the batch kernels may round a read probability to
/// exactly 0 (the paper's Case-4 "negligible probability" rounding, applied
/// at kernel level). The threshold sits far below 2^-54 ≈ 5.6e-17, which
/// makes the rounding provably invisible to every consumer of batched
/// likelihoods: `max(p, 1e-9)` is unchanged, and `1.0 - p` rounds to exactly
/// 1.0 for any p < 2^-54 — so filter estimates stay bit-identical while
/// far-field lanes skip their transcendentals. The spherical and logistic
/// models precompute the radius beyond which their probability provably
/// stays under this bound (NegligibleRange()) and pass it as `zero_beyond`.
inline constexpr double kBatchNegligibleProb = 1e-18;

}  // namespace rfid
