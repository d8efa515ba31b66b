// 4-wide SIMD inner loops for the three sensor models (simd.h lanes).
//
// Each kernel evaluates reader frames against SoA positions in two shapes:
// one frame over a contiguous block (ProbReadBatchSimd), or many contiguous
// per-frame runs in a single call (ProbReadBatchRunsSimd — the factored
// filter's reader-run bucketing, where per-run overhead matters: model
// constants are broadcast once per *call*, only the 5-value frame per run).
//
// The geometry replicates batch_detail::RangeBearingEval per lane: same 1e-12
// degenerate-distance guard, same clamped bearing, same zero-beyond cutoff;
// the transcendentals are the simd.h polynomials, so results match the
// scalar kernels to the 1e-9 relative bound documented there (parity tests
// pin this down in tests/batch_kernel_test.cc).
//
// Far-field short circuit: when no lane of a 4-group is inside the cutoff
// the evaluator stores zeros and skips the sqrt, the bearing acos and (for
// the spherical and logistic models) the exp entirely. Remainder (n % 4)
// lanes of blocks >= 4 run through one overlapped final group (same-frame
// elements recompute to identical values); shorter blocks take a
// zero-padded group whose padding lanes are computed but never stored.
#pragma once

#include <array>
#include <cstddef>

#include "model/reader_frame.h"
#include "util/simd.h"

namespace rfid {
namespace simd_kernel {

/// One reader frame broadcast across lanes.
struct FrameConst {
  simd::Vec4d ox, oy, oz, cos_h, sin_h;

  static FrameConst From(const ReaderFrame& f) {
    return {simd::Set1(f.origin.x), simd::Set1(f.origin.y),
            simd::Set1(f.origin.z), simd::Set1(f.cos_heading),
            simd::Set1(f.sin_heading)};
  }
};

/// Bearing against the frame heading; degenerate lanes (dist <= 1e-12) get
/// angle 0, as the scalar guard does.
inline simd::Vec4d Bearing(const FrameConst& f, simd::Vec4d dx, simd::Vec4d dy,
                           simd::Vec4d dist) {
  using namespace simd;
  const Vec4d one = Set1(1.0);
  const Vec4d ok = CmpLt(Set1(1e-12), dist);
  const Vec4d denom = Select(ok, dist, one);
  Vec4d ct = MulAdd(dx, f.cos_h, dy * f.sin_h) / denom;
  ct = Min(Max(ct, Set1(-1.0)), one);
  return And(Acos(ct), ok);
}

/// Cone model (cone_sensor.h): linear angle/range decay, zero past the
/// major+minor extents. Constants are broadcast at construction; one
/// evaluator serves every run of a bucketed batch.
struct ConeEval {
  simd::Vec4d one, rate, theta_major, theta_max, r_major, r_max_sq, inv_ma,
      inv_mr;

  struct Params {
    double major_read_rate;
    double major_half_angle;
    double theta_max;
    double major_range;
    double r_max;  ///< == MaxRange(), the hard cutoff.
    double inv_minor_angle;
    double inv_minor_range;
  };

  explicit ConeEval(const Params& p)
      : one(simd::Set1(1.0)),
        rate(simd::Set1(p.major_read_rate)),
        theta_major(simd::Set1(p.major_half_angle)),
        theta_max(simd::Set1(p.theta_max)),
        r_major(simd::Set1(p.major_range)),
        r_max_sq(simd::Set1(p.r_max * p.r_max)),
        inv_ma(simd::Set1(p.inv_minor_angle)),
        inv_mr(simd::Set1(p.inv_minor_range)) {}

  simd::Vec4d CutoffSq() const { return r_max_sq; }

  simd::Vec4d operator()(const FrameConst& fc, simd::Vec4d x, simd::Vec4d y,
                         simd::Vec4d z) const {
    using namespace simd;
    const Vec4d dx = x - fc.ox, dy = y - fc.oy, dz = z - fc.oz;
    const Vec4d dist_sq = MulAdd(dx, dx, MulAdd(dy, dy, dz * dz));
    const Vec4d in_range = CmpLt(dist_sq, r_max_sq);
    if (!AnyTrue(in_range)) return Zero();  // Far field: skip sqrt and acos.
    const Vec4d dist = Sqrt(dist_sq);
    const Vec4d angle = Bearing(fc, dx, dy, dist);
    const Vec4d af = Select(CmpLt(theta_major, angle),
                            one - (angle - theta_major) * inv_ma, one);
    const Vec4d rf = Select(CmpLt(r_major, dist),
                            one - (dist - r_major) * inv_mr, one);
    const Vec4d mask = And(in_range, CmpLt(angle, theta_max));
    return And(rate * af * rf, mask);
  }
};

/// Spherical model: peak * exp(-2 (d/range)^2) * (1 - falloff*min(a,pi)/pi),
/// zeroed past `zero_beyond` (the negligible-probability radius).
struct SphericalEval {
  simd::Vec4d one, peak, inv_range, falloff_over_pi, pi, cutoff_sq;

  struct Params {
    double peak_read_rate;
    double inv_range;
    double angle_falloff;
    double zero_beyond;
  };

  explicit SphericalEval(const Params& p)
      : one(simd::Set1(1.0)),
        peak(simd::Set1(p.peak_read_rate)),
        inv_range(simd::Set1(p.inv_range)),
        falloff_over_pi(simd::Set1(p.angle_falloff / M_PI)),
        pi(simd::Set1(M_PI)),
        cutoff_sq(simd::Set1(p.zero_beyond * p.zero_beyond)) {}

  simd::Vec4d CutoffSq() const { return cutoff_sq; }

  simd::Vec4d operator()(const FrameConst& fc, simd::Vec4d x, simd::Vec4d y,
                         simd::Vec4d z) const {
    using namespace simd;
    const Vec4d dx = x - fc.ox, dy = y - fc.oy, dz = z - fc.oz;
    const Vec4d dist_sq = MulAdd(dx, dx, MulAdd(dy, dy, dz * dz));
    const Vec4d in_range = CmpLt(dist_sq, cutoff_sq);
    if (!AnyTrue(in_range)) return Zero();  // Far: skip sqrt, acos and exp.
    const Vec4d dist = Sqrt(dist_sq);
    const Vec4d angle = Bearing(fc, dx, dy, dist);
    const Vec4d d = dist * inv_range;
    const Vec4d df = Exp(Set1(-2.0) * d * d);
    const Vec4d af = one - falloff_over_pi * Min(angle, pi);
    return And(peak * df * af, in_range);
  }
};

/// Logistic model, paper Eq. (1): sigmoid(a0 + a1 d + a2 d^2 + b1 t + b2 t^2)
/// with the numerically-stable two-branch sigmoid, zeroed past `zero_beyond`.
struct LogisticEval {
  simd::Vec4d one, a0, a1, a2, b1, b2, cutoff_sq;

  LogisticEval(const std::array<double, 3>& a, const std::array<double, 3>& b,
               double zero_beyond)
      : one(simd::Set1(1.0)),
        a0(simd::Set1(a[0])),
        a1(simd::Set1(a[1])),
        a2(simd::Set1(a[2])),
        b1(simd::Set1(b[1])),
        b2(simd::Set1(b[2])),
        cutoff_sq(simd::Set1(zero_beyond * zero_beyond)) {}

  simd::Vec4d CutoffSq() const { return cutoff_sq; }

  simd::Vec4d operator()(const FrameConst& fc, simd::Vec4d x, simd::Vec4d y,
                         simd::Vec4d z) const {
    using namespace simd;
    const Vec4d dx = x - fc.ox, dy = y - fc.oy, dz = z - fc.oz;
    const Vec4d dist_sq = MulAdd(dx, dx, MulAdd(dy, dy, dz * dz));
    const Vec4d in_range = CmpLt(dist_sq, cutoff_sq);
    if (!AnyTrue(in_range)) return Zero();  // Far: skip sqrt, acos and exp.
    const Vec4d dist = Sqrt(dist_sq);
    const Vec4d angle = Bearing(fc, dx, dy, dist);
    const Vec4d g = MulAdd(MulAdd(a2, dist, a1), dist, a0) +
                    MulAdd(b2, angle, b1) * angle;
    const Vec4d e = Exp(Zero() - Abs(g));
    const Vec4d inv = one / (one + e);
    const Vec4d sig = Select(CmpGe(g, Zero()), inv, e * inv);
    return And(sig, in_range);
  }
};

/// Runs `eval(fc, x, y, z)` over full 4-lane groups. A remainder of a
/// block with n >= 4 is handled by one *overlapped* final group at n-4:
/// the overlapping lanes recompute elements of the same frame, producing
/// identical values, so re-storing them is safe and the copy-pad tail —
/// which dominates short bucketed runs — is avoided. Only blocks shorter
/// than one group (n < 4) take the zero-padded path.
template <typename EvalT>
inline void ForEachGroup(const EvalT& eval, const FrameConst& fc,
                         const double* xs, const double* ys, const double* zs,
                         size_t n, double* out) {
  using namespace simd;
  size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    Store(out + k, eval(fc, Load(xs + k), Load(ys + k), Load(zs + k)));
  }
  if (k == n) return;
  if (n >= static_cast<size_t>(kLanes)) {
    const size_t j = n - kLanes;
    Store(out + j, eval(fc, Load(xs + j), Load(ys + j), Load(zs + j)));
    return;
  }
  double tx[kLanes] = {0}, ty[kLanes] = {0}, tz[kLanes] = {0};
  double tp[kLanes];
  for (size_t i = k; i < n; ++i) {
    tx[i - k] = xs[i];
    ty[i - k] = ys[i];
    tz[i - k] = zs[i];
  }
  Store(tp, eval(fc, Load(tx), Load(ty), Load(tz)));
  for (size_t i = k; i < n; ++i) out[i] = tp[i - k];
}

/// One frame, one contiguous block (ProbReadBatchSimd).
template <typename EvalT>
inline void BatchSimd(const EvalT& eval, const ReaderFrame& frame,
                      const double* xs, const double* ys, const double* zs,
                      size_t n, double* out) {
  ForEachGroup(eval, FrameConst::From(frame), xs, ys, zs, n, out);
}

/// Contiguous per-frame runs in one call (ProbReadBatchRunsSimd): elements
/// [offsets[j], offsets[j+1]) evaluate against frames[j]. Model constants
/// live in `eval` across all runs; only the frame re-broadcasts per run.
template <typename EvalT>
inline void BatchRunsSimd(const EvalT& eval, const ReaderFrame* frames,
                          const uint32_t* offsets, size_t num_frames,
                          const double* xs, const double* ys, const double* zs,
                          double* out) {
  for (size_t j = 0; j < num_frames; ++j) {
    const uint32_t begin = offsets[j];
    const uint32_t len = offsets[j + 1] - begin;
    if (len == 0) continue;
    ForEachGroup(eval, FrameConst::From(frames[j]), xs + begin, ys + begin,
                 zs + begin, len, out + begin);
  }
}

/// Per-element frames in original particle order (ProbReadBatchGatherSimd):
/// lane i of a group evaluates against frames[frame_idx[k+i]], fetched with
/// hardware index gathers from the frame table (L1-resident at the paper's
/// ~100 reader particles). This vectorizes the factored weighting without
/// any bucketing pass — the per-lane FrameConst has exactly the shape the
/// evaluators already take.
template <typename EvalT>
inline void BatchGatherSimd(const EvalT& eval, const ReaderFrame* frames,
                            const uint32_t* frame_idx, const double* xs,
                            const double* ys, const double* zs, size_t n,
                            double* out) {
  using namespace simd;
  static_assert(sizeof(ReaderFrame) == 5 * sizeof(double),
                "frame table must be densely packed doubles for gathers");
  constexpr int32_t kStride = 5;
  const double* base = reinterpret_cast<const double*>(frames);
  // Origins gather first; the heading components (and the evaluator) are
  // fetched only for groups with at least one lane inside the cutoff, so
  // far-field-dominated batches pay 3 gathers + a squared compare per group.
  const auto eval_group = [&](const uint32_t* idx_ptr, Vec4d x, Vec4d y,
                              Vec4d z) {
    const Idx4 idx = MulIdx(LoadIdx(idx_ptr), kStride);
    FrameConst fc;
    fc.ox = Gather(base + 0, idx);
    fc.oy = Gather(base + 1, idx);
    fc.oz = Gather(base + 2, idx);
    const Vec4d dx = x - fc.ox, dy = y - fc.oy, dz = z - fc.oz;
    const Vec4d dist_sq = MulAdd(dx, dx, MulAdd(dy, dy, dz * dz));
    if (!AnyTrue(CmpLt(dist_sq, eval.CutoffSq()))) return Zero();
    fc.cos_h = Gather(base + 3, idx);
    fc.sin_h = Gather(base + 4, idx);
    return eval(fc, x, y, z);
  };
  size_t k = 0;
  for (; k + kLanes <= n; k += kLanes) {
    Store(out + k, eval_group(frame_idx + k, Load(xs + k), Load(ys + k),
                              Load(zs + k)));
  }
  if (k == n) return;
  if (n >= static_cast<size_t>(kLanes)) {
    // Overlapped final group: recomputes same-index elements identically.
    const size_t j = n - kLanes;
    Store(out + j, eval_group(frame_idx + j, Load(xs + j), Load(ys + j),
                              Load(zs + j)));
    return;
  }
  double tx[kLanes] = {0}, ty[kLanes] = {0}, tz[kLanes] = {0};
  double tp[kLanes];
  uint32_t ti[kLanes];
  for (int i = 0; i < kLanes; ++i) {
    const size_t src = k + static_cast<size_t>(i) < n ? k + i : n - 1;
    tx[i] = xs[src];
    ty[i] = ys[src];
    tz[i] = zs[src];
    ti[i] = frame_idx[src];
  }
  Store(tp, eval_group(ti, Load(tx), Load(ty), Load(tz)));
  for (size_t i = k; i < n; ++i) out[i] = tp[i - k];
}

}  // namespace simd_kernel
}  // namespace rfid
