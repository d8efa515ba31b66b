// Object location model (paper §III-A): objects are stationary but move with
// probability alpha per epoch, in which case the new location is uniform
// across all shelves. The model deliberately carries no information about
// the destination; the particle filter recovers it from subsequent readings.
#pragma once

#include <cstdint>
#include <vector>

#include "geometry/aabb.h"
#include "util/rng.h"

namespace rfid {

/// The set of shelf regions an object can occupy, as axis-aligned boxes.
/// Sampling is uniform by area/volume across all regions.
class ShelfRegions {
 public:
  ShelfRegions() = default;
  explicit ShelfRegions(std::vector<Aabb> regions);

  bool empty() const { return regions_.empty(); }
  size_t size() const { return regions_.size(); }
  const std::vector<Aabb>& regions() const { return regions_; }

  /// Uniform sample over the union of shelf regions. Requires non-empty.
  Vec3 SampleUniform(Rng& rng) const;

  /// True if the point lies inside any shelf region. Exact and O(1) for
  /// non-overlapping layouts: only the regions registered in the point's
  /// xy grid cell are tested.
  bool Contains(const Vec3& p) const;

  /// Bounding box of all regions (empty box when no regions).
  const Aabb& BoundingBox() const { return bounds_; }

 private:
  std::vector<Aabb> regions_;
  std::vector<double> cumulative_measure_;  ///< Prefix sums for sampling.
  Aabb bounds_;

  // Uniform xy grid over bounds_ for Contains: cell c = cy * grid_nx_ + cx
  // lists the ids of every region whose xy footprint reaches it in
  // cell_regions_[cell_start_[c], cell_start_[c + 1]).
  size_t CellX(double x) const;
  size_t CellY(double y) const;
  size_t grid_nx_ = 1;
  size_t grid_ny_ = 1;
  double inv_cell_x_ = 0.0;  ///< Cells per foot (0 for a flat extent).
  double inv_cell_y_ = 0.0;
  std::vector<uint32_t> cell_start_;
  std::vector<uint32_t> cell_regions_;
};

struct ObjectModelParams {
  double move_probability = 1e-4;  ///< alpha: per-epoch move probability.
};

/// p(O_t,i | O_{t-1,i}) — the particle-filter proposal for object positions.
class ObjectLocationModel {
 public:
  ObjectLocationModel() = default;
  ObjectLocationModel(const ObjectModelParams& params, ShelfRegions shelves)
      : params_(params), shelves_(std::move(shelves)) {}

  /// Samples the next position: stay put w.p. 1 - alpha, else jump uniform.
  Vec3 Propagate(const Vec3& prev, Rng& rng) const;

  const ObjectModelParams& params() const { return params_; }
  const ShelfRegions& shelves() const { return shelves_; }

 private:
  ObjectModelParams params_;
  ShelfRegions shelves_;
};

}  // namespace rfid
