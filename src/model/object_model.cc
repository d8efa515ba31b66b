#include "model/object_model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace rfid {

namespace {
// Measure used for uniform sampling across regions: volume when the region
// has thickness in z, area otherwise. A tiny floor keeps degenerate
// (point-like) regions sampleable.
double RegionMeasure(const Aabb& b) {
  const Vec3 e = b.Extent();
  const double xy = std::max(e.x, 1e-9) * std::max(e.y, 1e-9);
  return xy * std::max(e.z, 1e-9);
}

// Contains grid density: about this many cells per region, as square as the
// bounding box allows.
constexpr double kCellsPerRegion = 4.0;

// Cells along one axis of `extent` feet; 1 for a flat or unbounded axis.
size_t AxisCells(double extent, double cell_side, double max_cells) {
  if (!(extent > 0.0) || !std::isfinite(extent)) return 1;
  const double cells = std::ceil(extent / cell_side);
  return cells >= 1.0 ? static_cast<size_t>(std::min(cells, max_cells)) : 1;
}

// The grid cell of coordinate v. Monotone non-decreasing in v (a rounded
// subtraction, a product with a non-negative constant, truncation, a clamp),
// so a point inside [lo_v, hi_v] lands between the cells of lo_v and hi_v:
// registering each region over that cell range makes the lookup exact.
size_t Cell(double v, double origin, double inv_cell, size_t cells) {
  const double t = (v - origin) * inv_cell;
  return t < static_cast<double>(cells) ? static_cast<size_t>(t) : cells - 1;
}
}  // namespace

ShelfRegions::ShelfRegions(std::vector<Aabb> regions)
    : regions_(std::move(regions)) {
  cumulative_measure_.reserve(regions_.size());
  double acc = 0.0;
  for (const Aabb& r : regions_) {
    acc += RegionMeasure(r);
    cumulative_measure_.push_back(acc);
    bounds_.Extend(r);
  }
  if (regions_.empty()) return;

  const Vec3 e = bounds_.Extent();
  const double target = kCellsPerRegion * static_cast<double>(regions_.size());
  const double side = e.x > 0.0 && e.y > 0.0
                          ? std::sqrt(e.x * e.y / target)
                          : std::max(e.x, e.y) / target;
  grid_nx_ = AxisCells(e.x, side, target);
  grid_ny_ = AxisCells(e.y, side, target);
  if (grid_nx_ > 1) inv_cell_x_ = static_cast<double>(grid_nx_) / e.x;
  if (grid_ny_ > 1) inv_cell_y_ = static_cast<double>(grid_ny_) / e.y;

  // Two flat passes (count, then fill) into CSR arrays. cell_start_[c + 1]
  // first counts cell c, then holds its fill cursor, and ends at its end.
  cell_start_.assign(grid_nx_ * grid_ny_ + 1, 0);
  auto for_each_cell = [this](const Aabb& r, auto&& visit) {
    if (r.IsEmpty()) return;
    const size_t x1 = CellX(r.max.x), y1 = CellY(r.max.y);
    for (size_t cy = CellY(r.min.y); cy <= y1; ++cy) {
      for (size_t cx = CellX(r.min.x); cx <= x1; ++cx) {
        visit(cy * grid_nx_ + cx);
      }
    }
  };
  for (const Aabb& r : regions_) {
    for_each_cell(r, [this](size_t c) { ++cell_start_[c + 1]; });
  }
  uint32_t total = 0;
  for (size_t c = 1; c < cell_start_.size(); ++c) {
    const uint32_t count = cell_start_[c];
    cell_start_[c] = total;
    total += count;
  }
  cell_regions_.resize(total);
  for (uint32_t id = 0; id < regions_.size(); ++id) {
    for_each_cell(regions_[id], [this, id](size_t c) {
      cell_regions_[cell_start_[c + 1]++] = id;
    });
  }
}

size_t ShelfRegions::CellX(double x) const {
  return Cell(x, bounds_.min.x, inv_cell_x_, grid_nx_);
}

size_t ShelfRegions::CellY(double y) const {
  return Cell(y, bounds_.min.y, inv_cell_y_, grid_ny_);
}

Vec3 ShelfRegions::SampleUniform(Rng& rng) const {
  assert(!regions_.empty());
  const double total = cumulative_measure_.back();
  const double u = rng.NextDouble() * total;
  size_t idx = 0;
  while (idx + 1 < regions_.size() && cumulative_measure_[idx] <= u) ++idx;
  const Aabb& r = regions_[idx];
  return {rng.Uniform(r.min.x, r.max.x), rng.Uniform(r.min.y, r.max.y),
          r.min.z == r.max.z ? r.min.z : rng.Uniform(r.min.z, r.max.z)};
}

bool ShelfRegions::Contains(const Vec3& p) const {
  // Also rejects NaN coordinates, and every point when there are no regions.
  if (!bounds_.Contains(p)) return false;
  const size_t c = CellY(p.y) * grid_nx_ + CellX(p.x);
  for (uint32_t k = cell_start_[c]; k < cell_start_[c + 1]; ++k) {
    if (regions_[cell_regions_[k]].Contains(p)) return true;
  }
  return false;
}

Vec3 ObjectLocationModel::Propagate(const Vec3& prev, Rng& rng) const {
  if (!shelves_.empty() && rng.Bernoulli(params_.move_probability)) {
    return shelves_.SampleUniform(rng);
  }
  return prev;
}

}  // namespace rfid
