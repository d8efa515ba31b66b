// Basic (unfactorized) particle filter, paper §IV-A.
//
// Each particle is a joint hypothesis of the reader pose and the locations of
// every tracked object. This is the textbook algorithm the paper starts
// from: correct but unscalable — accuracy at a fixed particle count degrades
// rapidly as objects are added, since a particle good for one object is
// usually bad for another (§IV-B, Fig. 3a). It serves as the baseline of the
// scalability study (Fig. 5(i)/(j)).
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "model/reader_frame.h"
#include "model/world_model.h"
#include "pf/filter.h"
#include "pf/initializer.h"
#include "pf/resample.h"

namespace rfid {

struct BasicFilterConfig {
  int num_particles = 10000;
  /// Resample when ESS < threshold * num_particles.
  double resample_threshold = 0.5;
  ResampleScheme resample_scheme = ResampleScheme::kSystematic;
  InitializerConfig init;
  uint64_t seed = 1;
};

class BasicParticleFilter final : public InferenceFilter {
 public:
  BasicParticleFilter(WorldModel model, const BasicFilterConfig& config);

  void ObserveEpoch(const SyncedEpoch& epoch) override;
  std::optional<LocationEstimate> EstimateObject(TagId tag) const override;
  ReaderEstimate EstimateReader() const override;
  size_t NumTrackedObjects() const override { return object_slots_.size(); }

  int num_particles() const { return config_.num_particles; }

 private:
  struct Particle {
    Pose reader;
    std::vector<Vec3> objects;  ///< Indexed by object slot.
  };

  void InitializeReader(const SyncedEpoch& epoch);
  /// Adds a slot for a newly seen object, initializing per-particle positions
  /// from the sensor-model cone at each particle's reader hypothesis.
  size_t AddObjectSlot(TagId tag);
  void Resample();

  WorldModel model_;
  BasicFilterConfig config_;
  ParticleInitializer initializer_;
  Rng rng_;

  std::vector<Particle> particles_;
  std::vector<double> weights_;  ///< Normalized; parallel to particles_.
  std::unordered_map<TagId, size_t> object_slots_;
  std::vector<TagId> slot_tags_;
  bool reader_initialized_ = false;

  // Scratch reused across epochs for the weighting loop: one particle's
  // object positions as component arrays, the all-zero frame index, the
  // batched per-object likelihoods and the observed-slot bitmap.
  std::vector<double> scratch_xs_;
  std::vector<double> scratch_ys_;
  std::vector<double> scratch_zs_;
  std::vector<uint32_t> scratch_frame_idx_;
  std::vector<double> scratch_probs_;
  std::vector<uint8_t> scratch_observed_;
};

}  // namespace rfid
