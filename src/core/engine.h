// Public entry point: the RFID inference engine.
//
// Wires a probabilistic WorldModel, an inference filter (basic or factored
// with optional spatial indexing / belief compression), and an event-output
// policy into a single streaming component: noisy synchronized epochs in,
// clean location events out.
//
// Typical use:
//   WorldModel model = ...;                 // §III — or EmCalibrator output
//   EngineConfig config;                    // defaults: factored + index
//   auto engine = RfidInferenceEngine::Create(std::move(model), config);
//   for (const SyncedEpoch& epoch : epochs) {
//     engine.value()->ProcessEpoch(epoch);
//     for (const LocationEvent& e : engine.value()->TakeEvents()) { ... }
//   }
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "model/world_model.h"
#include "pf/basic_filter.h"
#include "pf/factored_filter.h"
#include "stream/emitter.h"
#include "util/json.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace rfid {

struct EngineConfig {
  enum class FilterKind { kBasic, kFactored };
  FilterKind filter = FilterKind::kFactored;

  BasicFilterConfig basic;        ///< Used when filter == kBasic.
  FactoredFilterConfig factored;  ///< Used when filter == kFactored.

  EmitterConfig emitter;
};

/// Cumulative performance counters.
struct EngineStats {
  size_t epochs_processed = 0;
  size_t readings_processed = 0;
  size_t events_emitted = 0;
  double processing_seconds = 0.0;

  double ReadingsPerSecond() const {
    return processing_seconds > 0
               ? static_cast<double>(readings_processed) / processing_seconds
               : 0.0;
  }
  double EpochsPerSecond() const {
    return processing_seconds > 0
               ? static_cast<double>(epochs_processed) / processing_seconds
               : 0.0;
  }
  double MillisPerReading() const {
    return readings_processed > 0
               ? processing_seconds * 1e3 /
                     static_cast<double>(readings_processed)
               : 0.0;
  }

  /// Writes a flat JSON object of the counters plus derived rates, for
  /// per-shard stats export by the serving layer.
  void ToJson(json::Writer* w) const;
};

/// Wall-clock split of the most recent ProcessEpoch (telemetry for the
/// serving layer's stage histograms; never read by inference).
struct EngineEpochTimings {
  double filter_seconds = 0.0;  ///< InferenceFilter::ObserveEpoch.
  double emit_seconds = 0.0;    ///< EventEmitter::OnEpoch.
};

class RfidInferenceEngine {
 public:
  /// Validates the configuration and builds the engine.
  static Result<std::unique_ptr<RfidInferenceEngine>> Create(
      WorldModel model, const EngineConfig& config);

  /// Consumes one synchronized epoch; emitted events accumulate until
  /// TakeEvents().
  void ProcessEpoch(const SyncedEpoch& epoch);

  /// Drains the pending output events.
  std::vector<LocationEvent> TakeEvents();

  /// Swap-based drain: `out` is cleared and receives the pending events, and
  /// its old capacity becomes the engine's next accumulation buffer. Lets a
  /// per-epoch caller (the serving runtime's shard loop) hand events off
  /// with zero allocation in steady state.
  void TakeEvents(std::vector<LocationEvent>* out);

  /// kOnScanComplete emitter policy: flush events for all seen tags.
  std::vector<LocationEvent> NotifyScanComplete(double time);

  std::optional<LocationEstimate> EstimateObject(TagId tag) const {
    return filter_->EstimateObject(tag);
  }
  ReaderEstimate EstimateReader() const { return filter_->EstimateReader(); }

  const InferenceFilter& filter() const { return *filter_; }
  const EngineStats& stats() const { return stats_; }
  const EngineConfig& config() const { return config_; }
  /// Timing split of the most recent ProcessEpoch (telemetry).
  const EngineEpochTimings& last_epoch_timings() const { return timings_; }

  // --- Checkpoint hooks (src/serve/checkpoint.cc) ---
  /// Mutable filter access for snapshot restore into a live engine.
  InferenceFilter& mutable_filter() { return *filter_; }
  /// Emitter access so its scope / work-list state rides along in a
  /// checkpoint (required for bit-identical event replay after restore).
  EventEmitter& emitter() { return emitter_; }
  const EventEmitter& emitter() const { return emitter_; }
  /// Reinstates counters captured at checkpoint time.
  void RestoreStats(const EngineStats& stats) { stats_ = stats; }

 private:
  RfidInferenceEngine(std::unique_ptr<InferenceFilter> filter,
                      const EngineConfig& config);

  std::unique_ptr<InferenceFilter> filter_;
  EngineConfig config_;
  EventEmitter emitter_;
  std::vector<LocationEvent> pending_events_;
  EngineStats stats_;
  EngineEpochTimings timings_;
};

}  // namespace rfid
