#include "obs/flight_recorder.h"

#include <algorithm>

namespace rfid {
namespace obs {

namespace {

void AppendTimingsJson(json::Writer* w, const EpochStageTimings& t) {
  w->BeginObject().Key("step").Uint(t.step);
  w->Key("epoch_time").Double(t.epoch_time);
  w->Key("total").Double(t.total);
  w->Key("synchronize").Double(t.synchronize);
  w->Key("weight").Double(t.weight);
  w->Key("init").Double(t.init);
  w->Key("resample").Double(t.resample);
  w->Key("remap").Double(t.remap);
  w->Key("compress").Double(t.compress);
  w->Key("emit").Double(t.emit);
  w->Key("dispatch").Double(t.dispatch);
  w->Key("readings").Uint(t.readings);
  w->Key("events").Uint(t.events);
  w->EndObject();
}

}  // namespace

FlightRecorder::FlightRecorder(const Config& config) : config_(config) {
  if (config_.ring_capacity == 0) config_.ring_capacity = 1;
  if (config_.diagnostic_capacity == 0) config_.diagnostic_capacity = 1;
  ring_.resize(config_.ring_capacity);
}

bool FlightRecorder::RecordEpoch(const EpochStageTimings& timings) {
  ring_[ring_head_ % ring_.size()] = timings;
  ++ring_head_;
  ++epochs_recorded_;

  bool slow = false;
  if (ewma_seeded_) {
    slow = timings.total > config_.slow_multiple * ewma_ &&
           timings.total > config_.min_slow_seconds;
    ewma_ = config_.ewma_alpha * timings.total +
            (1.0 - config_.ewma_alpha) * ewma_;
  } else {
    ewma_ = timings.total;
    ewma_seeded_ = true;
  }
  if (slow) CaptureDiagnostic("slow_epoch");
  return slow;
}

void FlightRecorder::CaptureDiagnostic(const std::string& trigger) {
  FlightDiagnostic diag;
  diag.sequence = next_sequence_++;
  diag.trigger = trigger;
  diag.ewma_at_capture = ewma_;
  diag.recent = RecentEpochs();
  if (diagnostics_.size() >= config_.diagnostic_capacity) {
    diagnostics_.erase(diagnostics_.begin());
  }
  diagnostics_.push_back(std::move(diag));
}

std::vector<EpochStageTimings> FlightRecorder::RecentEpochs() const {
  const uint64_t count = std::min<uint64_t>(ring_head_, ring_.size());
  std::vector<EpochStageTimings> out;
  out.reserve(count);
  for (uint64_t i = ring_head_ - count; i < ring_head_; ++i) {
    out.push_back(ring_[i % ring_.size()]);
  }
  return out;
}

void FlightRecorder::ToJson(json::Writer* w) const {
  w->BeginObject().Key("ewma_seconds").Double(ewma_);
  w->Key("epochs").Uint(epochs_recorded_);
  w->Key("recent").BeginArray();
  for (const EpochStageTimings& t : RecentEpochs()) AppendTimingsJson(w, t);
  w->EndArray().Key("diagnostics").BeginArray();
  for (const FlightDiagnostic& diag : diagnostics_) {
    w->BeginObject().Key("sequence").Uint(diag.sequence);
    w->Key("trigger").String(diag.trigger);
    w->Key("ewma_at_capture").Double(diag.ewma_at_capture);
    w->Key("recent").BeginArray();
    for (const EpochStageTimings& t : diag.recent) AppendTimingsJson(w, t);
    w->EndArray().EndObject();
  }
  w->EndArray().EndObject();
}

}  // namespace obs
}  // namespace rfid
