#include "obs/flight_recorder.h"

#include <algorithm>
#include <cstdio>

namespace rfid {
namespace obs {

namespace {

void AppendTimingsJson(std::string* out, const EpochStageTimings& t) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "{\"step\":%llu,\"epoch_time\":%.6f,\"total\":%.9f,"
      "\"synchronize\":%.9f,\"weight\":%.9f,\"init\":%.9f,"
      "\"resample\":%.9f,\"remap\":%.9f,\"compress\":%.9f,\"emit\":%.9f,"
      "\"dispatch\":%.9f,\"readings\":%u,\"events\":%u}",
      static_cast<unsigned long long>(t.step), t.epoch_time, t.total,
      t.synchronize, t.weight, t.init, t.resample, t.remap, t.compress,
      t.emit, t.dispatch, t.readings, t.events);
  *out += buf;
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

std::string FlightRecorder::ToJson() const {
  char buf[128];
  std::string out = "{";
  std::snprintf(buf, sizeof(buf), "\"ewma_seconds\":%.9f,\"epochs\":%llu,",
                ewma_, static_cast<unsigned long long>(epochs_recorded_));
  out += buf;
  out += "\"recent\":[";
  bool first = true;
  for (const EpochStageTimings& t : RecentEpochs()) {
    if (!first) out += ',';
    first = false;
    AppendTimingsJson(&out, t);
  }
  out += "],\"diagnostics\":[";
  first = true;
  for (const FlightDiagnostic& diag : diagnostics_) {
    if (!first) out += ',';
    first = false;
    std::snprintf(buf, sizeof(buf),
                  "{\"sequence\":%llu,\"trigger\":\"%s\","
                  "\"ewma_at_capture\":%.9f,\"recent\":[",
                  static_cast<unsigned long long>(diag.sequence),
                  diag.trigger.c_str(), diag.ewma_at_capture);
    out += buf;
    bool inner_first = true;
    for (const EpochStageTimings& t : diag.recent) {
      if (!inner_first) out += ',';
      inner_first = false;
      AppendTimingsJson(&out, t);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace obs
}  // namespace rfid
