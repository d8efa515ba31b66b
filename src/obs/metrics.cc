#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>

#include "util/json.h"

namespace rfid {
namespace obs {

namespace {

std::atomic<bool> g_telemetry_enabled{true};
std::atomic<unsigned> g_next_thread_id{0};

// Formats a double the way Prometheus exposition expects: integral values
// without a trailing ".0" noise tail, everything else with enough digits
// to round-trip.
std::string FormatValue(double v) {
  if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
  if (std::isnan(v)) return "NaN";
  if (v == static_cast<double>(static_cast<int64_t>(v)) &&
      std::fabs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld",
                  static_cast<long long>(static_cast<int64_t>(v)));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// Bucket bound with a short stable rendering (1e-06, 2e-06, ...): %g keeps
// golden-output tests readable and locale-independent.
std::string FormatBound(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%g", v);
  return buf;
}

// JSON key for a (name, labels) series: `name` or `name{labels}`.
std::string SeriesKey(const std::string& name, const std::string& labels) {
  if (labels.empty()) return name;
  return name + "{" + labels + "}";
}

// Prometheus sample line: name{labels,extra} value. `extra` lets histogram
// rendering append le="..." to the user labels.
void AppendSample(std::string* out, const std::string& name,
                  const std::string& labels, const std::string& extra,
                  double value) {
  *out += name;
  if (!labels.empty() || !extra.empty()) {
    *out += '{';
    *out += labels;
    if (!labels.empty() && !extra.empty()) *out += ',';
    *out += extra;
    *out += '}';
  }
  *out += ' ';
  *out += FormatValue(value);
  *out += '\n';
}

}  // namespace

void SetTelemetryEnabled(bool enabled) {
  g_telemetry_enabled.store(enabled, std::memory_order_relaxed);
}

bool TelemetryEnabled() {
  return g_telemetry_enabled.load(std::memory_order_relaxed);
}

size_t MetricShardIndex() {
  thread_local const unsigned id =
      g_next_thread_id.fetch_add(1, std::memory_order_relaxed);
  return id & (kMetricShards - 1);
}

uint64_t Gauge::Encode(double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double Gauge::Decode(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double Histogram::BucketBound(int i) {
  return kFirstBoundSeconds * static_cast<double>(uint64_t{1} << i);
}

int Histogram::BucketIndex(double seconds) {
  if (!(seconds > kFirstBoundSeconds)) return 0;
  // Smallest i with seconds <= bound(i); ilogb of the ratio gives the
  // floor-log2, +1 unless seconds sits exactly on a bound.
  const double ratio = seconds / kFirstBoundSeconds;
  int i = std::ilogb(ratio);
  if (BucketBound(std::min(i, kNumBounds - 1)) < seconds) ++i;
  return std::min(i, kNumBounds);
}

Histogram::Snapshot Histogram::Snap() const {
  Snapshot snap;
  uint64_t sum_ns = 0;
  for (const Cell& cell : cells_) {
    for (int b = 0; b < kNumBuckets; ++b) {
      snap.buckets[b] += cell.buckets[b].load(std::memory_order_relaxed);
    }
    sum_ns += cell.sum_ns.load(std::memory_order_relaxed);
  }
  for (int b = 0; b < kNumBuckets; ++b) snap.count += snap.buckets[b];
  snap.sum_seconds = static_cast<double>(sum_ns) * 1e-9;
  return snap;
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();  // leaky singleton
  return *registry;
}

// The kind is pinned at first registration (it names the family's # TYPE
// line); a later Get* of a different kind on the same key must not flip it,
// or the first-registered series silently disappears from every render.

Counter* MetricsRegistry::GetCounter(const std::string& name,
                                     const std::string& labels) {
  MutexLock lock(mu_);
  Entry& entry = entries_[Key(name, labels)];
  if (!entry.counter) {
    if (entry.empty()) entry.kind = Kind::kCounter;
    entry.counter.reset(new Counter());
  }
  return entry.counter.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name,
                                 const std::string& labels) {
  MutexLock lock(mu_);
  Entry& entry = entries_[Key(name, labels)];
  if (!entry.gauge) {
    if (entry.empty()) entry.kind = Kind::kGauge;
    entry.gauge.reset(new Gauge());
  }
  return entry.gauge.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name,
                                         const std::string& labels) {
  MutexLock lock(mu_);
  Entry& entry = entries_[Key(name, labels)];
  if (!entry.histogram) {
    if (entry.empty()) entry.kind = Kind::kHistogram;
    entry.histogram.reset(new Histogram());
  }
  return entry.histogram.get();
}

std::string MetricsRegistry::RenderPrometheus() const {
  MutexLock lock(mu_);
  std::string out;
  std::string last_family;
  // Every non-null object in an entry is rendered (not just the pinned
  // kind): a mixed-kind registration collision keeps both series visible.
  for (const auto& kv : entries_) {
    const std::string& name = kv.first.first;
    const std::string& labels = kv.first.second;
    const Entry& entry = kv.second;
    if (name != last_family) {
      out += "# TYPE " + name + ' ';
      switch (entry.kind) {
        case Kind::kCounter:
          out += "counter";
          break;
        case Kind::kGauge:
          out += "gauge";
          break;
        case Kind::kHistogram:
          out += "histogram";
          break;
      }
      out += '\n';
      last_family = name;
    }
    if (entry.counter) {
      AppendSample(&out, name, labels, "",
                   static_cast<double>(entry.counter->Value()));
    }
    if (entry.gauge) {
      AppendSample(&out, name, labels, "", entry.gauge->Value());
    }
    if (entry.histogram) {
      const Histogram::Snapshot snap = entry.histogram->Snap();
      uint64_t cumulative = 0;
      for (int b = 0; b < Histogram::kNumBounds; ++b) {
        cumulative += snap.buckets[b];
        AppendSample(&out, name + "_bucket", labels,
                     "le=\"" + FormatBound(Histogram::BucketBound(b)) + "\"",
                     static_cast<double>(cumulative));
      }
      AppendSample(&out, name + "_bucket", labels, "le=\"+Inf\"",
                   static_cast<double>(snap.count));
      AppendSample(&out, name + "_sum", labels, "", snap.sum_seconds);
      AppendSample(&out, name + "_count", labels, "",
                   static_cast<double>(snap.count));
    }
  }
  return out;
}

std::string MetricsRegistry::RenderJson() const {
  MutexLock lock(mu_);
  json::Writer w;
  w.BeginObject().Key("counters").BeginObject();
  for (const auto& [key, entry] : entries_) {
    if (!entry.counter) continue;
    w.Key(SeriesKey(key.first, key.second)).Uint(entry.counter->Value());
  }
  w.EndObject().Key("gauges").BeginObject();
  for (const auto& [key, entry] : entries_) {
    if (!entry.gauge) continue;
    w.Key(SeriesKey(key.first, key.second)).Double(entry.gauge->Value());
  }
  w.EndObject().Key("histograms").BeginObject();
  for (const auto& [key, entry] : entries_) {
    if (!entry.histogram) continue;
    const Histogram::Snapshot snap = entry.histogram->Snap();
    w.Key(SeriesKey(key.first, key.second)).BeginObject();
    w.Key("count").Uint(snap.count);
    w.Key("sum_seconds").Double(snap.sum_seconds);
    w.Key("buckets").BeginArray();
    for (uint64_t bucket : snap.buckets) w.Uint(bucket);
    w.EndArray().EndObject();
  }
  w.EndObject().EndObject();
  return w.str();
}

}  // namespace obs
}  // namespace rfid
