#include "obs/trace.h"

#include <algorithm>

#include "util/json.h"

namespace rfid {
namespace obs {

namespace {

std::atomic<uint64_t> g_next_trace_tid{1};

}  // namespace

Tracer& Tracer::Default() {
  static Tracer* tracer = new Tracer();  // leaky singleton
  return *tracer;
}

Tracer::Ring* Tracer::RingForThisThread() {
  thread_local Ring* ring = nullptr;
  // A thread that outlives one Tracer and touches another would dangle;
  // there is only the leaky Default() instance, so the cached pointer is
  // safe for the process lifetime.
  if (ring == nullptr) {
    auto owned = std::unique_ptr<Ring>(new Ring());
    owned->tid = g_next_trace_tid.fetch_add(1, std::memory_order_relaxed);
    owned->events.resize(kDefaultRingCapacity);
    ring = owned.get();
    MutexLock lock(rings_mu_);
    rings_.push_back(std::move(owned));
  }
  return ring;
}

void Tracer::Record(const char* name, const char* category, uint64_t start_ns,
                    uint64_t dur_ns, const char* arg_name, uint64_t arg) {
  Ring* ring = RingForThisThread();
  const uint64_t slot =
      ring->head.load(std::memory_order_relaxed) % ring->events.size();
  TraceEvent& ev = ring->events[slot];
  ev.name = name;
  ev.category = category;
  ev.start_ns = start_ns;
  ev.dur_ns = dur_ns;
  ev.tid = ring->tid;
  ev.arg_name = arg_name;
  ev.arg = arg;
  ring->head.fetch_add(1, std::memory_order_relaxed);
}

std::string Tracer::DumpChromeJson() const {
  MutexLock lock(rings_mu_);
  json::Writer w;
  w.BeginObject().Key("traceEvents").BeginArray();
  for (const auto& ring : rings_) {
    const uint64_t head = ring->head.load(std::memory_order_relaxed);
    const uint64_t capacity = ring->events.size();
    const uint64_t count = std::min(head, capacity);
    const uint64_t begin = head - count;
    for (uint64_t i = begin; i < head; ++i) {
      const TraceEvent& ev = ring->events[i % capacity];
      w.BeginObject().Key("name").String(ev.name);
      w.Key("cat").String(ev.category);
      w.Key("ph").String("X");
      // Chrome trace timestamps are microseconds; keep sub-µs precision
      // with fractional values.
      w.Key("ts").Double(static_cast<double>(ev.start_ns) / 1e3);
      w.Key("dur").Double(static_cast<double>(ev.dur_ns) / 1e3);
      w.Key("pid").Int(1);
      w.Key("tid").Uint(ev.tid);
      if (ev.arg_name != nullptr) {
        w.Key("args").BeginObject().Key(ev.arg_name).Uint(ev.arg);
        w.EndObject();
      }
      w.EndObject();
    }
  }
  w.EndArray().EndObject();
  return w.str();
}

void Tracer::Clear() {
  MutexLock lock(rings_mu_);
  for (const auto& ring : rings_) {
    ring->head.store(0, std::memory_order_relaxed);
  }
}

size_t Tracer::EventCount() const {
  MutexLock lock(rings_mu_);
  size_t total = 0;
  for (const auto& ring : rings_) {
    total += static_cast<size_t>(std::min<uint64_t>(
        ring->head.load(std::memory_order_relaxed), ring->events.size()));
  }
  return total;
}

}  // namespace obs
}  // namespace rfid
