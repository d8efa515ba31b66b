// End-to-end serving benchmark: record in -> location event out through
// StreamingServer, with a per-layer split from a separate traced run.
//
//   perfbench --workload <warehouse|fleet> --seed <n>
//             --seconds <s> --trace <0|1> --work-dir <dir>
//
// Every run, traced or not, does the same work:
//   1. makes the workload's traffic from --seed with src/sim (not timed);
//   2. the main runs: closed-loop passes over the whole trace, each on a
//      fresh server, until --seconds have been measured, with the
//      benchmark's own spans off and the program in its shipped telemetry
//      defaults; they give the end-to-end metrics, scaled to a nominal host
//      speed (host_speed.h) and taken as each cycle's and each event's
//      median over the passes;
//   3. restores the first pass's last cut into fresh servers (restore_s),
//      then times back-to-back set-ups (setup_s);
//   4. the reference pass: feeds the same records through the layers
//      directly (StreamSynchronizer -> RfidInferenceEngine ->
//      SubscriptionBus) at another filter lane count than the main runs,
//      and requires each site's event stream to hash equal to theirs, so
//      every run checks each site's determinism across filter lane counts.
// With --trace 1 the run also repeats one pass with spans around every call
// into the server, drives the workload's open-loop ladder in driver mode,
// times the reference pass's layer calls, and prints the per-layer metrics
// instead of the end-to-end ones.
//
// The last line of stdout is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// See README.md for the workloads, metrics and the layer map.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "arith.h"
#include "host_speed.h"
#include "core/experiment.h"
#include "model/cone_sensor.h"
#include "serve/checkpoint.h"
#include "serve/server.h"
#include "sim/trace.h"
#include "stream/synchronizer.h"
#include "util/rng.h"
#include "util/simd.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

using rfid::SiteId;

constexpr double kEpochSeconds = 1.0;
constexpr double kMaxLatenessSeconds = 2.0;
/// Latency limit of the ladder rule on each rung's p99: one reader epoch.
/// An event later than that lags the very stream it describes.
constexpr double kLadderLimitMs = 1000.0;
/// Fresh servers restored from the last cut; restore_s is their median.
/// At least kRestoreMinRepeats, then more until kRestoreMinSeconds of
/// restores have been timed, so a cheap cut gets more samples; at most
/// kRestoreMaxRepeats.
constexpr int kRestoreMinRepeats = 9;
constexpr int kRestoreMaxRepeats = 64;
constexpr double kRestoreMinSeconds = 1.0;
/// Back-to-back set-ups timed after the main runs; setup_s is their median.
/// The servers of the passes and restores are not counted: their set-ups
/// run cold after heavy work, measured ~4x slower, and their number varies
/// with the run, so mixing them in would move the median.
constexpr int kSetupRepeats = 101;
/// Host probes taken after each restore and each set-up to scale it.
constexpr int kProbesPerRepeat = 5;
constexpr uint64_t kEngineSeed = 71;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Blocks until steady-clock time `due_ns` without spinning, so the
/// generator leaves the cores to the server (Main sets a 1 ns timer slack).
void SleepUntil(int64_t due_ns) {
  const std::chrono::steady_clock::time_point due{
      std::chrono::nanoseconds(due_ns)};
  while (std::chrono::steady_clock::now() < due) {
    std::this_thread::sleep_until(due);
  }
}

// ------------------------------------------------------------ workloads ----

struct WorkloadSpec {
  std::string name;
  int sites = 1;
  int shelves = 1;
  int objects_per_shelf = 1;
  double shelf_length = 10.0;
  /// Robot rounds per site trace: one pass of the closed loop.
  int rounds = 1;
  int reader_particles = 100;
  int object_particles = 1000;
  bool compression = false;
  int shards = 1;
  /// Registers the two continuous queries beside the raw event stream.
  bool queries = false;
  /// Offered rates (records/s) of the open-loop ladder the traced run
  /// drives in driver mode for half of --seconds, an equal share per rung
  /// (empty = no ladder).
  std::vector<double> ladder;
};

/// Filter lanes and pump lanes of every measured pass. On a shared 4-vCPU
/// host whose vCPUs lose up to a third of their time to the hypervisor, a
/// sweep or a filter epoch waits for its slowest lane, so more lanes
/// multiply that loss: over three runs of one fleet seed readings/s swung
/// 9.5k-21.5k at 3 pump lanes, 11.3k-15.2k at 2 and 9.3k-9.7k at 1; a
/// 2-lane warehouse filter moved p99 2.9-5.8 ms against 2.9-3.0 ms at 1.
constexpr int kLanes = 1;
/// Filter lanes of the reference pass: another count than the passes', so
/// every run checks each site's determinism across filter lane counts.
constexpr int kReferenceLanes = 2;

WorkloadSpec Warehouse() {
  // §V-D configuration: 2000 objects on 40 shelves x 50, index on, belief
  // compression after 8 unseen epochs. One robot round: events of a first
  // round cost ~1 ms, events of later rounds ~0.1 ms, because the filter
  // has localized and compressed the objects by then. With two rounds the
  // median fell at the edge between those modes and moved +-17% between
  // seeds, with three inside the fast mode and still +-19%; the median of
  // first-round events moved +-3%.
  WorkloadSpec w;
  w.name = "warehouse";
  w.sites = 1;
  w.shelves = 40;
  w.objects_per_shelf = 50;
  w.rounds = 1;
  w.reader_particles = 100;
  w.object_particles = 1000;
  w.compression = true;
  w.shards = 1;
  return w;
}

WorkloadSpec Fleet() {
  // Many small sites on 4 shards. A closed-loop event's latency is one
  // sweep: every site's filter epoch plus what ingest, the shard queues,
  // emit and dispatch add on top (attr.serve_share_of_latency_*).
  WorkloadSpec w;
  w.name = "fleet";
  w.sites = 32;
  w.shelves = 2;
  w.objects_per_shelf = 20;
  w.shelf_length = 8.0;
  w.rounds = 2;
  w.reader_particles = 50;
  w.object_particles = 400;
  w.shards = 4;
  w.queries = true;
  w.ladder = {5000.0, 10000.0, 15000.0, 20000.0};
  return w;
}

bool FindWorkload(const std::string& name, WorkloadSpec* out) {
  for (const WorkloadSpec& w : {Warehouse(), Fleet()}) {
    if (w.name == name) {
      *out = w;
      return true;
    }
  }
  return false;
}

// -------------------------------------------------------------- traffic ----

struct SiteTraffic {
  SiteId site = 0;
  rfid::WarehouseLayout layout;
  rfid::GroundTruth truth;
  std::vector<rfid::ServeRecord> records;  ///< Time-ordered.
  std::vector<double> times;               ///< records[i].Time().
};

struct Traffic {
  std::vector<SiteTraffic> sites;  ///< sites[i].site == i + 1.
  /// Every record as (site index, record index), merged by time.
  std::vector<std::pair<uint32_t, uint32_t>> merged;
  size_t total_records = 0;
};

uint64_t SiteSeed(uint64_t seed, size_t site_index) {
  uint64_t state = seed * 0x9E3779B97F4A7C15ULL + site_index;
  return rfid::SplitMix64(state);
}

rfid::ExperimentModelOptions ModelOptions() {
  rfid::ExperimentModelOptions options;
  options.motion.delta = {};
  options.motion.sigma = {0.05, 0.15, 0.0};
  return options;
}

SiteTraffic MakeSite(const WorkloadSpec& w, size_t index, int rounds,
                     uint64_t seed) {
  rfid::WarehouseConfig wc;
  wc.num_shelves = w.shelves;
  wc.objects_per_shelf = w.objects_per_shelf;
  wc.shelf_length = w.shelf_length;
  wc.shelf_tags_per_shelf = 2;
  auto layout = rfid::BuildWarehouse(wc);
  if (!layout.ok()) {
    std::fprintf(stderr, "perfbench: warehouse layout failed: %s\n",
                 layout.status().ToString().c_str());
    std::exit(2);
  }
  rfid::RobotConfig robot;
  robot.rounds = rounds;
  rfid::ConeSensorModel sensor;
  rfid::TraceGenerator gen(layout.value(), robot, {}, sensor,
                           SiteSeed(seed, index));
  rfid::SimulatedTrace trace = gen.Generate();

  SiteTraffic t;
  t.site = static_cast<SiteId>(index + 1);
  t.layout = layout.value();
  t.truth = trace.truth;
  for (const rfid::SimEpoch& epoch : trace.epochs) {
    const rfid::SyncedEpoch& obs = epoch.observations;
    if (obs.has_location) {
      rfid::ReaderLocationReport report;
      report.time = obs.time;
      report.location = obs.reported_location;
      t.records.push_back(rfid::ServeRecord::Location(t.site, report));
    }
    for (rfid::TagId tag : obs.tags) {
      t.records.push_back(rfid::ServeRecord::Reading(t.site, {obs.time, tag}));
    }
  }
  t.times.reserve(t.records.size());
  for (const auto& r : t.records) t.times.push_back(r.Time());
  return t;
}

/// Records the ladder offers over `seconds`.
size_t LadderRecords(const WorkloadSpec& w, double seconds) {
  const double rung_seconds = seconds / static_cast<double>(w.ladder.size());
  size_t total = 0;
  for (const double rate : w.ladder) {
    total += static_cast<size_t>(std::llround(rate * rung_seconds));
  }
  return total;
}

/// Every site's trace over `rounds` robot rounds, plus the time-merged
/// order of all records.
Traffic MakeTraffic(const WorkloadSpec& w, uint64_t seed, int rounds) {
  Traffic traffic;
  for (int i = 0; i < w.sites; ++i) {
    traffic.sites.push_back(MakeSite(w, static_cast<size_t>(i), rounds, seed));
    traffic.total_records += traffic.sites.back().records.size();
  }
  traffic.merged.reserve(traffic.total_records);
  for (size_t s = 0; s < traffic.sites.size(); ++s) {
    for (size_t i = 0; i < traffic.sites[s].records.size(); ++i) {
      traffic.merged.emplace_back(static_cast<uint32_t>(s),
                                  static_cast<uint32_t>(i));
    }
  }
  std::sort(traffic.merged.begin(), traffic.merged.end(),
            [&traffic](const auto& a, const auto& b) {
              const double ta = traffic.sites[a.first].times[a.second];
              const double tb = traffic.sites[b.first].times[b.second];
              return std::tie(ta, a.first, a.second) <
                     std::tie(tb, b.first, b.second);
            });
  return traffic;
}

/// Rounds that give the ladder enough records: one round of the first site
/// is measured, then every site gets a margin over its share.
int LadderRounds(const WorkloadSpec& w, uint64_t seed, double seconds) {
  const SiteTraffic probe = MakeSite(w, 0, 1, seed);
  const double per_site =
      static_cast<double>(LadderRecords(w, seconds)) / w.sites;
  return 1 + static_cast<int>(std::ceil(
                 1.3 * per_site /
                 static_cast<double>(std::max<size_t>(1, probe.records.size()))));
}

// ---------------------------------------------------------------- spans ----

/// The benchmark's own trace: spans around its calls into the program, kept
/// in memory until exit. Recorded from the generator thread only.
class SpanLog {
 public:
  enum Name : uint8_t {
    kRun,
    kCreate,
    kIngest,
    kPump,
    kStart,
    kStop,
    kFlush,
    kCheckpoint,
    kRestore,
    kSynchronize,
    kProcessEpoch,
    kTakeEvents,
    kDispatch,
    kNumNames
  };
  static const char* NameOf(int n) {
    static const char* const kNames[kNumNames] = {
        "run",        "server.create", "serve.ingest",
        "serve.pump", "serve.start",   "serve.stop",
        "serve.flush", "serve.checkpoint", "serve.restore",
        "stream.synchronize", "engine.process_epoch", "engine.take_events",
        "bus.dispatch"};
    return kNames[n];
  }

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  int32_t Begin(Name name, int32_t parent = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, NowNs(), 0});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t id) {
    if (id >= 0) spans_[static_cast<size_t>(id)].end_ns = NowNs();
  }

  size_t Count(Name name) const {
    size_t n = 0;
    for (const Span& s : spans_) n += s.name == name ? 1 : 0;
    return n;
  }
  double TotalMs(Name name) const {
    int64_t ns = 0;
    for (const Span& s : spans_) {
      if (s.name == name) ns += s.end_ns - s.start_ns;
    }
    return Ms(ns);
  }
  std::vector<double> DurationsMs(Name name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name) out.push_back(Ms(s.end_ns - s.start_ns));
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  /// Per-name self time: span durations minus the time their direct children
  /// cover (children of one generator thread never overlap).
  std::vector<double> SelfMs() const {
    std::vector<int64_t> self(kNumNames, 0);
    for (const Span& s : spans_) {
      const int64_t d = s.end_ns - s.start_ns;
      self[s.name] += d;
      if (s.parent >= 0) self[spans_[static_cast<size_t>(s.parent)].name] -= d;
    }
    std::vector<double> out;
    for (const int64_t ns : self) out.push_back(Ms(ns));
    return out;
  }

 private:
  struct Span {
    Name name;
    int32_t parent;
    int64_t start_ns;
    int64_t end_ns;
  };
  bool enabled_;
  std::vector<Span> spans_;
};

class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, SpanLog::Name name, int32_t parent = -1)
      : log_(log), id_(log->Begin(name, parent)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int32_t id() const { return id_; }

 private:
  SpanLog* log_;
  int32_t id_;
};

// ---------------------------------------------------------------- events ---

struct EventRecord {
  rfid::LocationEvent event;
  int64_t callback_ns = 0;
};

/// The benchmark's bus subscriber: one buffer per site, filled from
/// whichever pump lane dispatches that site.
class EventSink {
 public:
  explicit EventSink(size_t sites) : sites_(new PerSite[sites]), n_(sites) {}
  void Record(SiteId site, const rfid::LocationEvent& event) {
    const int64_t now = NowNs();
    PerSite& s = sites_[site - 1];
    std::lock_guard<std::mutex> lock(s.mu);
    s.events.push_back({event, now});
  }
  /// Call only once no pump can dispatch any more.
  std::vector<EventRecord> Take(size_t index) {
    std::lock_guard<std::mutex> lock(sites_[index].mu);
    return std::move(sites_[index].events);
  }
  size_t size() const { return n_; }

 private:
  struct PerSite {
    std::mutex mu;
    std::vector<EventRecord> events;
  };
  std::unique_ptr<PerSite[]> sites_;
  size_t n_;
};

/// Callback counts of the two continuous queries.
struct QueryCounts {
  std::atomic<uint64_t> updates{0};
  std::atomic<uint64_t> alerts{0};
};

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t HashEvent(uint64_t h, const rfid::LocationEvent& e) {
  h = Fnv(h, &e.time, sizeof e.time);
  h = Fnv(h, &e.tag, sizeof e.tag);
  h = Fnv(h, &e.location.x, sizeof e.location.x);
  h = Fnv(h, &e.location.y, sizeof e.location.y);
  return Fnv(h, &e.location.z, sizeof e.location.z);
}

constexpr uint64_t kFnvBasis = 0xcbf29ce484222325ULL;

uint64_t CombineSiteHashes(const std::vector<uint64_t>& site_hashes) {
  uint64_t h = kFnvBasis;
  for (const uint64_t s : site_hashes) h = Fnv(h, &s, sizeof s);
  return h;
}

// --------------------------------------------------------------- server ----

rfid::ServeConfig MakeServeConfig(const WorkloadSpec& w) {
  rfid::ServeConfig config;
  config.num_shards = w.shards;
  config.num_threads = kLanes;
  config.epoch_seconds = kEpochSeconds;
  config.max_lateness_seconds = kMaxLatenessSeconds;
  config.engine.factored.num_reader_particles = w.reader_particles;
  config.engine.factored.num_object_particles = w.object_particles;
  config.engine.factored.num_threads = kLanes;
  config.engine.factored.seed = kEngineSeed;
  if (w.compression) {
    config.engine.factored.compression.mode =
        rfid::CompressionMode::kUnseenEpochs;
    config.engine.factored.compression.compress_after_epochs = 8;
  }
  return config;
}

std::vector<rfid::SiteSpec> MakeSpecs(const Traffic& traffic) {
  std::vector<rfid::SiteSpec> specs;
  for (const SiteTraffic& t : traffic.sites) {
    specs.push_back({t.site, rfid::MakeWorldModel(
                                 t.layout,
                                 std::make_unique<rfid::ConeSensorModel>(),
                                 ModelOptions())});
  }
  return specs;
}

/// Subscriptions every server of a workload carries: the benchmark's raw
/// event sink, plus query 1 and query 2 when the workload runs queries.
void Subscribe(const WorkloadSpec& w, rfid::SubscriptionBus& bus,
               EventSink* sink, QueryCounts* queries) {
  bus.SubscribeEvents([sink](SiteId site, const rfid::LocationEvent& e) {
    sink->Record(site, e);
  });
  if (!w.queries) return;
  bus.SubscribeLocationUpdates(
      0.25, [queries](SiteId, const rfid::LocationEvent&) {
        queries->updates.fetch_add(1, std::memory_order_relaxed);
      });
  bus.SubscribeFireCode(
      /*window_seconds=*/30.0, /*weight_limit=*/150.0,
      [](rfid::TagId) { return 100.0; }, /*cell_size_feet=*/2.0,
      [queries](SiteId, const rfid::FireCodeAlert&) {
        queries->alerts.fetch_add(1, std::memory_order_relaxed);
      });
}

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(2);
}

/// Server::Create plus subscription registration, timed as one set-up into
/// `setup_s` when it is given.
std::unique_ptr<rfid::StreamingServer> CreateServer(
    const WorkloadSpec& w, const Traffic& traffic, EventSink* sink,
    QueryCounts* queries, std::vector<double>* setup_s, SpanLog* spans) {
  std::vector<rfid::SiteSpec> specs = MakeSpecs(traffic);
  const int64_t t0 = NowNs();
  ScopedSpan span(spans, SpanLog::kCreate);
  auto server = rfid::StreamingServer::Create(std::move(specs),
                                              MakeServeConfig(w));
  if (!server.ok()) Die("server create failed: " + server.status().ToString());
  Subscribe(w, server.value()->bus(), sink, queries);
  if (setup_s != nullptr) {
    setup_s->push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  }
  return std::move(server).value();
}

uint64_t Backlog(const rfid::ServerStatsSnapshot& stats) {
  uint64_t backlog = 0;
  for (const auto& shard : stats.shards) {
    backlog += shard.queue.pushed - shard.queue.popped;
  }
  return backlog;
}

/// failed_share numerator from public counters: Ingest() returning false is
/// counted by the caller; these are the server-side drops.
uint64_t ServerFailures(const rfid::ServerStatsSnapshot& stats) {
  uint64_t failed = stats.TotalDroppedLate() + stats.TotalRecordsShed() +
                    stats.checkpoint.failures;
  for (const auto& shard : stats.shards) {
    for (const auto& site : shard.sites) {
      failed += site.records_quarantined + site.records_dropped_parked;
    }
  }
  return failed;
}

// ------------------------------------------------------------- main run ----

/// What one pass of a workload through a server produced.
struct ServeRun {
  double wall_s = 0.0;
  double readings = 0.0;
  uint64_t records_offered = 0;
  uint64_t ingest_false = 0;
  uint64_t server_failed = 0;
  bool ops_ok = true;  ///< The last cut's Checkpoint() returned OK.
  /// Per site: records sent (a prefix of the site's records).
  std::vector<size_t> sent;
  /// Per site: events in dispatch order with their callback times.
  std::vector<std::vector<EventRecord>> events;
  /// Per site, per record: scheduled send time (ns), or -1 when unsent.
  std::vector<std::vector<int64_t>> send_ns;
  /// Per site, per record: ladder rung of the record (ladder runs).
  std::vector<std::vector<uint8_t>> rung_of;
  std::vector<Rung> ladder;
  std::vector<double> gen_lag_ms;  ///< Ladder runs: actual - scheduled.
  rfid::ServerStatsSnapshot stats;
  /// Pump-internal telemetry read from the server's metrics registry.
  double sweep_count = 0.0;
  double pump_records = 0.0;
  double weight_stage_s = 0.0;
  double pf_stage_s = 0.0;
  uint64_t query_updates = 0;
  uint64_t query_alerts = 0;
  /// Records the server had processed when the last cut was taken.
  uint64_t cut_records = 0;
  /// Closed-loop passes: wall seconds of each ingest + Pump() cycle, then
  /// of the final Flush(); they sum to wall_s.
  std::vector<double> step_s;
  /// Host probe times (ns), one after each cycle, outside the steps.
  std::vector<double> probe_ns;
  /// Traced closed-loop passes: one entry per ingest + Pump() cycle.
  std::vector<Cycle> cycles;
};

double CutBytes(const std::string& dir, const Traffic& traffic) {
  double bytes = 0.0;
  for (const SiteTraffic& t : traffic.sites) {
    rfid::CheckpointManifest manifest;
    if (!rfid::ReadSiteManifest(dir, t.site, &manifest).ok()) continue;
    std::error_code ec;
    const auto size = std::filesystem::file_size(
        rfid::SiteGenerationPath(dir, t.site, manifest.current), ec);
    if (!ec) bytes += static_cast<double>(size);
  }
  return bytes;
}

/// Filter stage seconds the server's pump lanes have recorded so far, summed
/// over lanes; `weight_s` receives the weight stage's share when given.
double FilterStageSeconds(rfid::StreamingServer& server,
                          double* weight_s = nullptr) {
  double total = 0.0;
  for (const char* stage :
       {"weight", "reader_resample", "remap_replay", "compress"}) {
    const std::string label = std::string("stage=\"") + stage + "\"";
    const double s = server.metrics()
                         .GetHistogram("rfid_stage_seconds", label)
                         ->Snap()
                         .sum_seconds;
    total += s;
    if (weight_s != nullptr && std::strcmp(stage, "weight") == 0) {
      *weight_s = s;
    }
  }
  return total;
}

void ReadPumpTelemetry(rfid::StreamingServer& server, ServeRun* run) {
  auto& metrics = server.metrics();
  run->sweep_count = static_cast<double>(
      metrics.GetHistogram("rfid_pump_sweep_seconds")->Snap().count);
  run->pump_records =
      static_cast<double>(metrics.GetCounter("rfid_pump_records_total")->Value());
  run->pf_stage_s = FilterStageSeconds(server, &run->weight_stage_s);
}

/// Reads the run's results off the server, after its measured phase; when
/// `last_cut` is set, also cuts the final state there for the restores.
void FinishRun(rfid::StreamingServer& server, EventSink& sink,
               const QueryCounts& queries, const std::string& last_cut,
               SpanLog* spans, ServeRun* run) {
  if (!last_cut.empty()) {
    rfid::Status st;
    {
      ScopedSpan span(spans, SpanLog::kCheckpoint);
      st = server.Checkpoint(last_cut);
    }
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: last cut failed: %s\n",
                   st.ToString().c_str());
      run->ops_ok = false;
    }
  }
  run->stats = server.Stats();
  run->cut_records = run->stats.TotalRecordsProcessed();
  run->readings = run->stats.TotalReadingsProcessed();
  run->server_failed = ServerFailures(run->stats);
  ReadPumpTelemetry(server, run);
  run->events.resize(sink.size());
  for (size_t s = 0; s < sink.size(); ++s) run->events[s] = sink.Take(s);
  run->query_updates = queries.updates.load();
  run->query_alerts = queries.alerts.load();
}

/// Closed loop: ingest one record time's records of every site, Pump()
/// inline, then the next record time; the whole trace once, then Flush().
/// Each cycle's wall time is kept; with spans on, its filter stage time too.
ServeRun RunClosedLoop(const WorkloadSpec& w, const Traffic& traffic,
                       const std::string& last_cut, SpanLog* spans) {
  EventSink sink(traffic.sites.size());
  QueryCounts queries;
  auto server = CreateServer(w, traffic, &sink, &queries, nullptr, spans);
  ServeRun run;
  run.sent.resize(traffic.sites.size());
  for (const SiteTraffic& t : traffic.sites) {
    run.send_ns.emplace_back(t.records.size(), -1);
    run.sent[t.site - 1] = t.records.size();
  }
  const auto& merged = traffic.merged;
  const int64_t t0 = NowNs();
  int64_t step_start = t0;
  auto end_step = [&run, &step_start]() {
    const int64_t now = NowNs();
    run.step_s.push_back(static_cast<double>(now - step_start) * 1e-9);
    step_start = now;
    return now;
  };
  {
    ScopedSpan root(spans, SpanLog::kRun);
    size_t k = 0;
    double filter_s = 0.0;
    while (k < merged.size()) {
      const double time = traffic.sites[merged[k].first].times[merged[k].second];
      Cycle cycle;
      cycle.start_ns = NowNs();
      for (; k < merged.size(); ++k) {
        const auto [s, i] = merged[k];
        if (traffic.sites[s].times[i] != time) break;
        run.send_ns[s][i] = NowNs();
        ScopedSpan span(spans, SpanLog::kIngest, root.id());
        if (!server->Ingest(traffic.sites[s].records[i])) ++run.ingest_false;
      }
      {
        ScopedSpan span(spans, SpanLog::kPump, root.id());
        server->Pump();
      }
      cycle.end_ns = end_step();
      run.probe_ns.push_back(static_cast<double>(TimeHostProbe()));
      step_start = NowNs();
      if (spans->enabled()) {
        const double total = FilterStageSeconds(*server);
        cycle.filter_s = total - filter_s;
        filter_s = total;
        run.cycles.push_back(cycle);
      }
    }
    {
      ScopedSpan span(spans, SpanLog::kFlush, root.id());
      server->Flush();
    }
    end_step();
  }
  for (const double step : run.step_s) run.wall_s += step;
  run.records_offered = merged.size();
  FinishRun(*server, sink, queries, last_cut, spans, &run);
  return run;
}

/// The open-loop ladder in driver mode (Start/Stop): records go out in
/// time-merged order on the ladder's schedule whether or not the server
/// keeps up, each rung for an equal share of `seconds`. Readers report once
/// per epoch, so all records of one record time, across all sites, are due
/// together with the first of them.
ServeRun RunLadder(const WorkloadSpec& w, const Traffic& traffic,
                   double seconds, SpanLog* spans) {
  EventSink sink(traffic.sites.size());
  QueryCounts queries;
  auto server = CreateServer(w, traffic, &sink, &queries, nullptr, spans);
  ServeRun run;

  const double rung_seconds = seconds / static_cast<double>(w.ladder.size());
  std::vector<int64_t> offset_ns;
  std::vector<uint8_t> rung_of_k;
  std::vector<size_t> rung_begin;
  for (size_t r = 0; r < w.ladder.size(); ++r) {
    rung_begin.push_back(offset_ns.size());
    const size_t n =
        static_cast<size_t>(std::llround(w.ladder[r] * rung_seconds));
    const double start_ns = static_cast<double>(r) * rung_seconds * 1e9;
    for (size_t j = 0; j < n; ++j) {
      offset_ns.push_back(static_cast<int64_t>(
          start_ns + static_cast<double>(j) * 1e9 / w.ladder[r]));
      rung_of_k.push_back(static_cast<uint8_t>(r));
    }
  }
  rung_begin.push_back(offset_ns.size());
  const size_t total = offset_ns.size();
  if (total > traffic.merged.size()) Die("traffic shorter than the ladder");
  auto time_of = [&traffic](size_t k) {
    const auto [s, i] = traffic.merged[k];
    return traffic.sites[s].times[i];
  };
  for (size_t k = 1; k < total; ++k) {
    if (time_of(k) == time_of(k - 1)) offset_ns[k] = offset_ns[k - 1];
  }

  run.sent.assign(traffic.sites.size(), 0);
  run.send_ns.resize(traffic.sites.size());
  run.rung_of.resize(traffic.sites.size());
  for (size_t s = 0; s < traffic.sites.size(); ++s) {
    run.send_ns[s].assign(traffic.sites[s].records.size(), -1);
    run.rung_of[s].assign(traffic.sites[s].records.size(), 0);
  }
  run.gen_lag_ms.reserve(total);
  run.ladder.resize(w.ladder.size());
  std::vector<uint64_t> processed_at(w.ladder.size() + 1, 0);
  std::vector<int64_t> wall_at(w.ladder.size() + 1, 0);

  {
    ScopedSpan start(spans, SpanLog::kStart);
    server->Start();
  }
  const int64_t t0 = NowNs() + 1'000'000;
  {
    ScopedSpan root(spans, SpanLog::kRun);
    wall_at[0] = NowNs();
    size_t rung = 0;
    for (size_t k = 0; k < total; ++k) {
      const int64_t due = t0 + offset_ns[k];
      SleepUntil(due);
      run.gen_lag_ms.push_back(Ms(NowNs() - due));
      const auto [s, i] = traffic.merged[k];
      run.send_ns[s][i] = due;
      run.rung_of[s][i] = static_cast<uint8_t>(rung);
      run.sent[s] = std::max<size_t>(run.sent[s], i + 1);
      {
        ScopedSpan span(spans, SpanLog::kIngest, root.id());
        if (!server->Ingest(traffic.sites[s].records[i])) ++run.ingest_false;
      }
      if (k + 1 == rung_begin[rung + 1]) {
        // The end of one rung is the start of the next.
        const auto stats = server->Stats();
        run.ladder[rung].backlog_end = Backlog(stats);
        processed_at[rung + 1] = stats.TotalRecordsProcessed();
        wall_at[rung + 1] = NowNs();
        if (++rung < w.ladder.size()) {
          run.ladder[rung].backlog_start = run.ladder[rung - 1].backlog_end;
        }
      }
    }
    {
      ScopedSpan span(spans, SpanLog::kStop, root.id());
      server->Stop();
    }
    ScopedSpan span(spans, SpanLog::kFlush, root.id());
    server->Flush();
  }
  run.wall_s = static_cast<double>(NowNs() - t0) * 1e-9;
  run.records_offered = total;
  for (size_t r = 0; r < w.ladder.size(); ++r) {
    run.ladder[r].offered_per_s = w.ladder[r];
    const double wall = static_cast<double>(wall_at[r + 1] - wall_at[r]) * 1e-9;
    run.ladder[r].processed_per_s =
        wall > 0 ? static_cast<double>(processed_at[r + 1] - processed_at[r]) /
                       wall
                 : 0.0;
  }
  FinishRun(*server, sink, queries, "", spans, &run);
  return run;
}

// --------------------------------------------------------- event checks ----

struct EventCheck {
  std::vector<uint64_t> site_hashes;
  size_t events = 0;
  double xy_error_ft = 0.0;
  bool truth_ok = true;
  /// Latency samples (ms), with the bus callback time and the ladder rung
  /// of each.
  std::vector<double> latency_ms;
  std::vector<int64_t> latency_callback_ns;
  std::vector<uint8_t> latency_rung;
};

EventCheck CheckEvents(const Traffic& traffic, const ServeRun& run) {
  EventCheck check;
  double xy_sum = 0.0;
  for (size_t s = 0; s < traffic.sites.size(); ++s) {
    const SiteTraffic& t = traffic.sites[s];
    uint64_t h = kFnvBasis;
    for (const EventRecord& rec : run.events[s]) {
      const rfid::LocationEvent& e = rec.event;
      h = HashEvent(h, e);
      ++check.events;
      const auto truth = t.truth.PositionAt(e.tag, e.time);
      if (!truth.ok()) {
        check.truth_ok = false;
        continue;
      }
      xy_sum += std::hypot(e.location.x - truth.value().x,
                           e.location.y - truth.value().y);
      const size_t c = ClosingRecord(t.times, e.time, kEpochSeconds,
                                     kMaxLatenessSeconds);
      if (c >= run.sent[s] || run.send_ns[s][c] < 0) continue;
      check.latency_ms.push_back(Ms(rec.callback_ns - run.send_ns[s][c]));
      check.latency_callback_ns.push_back(rec.callback_ns);
      check.latency_rung.push_back(run.rung_of.empty() ? 0 : run.rung_of[s][c]);
    }
    check.site_hashes.push_back(h);
  }
  check.xy_error_ft = check.events > 0 ? xy_sum / check.events : 0.0;
  return check;
}

/// Frees a pass's per-event and per-record buffers once CheckEvents has
/// summarised them, so the run's memory does not grow with its pass count.
void ReleaseEvents(ServeRun* run) {
  std::vector<std::vector<EventRecord>>().swap(run->events);
  std::vector<std::vector<int64_t>>().swap(run->send_ns);
  std::vector<std::vector<uint8_t>>().swap(run->rung_of);
}

std::vector<double> SortedRungSamples(const EventCheck& check, size_t rung) {
  std::vector<double> out;
  for (size_t i = 0; i < check.latency_ms.size(); ++i) {
    if (check.latency_rung[i] == rung) out.push_back(check.latency_ms[i]);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// How much slower than nominal the host ran, from probe times (ns) taken
/// around a measurement: their median over kNominalProbeNs.
double HostFactor(std::vector<double> probe_ns) {
  return Median(std::move(probe_ns)) / kNominalProbeNs;
}

/// A run's passes folded into one: each cycle's and each event's median
/// over the passes, after pass p's times are divided by factor[p]. Every
/// pass repeats the same work, so a stall that hits one pass at one moment
/// drops out at that position.
struct MedianPass {
  double pass_s = 0.0;  ///< Sum of the cycles' medians; 0 when they differ.
  std::vector<double> latency_ms;  ///< Ascending; empty when they differ.
};

MedianPass MedianOverPasses(const std::vector<ServeRun>& runs,
                            const std::vector<EventCheck>& checks,
                            const std::vector<double>& factor) {
  std::vector<std::vector<double>> steps;
  std::vector<std::vector<double>> latency;
  for (size_t p = 0; p < runs.size(); ++p) {
    steps.push_back(runs[p].step_s);
    latency.push_back(checks[p].latency_ms);
    for (double& v : steps.back()) v /= factor[p];
    for (double& v : latency.back()) v /= factor[p];
  }
  MedianPass out;
  for (const double step : MedianAcrossPasses(steps)) out.pass_s += step;
  out.latency_ms = MedianAcrossPasses(latency);
  std::sort(out.latency_ms.begin(), out.latency_ms.end());
  return out;
}

/// Median probe time factor of `n` probes taken now.
double ProbeHost(int n) {
  std::vector<double> probe_ns;
  for (int i = 0; i < n; ++i) {
    probe_ns.push_back(static_cast<double>(TimeHostProbe()));
  }
  return HostFactor(std::move(probe_ns));
}

// ------------------------------------------------------- reference pass ----

/// The per-site layers driven directly, site after site, as SitePipeline
/// drives them: StreamSynchronizer::Push/PollWatermark -> ProcessEpoch ->
/// TakeEvents -> SubscriptionBus::Dispatch, Finish() at the end.
struct DirectRun {
  std::vector<uint64_t> site_hashes;
  size_t events = 0;
  size_t epochs = 0;
  /// Filter time per epoch (traced runs only), ascending.
  std::vector<double> epoch_filter_ms;
  double weight_s = 0.0;
  double reader_resample_s = 0.0;
  double remap_replay_s = 0.0;
  double compress_s = 0.0;
  double emit_s = 0.0;
  uint64_t particle_updates = 0;
  uint64_t dropped_late = 0;
};

DirectRun RunDirect(const WorkloadSpec& w, const Traffic& traffic,
                    const std::vector<size_t>& sent, SpanLog* spans) {
  DirectRun out;
  const rfid::ServeConfig serve = MakeServeConfig(w);
  ScopedSpan root(spans, SpanLog::kRun);
  for (size_t s = 0; s < traffic.sites.size(); ++s) {
    const SiteTraffic& t = traffic.sites[s];
    rfid::EngineConfig config = serve.engine;
    config.factored.num_threads = kReferenceLanes;
    uint64_t mix = t.site;
    config.factored.seed = serve.engine.factored.seed ^ rfid::SplitMix64(mix);
    auto engine = rfid::RfidInferenceEngine::Create(
        rfid::MakeWorldModel(t.layout,
                             std::make_unique<rfid::ConeSensorModel>(),
                             ModelOptions()),
        config);
    if (!engine.ok()) Die("engine create failed: " + engine.status().ToString());
    const auto* filter = dynamic_cast<const rfid::FactoredParticleFilter*>(
        &engine.value()->filter());
    rfid::SynchronizerConfig sc;
    sc.epoch_seconds = kEpochSeconds;
    sc.max_lateness_seconds = kMaxLatenessSeconds;
    rfid::StreamSynchronizer sync(sc);
    rfid::SubscriptionBus bus;
    EventSink sink(traffic.sites.size());
    QueryCounts queries;
    Subscribe(w, bus, &sink, &queries);
    std::vector<rfid::LocationEvent> events;

    auto process = [&](const std::vector<rfid::SyncedEpoch>& epochs) {
      for (const rfid::SyncedEpoch& epoch : epochs) {
        {
          ScopedSpan span(spans, SpanLog::kProcessEpoch, root.id());
          engine.value()->ProcessEpoch(epoch);
        }
        const auto& timings = engine.value()->last_epoch_timings();
        const auto& stages = filter->last_epoch_stages();
        ++out.epochs;
        out.emit_s += timings.emit_seconds;
        out.weight_s += stages.weight;
        out.reader_resample_s += stages.reader_resample;
        out.remap_replay_s += stages.remap_replay;
        out.compress_s += stages.compress;
        if (spans->enabled()) {
          out.epoch_filter_ms.push_back(timings.filter_seconds * 1e3);
        }
        {
          ScopedSpan span(spans, SpanLog::kTakeEvents, root.id());
          engine.value()->TakeEvents(&events);
        }
        if (!events.empty()) {
          ScopedSpan span(spans, SpanLog::kDispatch, root.id());
          bus.Dispatch(t.site, events);
        }
      }
    };
    for (size_t i = 0; i < sent[s]; ++i) {
      const rfid::ServeRecord& r = t.records[i];
      std::vector<rfid::SyncedEpoch> epochs;
      {
        ScopedSpan span(spans, SpanLog::kSynchronize, root.id());
        if (r.kind == rfid::ServeRecord::Kind::kReading) {
          sync.Push(r.reading);
        } else {
          sync.Push(r.location);
        }
        epochs = sync.PollWatermark();
      }
      process(epochs);
    }
    std::vector<rfid::SyncedEpoch> tail;
    {
      ScopedSpan span(spans, SpanLog::kSynchronize, root.id());
      tail = sync.Finish();
    }
    process(tail);

    out.particle_updates += filter->particle_updates();
    out.dropped_late += sync.dropped_late_records();
    uint64_t h = kFnvBasis;
    for (const EventRecord& rec : sink.Take(s)) {
      h = HashEvent(h, rec.event);
      ++out.events;
    }
    out.site_hashes.push_back(h);
  }
  std::sort(out.epoch_filter_ms.begin(), out.epoch_filter_ms.end());
  return out;
}

// --------------------------------------------------------------- output ----

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

/// Prints the spread of the repeated timings behind a median metric.
void PrintDistribution(const char* name, std::vector<double> values) {
  if (values.empty()) return;
  std::sort(values.begin(), values.end());
  std::printf("# %s: n=%zu min=%.6f p50=%.6f p90=%.6f max=%.6f\n", name,
              values.size(), values.front(), Percentile(values, 50.0),
              Percentile(values, 90.0), values.back());
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// The processed rate of the highest ladder rung that meets the ladder
/// rule, printing the rungs; 0 when none does.
double LadderSustainedRate(const WorkloadSpec& w, const Traffic& traffic,
                           const ServeRun& run) {
  const EventCheck check = CheckEvents(traffic, run);
  const uint64_t slack = static_cast<uint64_t>(w.shards) * 256;
  std::vector<Rung> ladder = run.ladder;
  for (size_t r = 0; r < ladder.size(); ++r) {
    const auto samples = SortedRungSamples(check, r);
    const double tail_p = HighestSupportedPercentile(samples.size());
    ladder[r].samples = samples.size();
    ladder[r].tail_ms = tail_p > 0 ? Percentile(samples, tail_p) : 0.0;
    // The server does not attribute failures to a rung; any failure fails
    // every rung.
    ladder[r].failed = run.ingest_false + run.server_failed;
    std::printf("# rung %zu: offered=%.0f/s processed=%.1f/s samples=%zu "
                "p%g=%.3fms backlog %" PRIu64 "->%" PRIu64 " %s\n",
                r, ladder[r].offered_per_s, ladder[r].processed_per_s,
                ladder[r].samples, tail_p, ladder[r].tail_ms,
                ladder[r].backlog_start, ladder[r].backlog_end,
                RungPasses(ladder[r], kLadderLimitMs, slack) ? "pass" : "FAIL");
  }
  const int best = HighestPassingRung(ladder, kLadderLimitMs, slack);
  return best >= 0 ? ladder[static_cast<size_t>(best)].processed_per_s : 0.0;
}

/// The per-layer metrics of a traced run. `traced` is a closed-loop pass
/// with spans on (plus the restore of its last cut) and `traced_check` its
/// events, `ladder` the open-loop ladder run when the workload has one, and
/// `direct` the reference pass timed layer by layer.
std::vector<Metric> LayerMetrics(const ServeRun& traced,
                                 const EventCheck& traced_check,
                                 const ServeRun* ladder,
                                 double ladder_sustained,
                                 const DirectRun& direct, const SpanLog& spans,
                                 double untraced_readings_per_s,
                                 double last_cut_bytes) {
  // Queue pressure only builds in the open loop, where records arrive
  // whether or not the pump keeps up.
  const ServeRun& queued = ladder != nullptr ? *ladder : traced;
  uint64_t blocked = 0;
  uint64_t high_water = 0;
  for (const auto& shard : queued.stats.shards) {
    blocked += shard.queue.blocked_pushes;
    high_water = std::max<uint64_t>(high_water, shard.queue.high_water);
  }
  size_t active = 0, compressed = 0, hibernated = 0, state_bytes = 0;
  for (const auto& shard : traced.stats.shards) {
    for (const auto& site : shard.sites) {
      active += site.active_objects;
      compressed += site.compressed_objects;
      hibernated += site.hibernated_objects;
      state_bytes += site.filter_memory_bytes;
    }
  }
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const std::vector<double> pump_ms = spans.DurationsMs(SpanLog::kPump);
  const std::vector<double> cuts = spans.DurationsMs(SpanLog::kCheckpoint);
  // Weight time at the passes' one filter lane over weight time at the
  // reference pass's lanes.
  const double lane_scaling = ratio(traced.weight_stage_s, direct.weight_s);
  std::vector<double> lag = ladder != nullptr ? ladder->gen_lag_ms
                                              : std::vector<double>{};
  std::sort(lag.begin(), lag.end());
  // Scaled to the nominal host speed, like readings_per_s.
  const double traced_rps =
      traced.readings / (traced.wall_s / HostFactor(traced.probe_ns));

  // Attribution of each workload's stated reason, from the traced pass's own
  // cycles. An event's latency lies inside the ingest + sweep cycle that
  // dispatched it; it gets that cycle's serve share, the part of the cycle
  // the filter stage time cannot fill even when spread over every pump lane
  // used. A percentile's share is the mean over the events at or beyond it.
  std::vector<double> event_share;
  for (const int64_t t : traced_check.latency_callback_ns) {
    const size_t c = CycleOf(traced.cycles, t);
    event_share.push_back(c < traced.cycles.size()
                              ? CycleServeShare(traced.cycles[c], kLanes)
                              : 0.0);
  }
  const double epoch_p50 = Percentile(direct.epoch_filter_ms, 50.0);
  const double epoch_p99 = Percentile(direct.epoch_filter_ms, 99.0);

  return {
      {"serve.ingest.calls",
       static_cast<double>(spans.Count(SpanLog::kIngest)), "count"},
      {"serve.ingest.busy_ms", spans.TotalMs(SpanLog::kIngest), "ms"},
      {"serve.queue.blocked_pushes", static_cast<double>(blocked), "count"},
      {"serve.queue.high_water", static_cast<double>(high_water), "count"},
      {"serve.pump.sweep_ms_p50", Percentile(pump_ms, 50.0), "ms"},
      {"serve.pump.sweep_ms_p99", Percentile(pump_ms, 99.0), "ms"},
      {"serve.pump.records_per_sweep",
       ratio(traced.pump_records, static_cast<double>(traced.sweep_count)),
       "count"},
      {"serve.checkpoint.cut_ms_p50", Percentile(cuts, 50.0), "ms"},
      {"serve.checkpoint.cut_ms_max", cuts.empty() ? 0.0 : cuts.back(), "ms"},
      {"serve.checkpoint.bytes_per_cut", last_cut_bytes, "bytes"},
      {"serve.restore_ms", spans.TotalMs(SpanLog::kRestore), "ms"},
      {"serve.dispatch_ms", spans.TotalMs(SpanLog::kDispatch), "ms"},
      {"serve.ladder.sustained_records_per_s", ladder_sustained, "1/s"},
      {"stream.emit_ms", direct.emit_s * 1e3, "ms"},
      {"stream.events", static_cast<double>(direct.events), "count"},
      {"stream.synchronize_ms", spans.TotalMs(SpanLog::kSynchronize), "ms"},
      {"stream.dropped_late",
       static_cast<double>(direct.dropped_late +
                           traced.stats.TotalDroppedLate()),
       "count"},
      {"pf.epochs", static_cast<double>(direct.epochs), "count"},
      {"pf.epoch_ms_p50", epoch_p50, "ms"},
      {"pf.epoch_ms_p99", epoch_p99, "ms"},
      {"pf.weight_ms", direct.weight_s * 1e3, "ms"},
      {"pf.reader_resample_ms", direct.reader_resample_s * 1e3, "ms"},
      {"pf.remap_replay_ms", direct.remap_replay_s * 1e3, "ms"},
      {"pf.compress_ms", direct.compress_s * 1e3, "ms"},
      {"pf.particle_updates", static_cast<double>(direct.particle_updates),
       "count"},
      {"pf.weight_ns_per_particle",
       ratio(direct.weight_s * 1e9,
             static_cast<double>(direct.particle_updates)),
       "ns"},
      {"pf.lane_scaling", lane_scaling, "ratio"},
      {"pf.parallel_efficiency",
       lane_scaling / kReferenceLanes, "ratio"},
      {"pf.active_objects", static_cast<double>(active), "count"},
      {"pf.compressed_objects", static_cast<double>(compressed), "count"},
      {"pf.hibernated_objects", static_cast<double>(hibernated), "count"},
      {"pf.state_mb", static_cast<double>(state_bytes) / (1024.0 * 1024.0),
       "MB"},
      {"obs.trace_overhead", ratio(traced_rps, untraced_readings_per_s),
       "ratio"},
      {"gen.lag_p99_ms", Percentile(lag, 99.0), "ms"},
      {"attr.pf_share_of_wall",
       ratio(traced.pf_stage_s / kLanes, traced.wall_s), "ratio"},
      {"attr.serve_share_of_latency_p50",
       ServeShareAtPercentile(traced_check.latency_ms, event_share, 50.0),
       "ratio"},
      {"attr.serve_share_of_latency_p99",
       ServeShareAtPercentile(traced_check.latency_ms, event_share, 99.0),
       "ratio"},
  };
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload warehouse|fleet "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string work_dir;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      workload_name = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      trace = std::atoi(value);
    } else if (key == "--work-dir") {
      work_dir = value;
    } else {
      return Usage();
    }
  }
  WorkloadSpec w;
  if (argc % 2 != 1 || !FindWorkload(workload_name, &w) || seconds <= 0 ||
      (trace != 0 && trace != 1) || work_dir.empty()) {
    return Usage();
  }
#ifndef NDEBUG
  Die("refusing to report from a build with assertions on (not Release)");
#endif
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    Die(std::string("refusing to report from a non-Release build: ") +
        PERFBENCH_BUILD_TYPE);
  }
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  // The ladder's generator sleeps between sends; the default 50 us timer
  // slack would add that much lateness to every send.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  std::printf("# perfbench workload=%s seed=%" PRIu64
              " seconds=%g trace=%d build=%s simd=%s nproc=%ld\n",
              w.name.c_str(), seed, seconds, trace, PERFBENCH_BUILD_TYPE,
              rfid::simd::kBackendName, nproc);

  std::error_code ec;
  std::filesystem::create_directories(work_dir, ec);
  if (ec) Die("cannot create work dir " + work_dir);
  const std::string main_ckpt = work_dir + "/ckpt-main";
  const std::string traced_ckpt = work_dir + "/ckpt-traced";
  std::filesystem::remove_all(main_ckpt, ec);
  std::filesystem::remove_all(traced_ckpt, ec);

  const int64_t process_start = NowNs();
  auto phase = [process_start](const char* name) {
    std::printf("# phase %-10s done at %.2f s\n", name,
                static_cast<double>(NowNs() - process_start) * 1e-9);
  };
  const Traffic traffic = MakeTraffic(w, seed, w.rounds);
  std::printf("# traffic: %d sites, %zu records\n", w.sites,
              traffic.total_records);
  phase("traffic");

  // ---- main runs: spans off, shipped telemetry defaults -----------------
  SpanLog off(false);
  std::vector<ServeRun> runs;
  std::vector<EventCheck> checks;
  const std::string last_cut = main_ckpt + "/last";
  const int64_t measure_start = NowNs();
  // Whole passes over the trace until --seconds have been measured. Each
  // pass is checked as soon as it ends and its event buffers are freed. The
  // peak RSS is read after the first pass: later passes repeat its work on
  // fresh servers, and the figure must not depend on how many fit.
  double peak_rss_mb = 0.0;
  do {
    runs.push_back(RunClosedLoop(w, traffic, runs.empty() ? last_cut : "",
                                 &off));
    checks.push_back(CheckEvents(traffic, runs.back()));
    ReleaseEvents(&runs.back());
    if (runs.size() == 1) peak_rss_mb = PeakRssMb();
  } while (static_cast<double>(NowNs() - measure_start) * 1e-9 < seconds);
  phase("main");

  bool correct = true;
  auto fail = [&correct](const std::string& why) {
    std::printf("# CHECK FAILED: %s\n", why.c_str());
    correct = false;
  };

  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Per pass readings/s, printed for the record.
  std::vector<double> pass_readings_per_s;
  for (size_t p = 0; p < runs.size(); ++p) {
    const ServeRun& run = runs[p];
    attempted += run.records_offered;
    failed += run.ingest_false + run.server_failed;
    pass_readings_per_s.push_back(run.readings / run.wall_s);
    if (!run.ops_ok) fail("the last cut returned an error");
    if (run.readings != runs.front().readings) {
      fail("passes of the same trace processed different readings");
    }
    const EventCheck& check = checks[p];
    if (!check.truth_ok) fail("an event names a tag without ground truth");
    if (check.site_hashes != checks.front().site_hashes) {
      fail("event streams differ between passes of the same trace");
    }
  }
  // The end-to-end timings are scaled to the nominal host speed, pass by
  // pass (host_speed.h), then take each cycle's and each event's median
  // over the passes.
  std::vector<double> host_factor;
  for (const ServeRun& run : runs) host_factor.push_back(HostFactor(run.probe_ns));
  const MedianPass scaled = MedianOverPasses(runs, checks, host_factor);
  const MedianPass unscaled =
      MedianOverPasses(runs, checks, std::vector<double>(runs.size(), 1.0));
  const std::vector<double>& latency = scaled.latency_ms;
  if (scaled.pass_s <= 0.0) fail("passes differ in their cycle count");
  if (latency.empty()) fail("passes differ in their latency samples");
  if (!PercentileSupported(latency.size(), 99.0)) {
    fail("too few latency samples per pass for p99 (" +
         std::to_string(latency.size()) + ")");
  }
  std::printf("# host factor per pass:");
  for (const double f : host_factor) std::printf(" %.4f", f);
  std::printf("\n# unscaled: readings_per_s=%.1f event_latency_p50_ms=%.4f"
              " event_latency_p99_ms=%.4f\n",
              runs.front().readings / unscaled.pass_s,
              Percentile(unscaled.latency_ms, 50.0),
              Percentile(unscaled.latency_ms, 99.0));
  std::printf("# readings/s per pass:");
  for (const double r : pass_readings_per_s) std::printf(" %.1f", r);
  std::printf("\n");
  const double readings_per_s = runs.front().readings / scaled.pass_s;
  const ServeRun& main_run = runs.front();
  const EventCheck& main_check = checks.front();

  // ---- restores of the last cut into fresh servers ---------------------
  std::vector<double> restore_s;
  double restore_total_s = 0.0;
  for (int r = 0; main_run.ops_ok && r < kRestoreMaxRepeats &&
                  (r < kRestoreMinRepeats || restore_total_s < kRestoreMinSeconds);
       ++r) {
    EventSink sink(traffic.sites.size());
    QueryCounts queries;
    auto fresh = CreateServer(w, traffic, &sink, &queries, nullptr, &off);
    const int64_t t0 = NowNs();
    const rfid::Status st = fresh->Restore(last_cut);
    const double took = static_cast<double>(NowNs() - t0) * 1e-9;
    restore_total_s += took;
    restore_s.push_back(took / ProbeHost(kProbesPerRepeat));
    if (!st.ok()) fail("restore failed: " + st.ToString());
    if (fresh->Stats().TotalRecordsProcessed() != main_run.cut_records) {
      fail("restored server lost records");
    }
  }

  std::vector<double> setup_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    EventSink sink(traffic.sites.size());
    QueryCounts queries;
    CreateServer(w, traffic, &sink, &queries, &setup_s, &off);
    setup_s.back() /= ProbeHost(kProbesPerRepeat);
  }
  PrintDistribution("setup_s", setup_s);
  PrintDistribution("restore_s", restore_s);
  phase("restore");

  // ---- reference pass (and the traced runs) -----------------------------
  SpanLog spans(trace == 1);
  ServeRun traced_run;
  EventCheck traced_check;
  ServeRun ladder_run;
  double ladder_sustained = 0.0;
  if (trace == 1) {
    const std::string traced_cut = traced_ckpt + "/last";
    traced_run = RunClosedLoop(w, traffic, traced_cut, &spans);
    traced_check = CheckEvents(traffic, traced_run);
    if (traced_check.site_hashes != main_check.site_hashes) {
      fail("traced serve run's event streams differ from the main run's");
    }
    EventSink sink(traffic.sites.size());
    QueryCounts queries;
    auto fresh = CreateServer(w, traffic, &sink, &queries, nullptr, &spans);
    rfid::Status st;
    {
      ScopedSpan span(&spans, SpanLog::kRestore);
      st = fresh->Restore(traced_cut);
    }
    if (!st.ok()) fail("traced restore failed: " + st.ToString());
    if (!w.ladder.empty()) {
      // The open-loop ladder has its own spans: it only feeds the queue,
      // generator and ladder metrics.
      const double ladder_seconds = seconds / 2;
      const Traffic ladder_traffic =
          MakeTraffic(w, seed, LadderRounds(w, seed, ladder_seconds));
      SpanLog ladder_spans(true);
      ladder_run = RunLadder(w, ladder_traffic, ladder_seconds, &ladder_spans);
      ladder_sustained = LadderSustainedRate(w, ladder_traffic, ladder_run);
      if (ladder_run.ingest_false + ladder_run.server_failed > 0) {
        fail("the ladder run failed operations");
      }
    }
  }
  phase("traced");
  const DirectRun direct = RunDirect(w, traffic, main_run.sent, &spans);
  phase("reference");
  if (direct.site_hashes != main_check.site_hashes) {
    fail("reference pass (layers called directly) and main run "
         "disagree on the event streams");
  }
  if (direct.events != main_check.events) {
    fail("reference pass event count differs");
  }
  if (main_check.events == 0) fail("no events");

  const uint64_t hash = CombineSiteHashes(main_check.site_hashes);
  std::printf("# events=%zu hash=%016" PRIx64 " reference_hash=%016" PRIx64
              " xy_error_ft=%.4f\n",
              main_check.events, hash,
              CombineSiteHashes(direct.site_hashes), main_check.xy_error_ft);

  // ---- end-to-end metrics -----------------------------------------------
  const std::vector<Metric> e2e = {
      {"readings_per_s", readings_per_s, "1/s"},
      {"event_latency_p50_ms", Percentile(latency, 50.0), "ms"},
      {"event_latency_p99_ms", Percentile(latency, 99.0), "ms"},
      {"xy_error_ft", main_check.xy_error_ft, "ft"},
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"restore_s", Median(restore_s), "s"},
  };

  // ---- per-layer metrics (traced run) -----------------------------------
  std::vector<Metric> layer;
  if (trace == 1) {
    layer = LayerMetrics(traced_run, traced_check,
                         w.ladder.empty() ? nullptr : &ladder_run,
                         ladder_sustained, direct, spans, readings_per_s,
                         CutBytes(traced_ckpt + "/last", traffic));
    const std::vector<double> self = spans.SelfMs();
    for (int n = 0; n < SpanLog::kNumNames; ++n) {
      if (self[static_cast<size_t>(n)] != 0.0) {
        std::printf("# span self time %-22s %12.3f ms\n", SpanLog::NameOf(n),
                    self[static_cast<size_t>(n)]);
      }
    }
  }

  // failed_share is 0 on a healthy run, so it is reported through the
  // result's "failed" / "attempted" fields rather than as a metric.
  std::printf("# attempted=%" PRIu64 " failed=%" PRIu64
              " failed_share=%.6f latency_samples=%zu passes=%zu"
              " query_updates=%" PRIu64 " query_alerts=%" PRIu64 "\n",
              attempted, failed,
              attempted > 0 ? static_cast<double>(failed) / attempted : 0.0,
              latency.size(), runs.size(), main_run.query_updates,
              main_run.query_alerts);
  for (const Metric& m : e2e) {
    std::printf("e2e   %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : layer) {
    std::printf("layer %-36s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::filesystem::remove_all(main_ckpt, ec);
  std::filesystem::remove_all(traced_ckpt, ec);

  const std::vector<Metric>& reported = trace == 1 ? layer : e2e;
  for (const Metric& m : reported) {
    if (!std::isfinite(m.value)) fail("metric " + m.name + " is not finite");
  }
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : reported) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
