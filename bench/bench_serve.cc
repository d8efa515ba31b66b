// Serving-layer throughput: aggregate readings/second of the sharded
// streaming server over many concurrent warehouse sites, swept across
// shard counts and pump-pool widths.
//
// Each site is an independent warehouse trace flattened to raw records
// (location reports + readings). All records are pre-generated and
// pre-routed into the shard queues, then one timed Pump()+Flush() processes
// everything — so the measurement is the runtime's processing path (routing,
// queues, watermark synchronization, inference, subscription dispatch), not
// trace generation. A raw subscription with a trivial callback is registered
// so dispatch cost is included.
//
// Expected shape: aggregate readings/s roughly flat in shard count at one
// thread (shards only partition work), scaling with threads up to the host's
// cores because shards are independent. Results land in BENCH_serve.json.
#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/server.h"
#include "sim/trace.h"
#include "util/stopwatch.h"

namespace rfid {
namespace {

struct SiteTraffic {
  SiteId site = 0;
  WarehouseLayout layout;
  std::vector<ServeRecord> records;
};

SiteTraffic MakeSiteTraffic(SiteId site, int objects, uint64_t seed) {
  WarehouseConfig wc;
  wc.num_shelves = 2;
  wc.shelf_length = 8.0;
  wc.objects_per_shelf = (objects + 1) / 2;
  wc.shelf_tags_per_shelf = 2;
  auto layout = BuildWarehouse(wc);
  RobotConfig robot;
  robot.rounds = 1;
  ConeSensorModel sensor;
  TraceGenerator gen(layout.value(), robot, {}, sensor, seed);
  const SimulatedTrace trace = gen.Generate();

  SiteTraffic traffic;
  traffic.site = site;
  traffic.layout = layout.value();
  for (const SimEpoch& epoch : trace.epochs) {
    const SyncedEpoch& obs = epoch.observations;
    if (obs.has_location) {
      ReaderLocationReport report;
      report.time = obs.time;
      report.location = obs.reported_location;
      traffic.records.push_back(ServeRecord::Location(site, report));
    }
    for (TagId tag : obs.tags) {
      traffic.records.push_back(ServeRecord::Reading(site, {obs.time, tag}));
    }
  }
  return traffic;
}

struct RunResult {
  double wall_seconds = 0.0;
  uint64_t records = 0;
  double readings = 0.0;
  uint64_t events = 0;
  Status diagnostics;  ///< Outcome of the bundle dump, when one was asked for.
};

/// `telemetry` flips both the metrics/latency switch and the span tracer
/// around the run (for the overhead comparison; the sweep runs with
/// everything on — that is the shipping configuration). `bundle_dir`, when
/// set, quarantines one malformed record after the timed section and dumps
/// a full diagnostics bundle there (the CI artifact).
RunResult RunServer(const std::vector<SiteTraffic>& traffic, int num_shards,
                    int num_threads, bool telemetry = true,
                    const char* bundle_dir = nullptr) {
  obs::SetTelemetryEnabled(telemetry);
  obs::Tracer::Default().Clear();
  obs::Tracer::Default().SetEnabled(telemetry);
  ServeConfig config;
  config.num_shards = num_shards;
  config.num_threads = num_threads;
  config.epoch_seconds = 1.0;
  config.max_lateness_seconds = 2.0;
  // Large enough to pre-stage every record: the timed section measures
  // processing, not producer/consumer interleaving.
  size_t total_records = 0;
  for (const auto& t : traffic) total_records += t.records.size();
  config.queue_capacity = total_records + 1;
  config.pump_batch = 512;
  config.engine.factored.num_reader_particles = 50;
  config.engine.factored.num_object_particles = 400;
  config.engine.factored.seed = 71;
  config.engine.emitter.delay_seconds = 10.0;

  std::vector<SiteSpec> specs;
  specs.reserve(traffic.size());
  for (const auto& t : traffic) {
    specs.push_back({t.site, MakeWorldModel(t.layout,
                                            std::make_unique<ConeSensorModel>())});
  }
  auto server = StreamingServer::Create(std::move(specs), config);
  if (!server.ok()) {
    std::fprintf(stderr, "server create failed: %s\n",
                 server.status().ToString().c_str());
    RunResult failed;
    if (bundle_dir != nullptr) failed.diagnostics = server.status();
    return failed;
  }
  std::atomic<uint64_t> events{0};
  server.value()->bus().SubscribeEvents(
      [&events](SiteId, const LocationEvent&) {
        events.fetch_add(1, std::memory_order_relaxed);
      });

  for (const auto& t : traffic) {
    for (const ServeRecord& record : t.records) {
      server.value()->Ingest(record);
    }
  }

  Stopwatch watch;
  server.value()->Pump();
  server.value()->Flush();
  RunResult result;
  result.wall_seconds = watch.ElapsedSeconds();
  const ServerStatsSnapshot stats = server.value()->Stats();
  result.records = stats.TotalRecordsProcessed();
  result.readings = stats.TotalReadingsProcessed();
  result.events = events.load();
  if (bundle_dir != nullptr) {
    // After the timed section: one malformed record exercises the
    // quarantine path so the bundle carries a dead-letter spill and a
    // "quarantine" flight capture alongside the metrics and trace.
    server.value()->Ingest(ServeRecord::Reading(
        traffic.front().site,
        {std::numeric_limits<double>::quiet_NaN(), 0}));
    server.value()->Pump();
    result.diagnostics = server.value()->DumpDiagnostics(bundle_dir);
    if (!result.diagnostics.ok()) {
      std::fprintf(stderr, "diagnostics dump failed: %s\n",
                   result.diagnostics.ToString().c_str());
    }
  }
  obs::Tracer::Default().SetEnabled(false);
  obs::SetTelemetryEnabled(true);
  return result;
}

/// One telemetry-on/off pair over the fixed overhead workload (2 shards x 2
/// threads). Runs alternate between the two sides, starting with the
/// telemetry-on side when `on_first`, until each side's timed sections cover
/// at least `min_seconds`; host-speed drift then lands on both sides alike.
/// Returns false when a run fails.
bool MeasureOverheadPair(const std::vector<SiteTraffic>& traffic,
                         bool on_first, double min_seconds,
                         double* on_records_per_sec,
                         double* off_records_per_sec) {
  double wall[2] = {0.0, 0.0};  // Indexed by telemetry on.
  uint64_t records[2] = {0, 0};
  bool telemetry = on_first;
  while (wall[0] < min_seconds || wall[1] < min_seconds) {
    const RunResult run = RunServer(traffic, 2, 2, telemetry);
    if (run.wall_seconds <= 0) return false;
    wall[telemetry] += run.wall_seconds;
    records[telemetry] += run.records;
    telemetry = !telemetry;
  }
  *on_records_per_sec = static_cast<double>(records[1]) / wall[1];
  *off_records_per_sec = static_cast<double>(records[0]) / wall[0];
  return true;
}

/// Linear-interpolation quantile of an ascending-sorted, non-empty vector.
double SortedQuantile(const std::vector<double>& sorted, double q) {
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace
}  // namespace rfid

int main() {
  using namespace rfid;
  bench::PrintHeader(
      "Serving layer: aggregate readings/second, shards x threads",
      "ROADMAP north star (multi-site serving; no paper counterpart)");

  const int sites = bench::FullScale() ? 16 : 8;
  const int objects_per_site = bench::FullScale() ? 100 : 40;
  std::vector<SiteTraffic> traffic;
  for (int s = 0; s < sites; ++s) {
    traffic.push_back(MakeSiteTraffic(static_cast<SiteId>(s + 1),
                                      objects_per_site,
                                      7100 + static_cast<uint64_t>(s)));
  }
  size_t total_records = 0;
  for (const auto& t : traffic) total_records += t.records.size();
  std::printf("%d sites, %d objects/site, %zu records total\n\n", sites,
              objects_per_site, total_records);

  TableWriter table({"shards", "threads", "records_per_sec",
                     "readings_per_sec", "events", "wall_seconds"});
  bench::BenchJson json("serve");
  for (const int shards : {1, 2, 4, 8}) {
    for (const int threads : {1, 2, 4}) {
      const RunResult run = RunServer(traffic, shards, threads);
      if (run.wall_seconds <= 0) continue;
      const double records_per_sec =
          static_cast<double>(run.records) / run.wall_seconds;
      const double readings_per_sec = run.readings / run.wall_seconds;
      (void)table.AddRow({std::to_string(shards), std::to_string(threads),
                          FormatDouble(records_per_sec, 0),
                          FormatDouble(readings_per_sec, 0),
                          std::to_string(run.events),
                          FormatDouble(run.wall_seconds, 3)});
      json.BeginRow();
      json.Add("sites", sites);
      json.Add("objects_per_site", objects_per_site);
      json.Add("shards", shards);
      json.Add("threads", threads);
      json.Add("records", run.records);
      json.Add("records_per_sec", records_per_sec);
      json.Add("readings_per_sec", readings_per_sec);
      json.Add("events", static_cast<size_t>(run.events));
      json.Add("wall_seconds", run.wall_seconds);
    }
  }
  bench::PrintTable(table);

  // Instrumentation overhead: the same fixed workload with metrics latency
  // sampling + span tracing enabled vs disabled, as kOverheadPairs paired
  // trials. Within a pair the two sides' runs interleave until each covers
  // at least kOverheadSideSeconds of timed processing, and the side that
  // runs first alternates from pair to pair, so machine-load drift hits
  // both sides instead of biasing either. Every pair's on/off ratio lands
  // in BENCH_serve.json (configuration "obs-overhead-pair"), with their
  // median and IQR in the "obs-overhead" row; CI gates the median (see
  // PERF.md).
  constexpr int kOverheadPairs = 9;
  constexpr double kOverheadSideSeconds = 2.0;
  std::vector<double> ratios;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    const bool on_first = pair % 2 == 1;
    double on = 0.0, off = 0.0;
    if (!MeasureOverheadPair(traffic, on_first, kOverheadSideSeconds, &on,
                             &off)) {
      continue;
    }
    ratios.push_back(on / off);
    json.BeginRow();
    json.Add("configuration", "obs-overhead-pair");
    json.Add("pair", pair);
    json.Add("first", on_first ? "on" : "off");
    json.Add("shards", 2);
    json.Add("threads", 2);
    json.Add("off_records_per_sec", off);
    json.Add("on_records_per_sec", on);
    json.Add("ratio", on / off);
  }
  if (!ratios.empty()) {
    std::vector<double> sorted = ratios;
    std::sort(sorted.begin(), sorted.end());
    const double median = SortedQuantile(sorted, 0.5);
    const double iqr =
        SortedQuantile(sorted, 0.75) - SortedQuantile(sorted, 0.25);
    json.BeginRow();
    json.Add("configuration", "obs-overhead");
    json.Add("shards", 2);
    json.Add("threads", 2);
    json.Add("pairs", ratios.size());
    json.Add("ratio_median", median);
    json.Add("ratio_iqr", iqr);
    std::printf("\ninstrumentation overhead (2 shards x 2 threads, %zu "
                "interleaved pairs of >= %.1f s a side): on/off ratio median "
                "%.4f, IQR %.4f\n",
                ratios.size(), kOverheadSideSeconds, median, iqr);
  }

  // A complete post-mortem bundle as a CI artifact: metrics scrape, trace,
  // stats, flight records and a dead-letter spill from a real run.
  const RunResult sample = RunServer(traffic, 2, 2, /*telemetry=*/true,
                                     "diagnostics_sample");
  if (sample.diagnostics.ok()) {
    std::printf("wrote diagnostics_sample/ (post-mortem bundle)\n");
  }

  bench::WriteBenchJson(json, "serve");
  std::printf("note: shards partition sites; threads set the pump pool "
              "width. Run with RFID_FULL_SCALE=1 for 16 sites x 100 "
              "objects.\n");
  return sample.diagnostics.ok() ? 0 : 1;
}
