// Serving-path observability: the slow-epoch flight recorder, the
// DumpDiagnostics post-mortem bundle (metrics, trace, flight records,
// dead-letter spill), the telemetry determinism invariant, and counter
// monotonicity across Stop()/Start().
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif

#include "core/experiment.h"
#include "model/cone_sensor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/diagnostics.h"
#include "serve/server.h"
#include "sim/trace.h"

namespace rfid {
namespace {

struct SiteTraffic {
  WarehouseLayout layout;
  std::vector<ServeRecord> records;
};

SiteTraffic MakeSiteTraffic(SiteId site, uint64_t seed) {
  WarehouseConfig wc;
  wc.num_shelves = 2;
  wc.shelf_length = 6.0;
  wc.objects_per_shelf = 4;
  wc.shelf_tags_per_shelf = 2;
  auto layout = BuildWarehouse(wc);
  EXPECT_TRUE(layout.ok());
  ConeSensorModel sensor;
  TraceGenerator gen(layout.value(), RobotConfig{}, {}, sensor, seed);
  const SimulatedTrace trace = gen.Generate();

  SiteTraffic traffic;
  traffic.layout = layout.value();
  for (const SimEpoch& epoch : trace.epochs) {
    const SyncedEpoch& obs = epoch.observations;
    if (obs.has_location) {
      ReaderLocationReport report;
      report.time = obs.time;
      report.location = obs.reported_location;
      report.has_heading = obs.has_heading;
      report.heading = obs.reported_heading;
      traffic.records.push_back(ServeRecord::Location(site, report));
    }
    for (TagId tag : obs.tags) {
      traffic.records.push_back(ServeRecord::Reading(site, {obs.time, tag}));
    }
  }
  return traffic;
}

ServeConfig SmallServeConfig() {
  ServeConfig config;
  config.num_shards = 1;
  config.num_threads = 1;
  config.epoch_seconds = 1.0;
  config.max_lateness_seconds = 2.0;
  config.engine.factored.num_reader_particles = 30;
  config.engine.factored.num_object_particles = 100;
  config.engine.factored.seed = 41;
  config.engine.emitter.delay_seconds = 5.0;
  return config;
}

WorldModel SiteModel(const SiteTraffic& traffic) {
  return MakeWorldModel(traffic.layout, std::make_unique<ConeSensorModel>());
}

struct EventLog {
  std::mutex mu;
  std::map<SiteId, std::vector<LocationEvent>> events;

  SubscriptionBus::EventCallback Callback() {
    return [this](SiteId site, const LocationEvent& event) {
      std::lock_guard<std::mutex> lock(mu);
      events[site].push_back(event);
    };
  }
};

std::string TempDir(const char* tag) {
  const std::string dir = std::string(::testing::TempDir()) + "/" + tag + "_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return std::string(std::istreambuf_iterator<char>(is),
                     std::istreambuf_iterator<char>());
}

TEST(FlightRecorderServeTest, ArtificiallySlowEpochTripsTheRecorder) {
  const SiteTraffic traffic = MakeSiteTraffic(1, 601);
  std::vector<SiteSpec> specs;
  specs.push_back({1, SiteModel(traffic)});
  ServeConfig config = SmallServeConfig();
  // Tight thresholds so the sleeping subscriber below is unambiguously
  // slow relative to the EWMA seeded by the fast epochs.
  config.flight.slow_multiple = 3.0;
  config.flight.min_slow_seconds = 1e-4;
  auto server = StreamingServer::Create(std::move(specs), config);
  ASSERT_TRUE(server.ok());

  // The subscriber stalls dispatch once armed; dispatch is inside the
  // epoch's measured total, so armed epochs read as slow.
  std::atomic<bool> stall{false};
  server.value()->bus().SubscribeEvents(
      [&stall](SiteId, const LocationEvent&) {
        if (stall.load(std::memory_order_relaxed)) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
          stall.store(false, std::memory_order_relaxed);  // One slow epoch.
        }
      });

  // Feed the first half fast to seed the EWMA with normal epoch times.
  const size_t half = traffic.records.size() / 2;
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(server.value()->Ingest(traffic.records[i]));
  }
  server.value()->Pump();
  stall.store(true, std::memory_order_relaxed);
  for (size_t i = half; i < traffic.records.size(); ++i) {
    ASSERT_TRUE(server.value()->Ingest(traffic.records[i]));
  }
  server.value()->Pump();
  server.value()->Flush();

  const SitePipeline* pipeline = server.value()->FindSite(1);
  ASSERT_NE(pipeline, nullptr);
  EXPECT_GE(pipeline->flight().epochs_recorded(), 2u);
  EXPECT_GE(pipeline->flight().captures(), 1u);
  bool saw_slow = false;
  for (const auto& diag : pipeline->flight().diagnostics()) {
    if (diag.trigger == "slow_epoch") saw_slow = true;
    EXPECT_FALSE(diag.recent.empty());
  }
  EXPECT_TRUE(saw_slow);
  const ServerStatsSnapshot stats = server.value()->Stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  ASSERT_EQ(stats.shards[0].sites.size(), 1u);
  EXPECT_GE(stats.shards[0].sites[0].slow_epochs, 1u);
  EXPECT_NE(server.value()->StatsJson().find("\"slow_epochs\""),
            std::string::npos);
}

TEST(DumpDiagnosticsTest, BundleContainsMetricsTraceFlightAndSpill) {
  const SiteTraffic traffic = MakeSiteTraffic(1, 602);
  std::vector<SiteSpec> specs;
  specs.push_back({1, SiteModel(traffic)});
  auto server = StreamingServer::Create(std::move(specs), SmallServeConfig());
  ASSERT_TRUE(server.ok());

  obs::Tracer::Default().Clear();
  obs::Tracer::Default().SetEnabled(true);

  for (const ServeRecord& record : traffic.records) {
    ASSERT_TRUE(server.value()->Ingest(record));
  }
  // Two malformed records land in the dead-letter ring (and capture
  // "quarantine" flight diagnostics).
  ASSERT_TRUE(server.value()->Ingest(
      ServeRecord::Reading(1, {std::nan(""), 7})));
  ReaderLocationReport bad_report;
  bad_report.time = std::numeric_limits<double>::infinity();
  ASSERT_TRUE(server.value()->Ingest(ServeRecord::Location(1, bad_report)));
  server.value()->Pump();
  server.value()->Flush();

  const std::string dir = TempDir("diag_bundle");
  ASSERT_TRUE(server.value()->DumpDiagnostics(dir).ok());
  obs::Tracer::Default().SetEnabled(false);

  // Prometheus scrape covers the pipeline stages, queue and pump.
  const std::string prom = ReadFile(dir + "/metrics.prom");
  EXPECT_NE(prom.find("# TYPE rfid_epoch_seconds histogram"),
            std::string::npos);
  EXPECT_NE(prom.find("rfid_stage_seconds_bucket{stage=\"weight\""),
            std::string::npos);
  EXPECT_NE(prom.find("rfid_stage_seconds_count{stage=\"dispatch\"}"),
            std::string::npos);
  // Object (re)initialization is its own stage, timed inside `weight`.
  EXPECT_NE(prom.find("rfid_stage_seconds_bucket{stage=\"init\""),
            std::string::npos);
  obs::MetricsRegistry& registry = server.value()->metrics();
  const double init_s =
      registry.GetHistogram("rfid_stage_seconds", "stage=\"init\"")
          ->Snap()
          .sum_seconds;
  EXPECT_GT(init_s, 0.0);
  EXPECT_LE(init_s,
            registry.GetHistogram("rfid_stage_seconds", "stage=\"weight\"")
                ->Snap()
                .sum_seconds);
  EXPECT_NE(prom.find("rfid_ingest_enqueue_seconds"), std::string::npos);
  EXPECT_NE(prom.find("rfid_pump_sweep_seconds"), std::string::npos);
  EXPECT_NE(prom.find("rfid_records_processed_total"), std::string::npos);
  EXPECT_NE(prom.find("rfid_records_quarantined_total 2"), std::string::npos);

  const std::string metrics_json = ReadFile(dir + "/metrics.json");
  EXPECT_NE(metrics_json.find("\"counters\""), std::string::npos);
  EXPECT_NE(metrics_json.find("rfid_epoch_seconds"), std::string::npos);

  // The trace dump is Chrome/Perfetto trace-event JSON with our spans.
  const std::string trace = ReadFile(dir + "/trace.json");
  EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"epoch\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"pump_sweep\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);

  const std::string stats = ReadFile(dir + "/stats.json");
  EXPECT_NE(stats.find("\"shards\""), std::string::npos);
  EXPECT_NE(stats.find("\"rejected_closed\""), std::string::npos);

  const std::string flight = ReadFile(dir + "/flight.json");
  EXPECT_NE(flight.find("\"sites\""), std::string::npos);
  EXPECT_NE(flight.find("\"trigger\":\"quarantine\""), std::string::npos);
  EXPECT_NE(flight.find("\"ewma_seconds\""), std::string::npos);
  EXPECT_NE(flight.find("\"init\":"), std::string::npos);

  // The dead-letter spill round-trips back to the in-memory ring.
  const SitePipeline* pipeline = server.value()->FindSite(1);
  ASSERT_NE(pipeline, nullptr);
  ASSERT_EQ(pipeline->DeadLetters().size(), 2u);
  SiteId spilled_site = 0;
  std::vector<SpilledDeadLetter> spilled;
  ASSERT_TRUE(ReadDeadLetterSpill(dir + "/dead_letter_site_1.bin",
                                  &spilled_site, &spilled)
                  .ok());
  EXPECT_EQ(spilled_site, 1u);
  ASSERT_EQ(spilled.size(), pipeline->DeadLetters().size());
  for (size_t i = 0; i < spilled.size(); ++i) {
    const DeadLetterEntry& mem = pipeline->DeadLetters()[i];
    EXPECT_EQ(spilled[i].sequence, mem.sequence);
    EXPECT_EQ(spilled[i].reason, mem.reason);
    EXPECT_EQ(spilled[i].record.site, mem.record.site);
    EXPECT_EQ(static_cast<int>(spilled[i].record.kind),
              static_cast<int>(mem.record.kind));
  }

  std::filesystem::remove_all(dir);
}

TEST(TelemetryDeterminismTest, EventStreamsIdenticalWithTelemetryOnAndOff) {
  const SiteTraffic site1 = MakeSiteTraffic(1, 603);
  const SiteTraffic site2 = MakeSiteTraffic(2, 604);

  const auto run = [&](bool telemetry) {
    obs::SetTelemetryEnabled(telemetry);
    obs::Tracer::Default().SetEnabled(telemetry);
    std::vector<SiteSpec> specs;
    specs.push_back({1, SiteModel(site1)});
    specs.push_back({2, SiteModel(site2)});
    ServeConfig config = SmallServeConfig();
    config.num_shards = 2;
    auto server = StreamingServer::Create(std::move(specs), config);
    EXPECT_TRUE(server.ok());
    EventLog log;
    server.value()->bus().SubscribeEvents(log.Callback());
    for (const auto* traffic : {&site1, &site2}) {
      for (const ServeRecord& record : traffic->records) {
        EXPECT_TRUE(server.value()->Ingest(record));
      }
    }
    server.value()->Pump();
    server.value()->Flush();
    obs::Tracer::Default().SetEnabled(false);
    obs::SetTelemetryEnabled(true);
    return std::move(log.events);
  };

  const auto with_telemetry = run(true);
  const auto without_telemetry = run(false);

  // The observability layer only reads clocks and stores samples; it must
  // never branch inference. Bit-identical events prove it.
  ASSERT_EQ(with_telemetry.size(), without_telemetry.size());
  for (const auto& [site, events_a] : with_telemetry) {
    const auto it = without_telemetry.find(site);
    ASSERT_NE(it, without_telemetry.end()) << "site " << site;
    ASSERT_EQ(events_a.size(), it->second.size()) << "site " << site;
    for (size_t i = 0; i < events_a.size(); ++i) {
      EXPECT_EQ(events_a[i].time, it->second[i].time);
      EXPECT_EQ(events_a[i].tag, it->second[i].tag);
      EXPECT_EQ(events_a[i].location, it->second[i].location);
    }
  }
}

TEST(CounterMonotonicityTest, DropsAndPushesSurviveStopStartCycles) {
  const SiteTraffic traffic = MakeSiteTraffic(1, 605);
  std::vector<SiteSpec> specs;
  specs.push_back({1, SiteModel(traffic)});
  auto server = StreamingServer::Create(std::move(specs), SmallServeConfig());
  ASSERT_TRUE(server.ok());

  const size_t half = traffic.records.size() / 2;
  server.value()->Start();
  for (size_t i = 0; i < half; ++i) {
    ASSERT_TRUE(server.value()->Ingest(traffic.records[i]));
  }
  server.value()->Stop();

  // The queues are closed now: these records are rejected, and the drop
  // must be *counted* (the closed-queue drop class used to be invisible).
  EXPECT_FALSE(server.value()->Ingest(traffic.records[half]));
  EXPECT_FALSE(server.value()->Ingest(traffic.records[half]));
  const ServerStatsSnapshot after_stop = server.value()->Stats();
  ASSERT_EQ(after_stop.shards.size(), 1u);
  EXPECT_EQ(after_stop.shards[0].queue.rejected_closed, 2u);
  const uint64_t pushed_after_stop = after_stop.shards[0].queue.pushed;
  EXPECT_EQ(pushed_after_stop, half);

  // Restart and feed the rest: lifetime counters keep climbing, nothing
  // resets, and the closed-drop count is preserved.
  server.value()->Start();
  for (size_t i = half; i < traffic.records.size(); ++i) {
    ASSERT_TRUE(server.value()->Ingest(traffic.records[i]));
  }
  server.value()->Stop();
  server.value()->Flush();

  const ServerStatsSnapshot final_stats = server.value()->Stats();
  EXPECT_EQ(final_stats.shards[0].queue.pushed, traffic.records.size());
  EXPECT_EQ(final_stats.shards[0].queue.rejected_closed, 2u);
  EXPECT_EQ(final_stats.shards[0].queue.popped, traffic.records.size());
  EXPECT_EQ(final_stats.TotalRecordsProcessed(), traffic.records.size());

  // The registry's counter view agrees with the stats surface.
  const std::string prom = server.value()->MetricsPrometheus();
  EXPECT_NE(
      prom.find(
          "rfid_ingest_dropped_total{shard=\"0\",reason=\"closed\"} 2"),
      std::string::npos);
}

}  // namespace
}  // namespace rfid
