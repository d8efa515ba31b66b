// Chaos soak: a multi-site server driven under seeded fault injection must
// keep its blast radius contained. Victim sites absorb decode faults,
// pipeline crashes and enqueue drops; checkpoint saves are killed at random
// fault points mid-protocol. The acceptance bar, per seed: every site NOT
// targeted by stream faults produces an event stream bit-identical to the
// fault-free reference run, and every injected fault is visible in the
// server's stats export.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "model/cone_sensor.h"
#include "serve/server.h"
#include "sim/trace.h"
#include "util/fault.h"

namespace rfid {
namespace {

// Sites 1 and 2 are clean; 3 and 4 are fault targets.
const SiteId kSites[] = {1, 2, 3, 4};
constexpr SiteId kDecodeVictim = 3;
constexpr SiteId kCrashVictim = 4;

Result<WarehouseLayout> SmallLayout() {
  WarehouseConfig wc;
  wc.num_shelves = 1;
  wc.shelf_length = 6.0;
  wc.objects_per_shelf = 4;
  wc.shelf_tags_per_shelf = 2;
  return BuildWarehouse(wc);
}

/// One site's record stream: a warehouse trace decorrelated by site id.
std::vector<ServeRecord> SiteRecords(const WarehouseLayout& layout,
                                     SiteId site) {
  ConeSensorModel sensor;
  TraceGenerator gen(layout, RobotConfig{}, {}, sensor, 900 + site);
  const SimulatedTrace trace = gen.Generate();
  std::vector<ServeRecord> records;
  for (const SimEpoch& epoch : trace.epochs) {
    const SyncedEpoch& obs = epoch.observations;
    if (obs.has_location) {
      ReaderLocationReport report;
      report.time = obs.time;
      report.location = obs.reported_location;
      records.push_back(ServeRecord::Location(site, report));
    }
    for (TagId tag : obs.tags) {
      records.push_back(ServeRecord::Reading(site, {obs.time, tag}));
    }
  }
  return records;
}

/// All four site streams interleaved round-robin — the fixed drive order
/// both the reference and every chaos run replay.
std::vector<ServeRecord> InterleavedRecords(const WarehouseLayout& layout) {
  std::vector<std::vector<ServeRecord>> streams;
  size_t longest = 0;
  for (SiteId site : kSites) {
    streams.push_back(SiteRecords(layout, site));
    longest = std::max(longest, streams.back().size());
  }
  std::vector<ServeRecord> interleaved;
  for (size_t i = 0; i < longest; ++i) {
    for (const auto& stream : streams) {
      if (i < stream.size()) interleaved.push_back(stream[i]);
    }
  }
  return interleaved;
}

ServeConfig ChaosServeConfig() {
  ServeConfig config;
  config.num_shards = 2;
  config.num_threads = 1;  // Deterministic inline pumping.
  config.queue_capacity = 8192;
  config.epoch_seconds = 1.0;
  config.max_lateness_seconds = 2.0;
  config.engine.factored.num_reader_particles = 20;
  config.engine.factored.num_object_particles = 60;
  config.engine.factored.seed = 55;
  config.engine.emitter.delay_seconds = 8.0;
  config.recovery.checkpoint_backoff_ms = 0.0;
  return config;
}

Result<std::unique_ptr<StreamingServer>> MakeChaosServer(
    const WarehouseLayout& layout) {
  std::vector<SiteSpec> specs;
  for (SiteId site : kSites) {
    specs.push_back(
        {site, MakeWorldModel(layout, std::make_unique<ConeSensorModel>())});
  }
  return StreamingServer::Create(std::move(specs), ChaosServeConfig());
}

struct PerSiteEvents {
  std::map<SiteId, std::vector<LocationEvent>> by_site;
  SubscriptionBus::EventCallback Callback() {
    return [this](SiteId site, const LocationEvent& event) {
      by_site[site].push_back(event);
    };
  }
};

void ExpectBitIdentical(const std::vector<LocationEvent>& a,
                        const std::vector<LocationEvent>& b, SiteId site) {
  ASSERT_EQ(a.size(), b.size()) << "site " << site;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time, b[i].time) << "site " << site << " event " << i;
    EXPECT_EQ(a[i].tag, b[i].tag) << "site " << site << " event " << i;
    EXPECT_EQ(a[i].location, b[i].location)
        << "site " << site << " event " << i;
  }
}

/// Drives the full record sequence with periodic pumps and two mid-stream
/// checkpoints — identical cadence for the reference and chaos runs.
void Drive(StreamingServer* server, const std::vector<ServeRecord>& records,
           const std::string& ckpt_dir) {
  const size_t first_cut = records.size() / 3;
  const size_t second_cut = 2 * records.size() / 3;
  for (size_t i = 0; i < records.size(); ++i) {
    server->Ingest(records[i]);  // Injected enqueue drops return false.
    if (i % 64 == 0) server->Pump();
    if (i == first_cut || i == second_cut) {
      server->Pump();
      // Under injection the save may fail for some sites; that is the
      // point — last-good generations must carry the recovery path.
      (void)server->Checkpoint(ckpt_dir);
    }
  }
  server->Pump();
  server->Flush();
}

std::vector<uint64_t> ChaosSeeds() {
  std::vector<uint64_t> seeds;
  if (const char* env = std::getenv("RFID_CHAOS_SEEDS")) {
    std::stringstream ss(env);
    std::string token;
    while (std::getline(ss, token, ',')) {
      if (!token.empty()) seeds.push_back(std::stoull(token));
    }
  }
  if (seeds.empty()) seeds = {11, 12, 13, 14, 15};
  return seeds;
}

class ServeChaosTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = std::filesystem::temp_directory_path() /
            ("serve_chaos_" + std::to_string(::getpid()));
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  void TearDown() override { std::filesystem::remove_all(root_); }
  std::string Dir(const std::string& leaf) const {
    return (root_ / leaf).string();
  }
  std::filesystem::path root_;
};

TEST_F(ServeChaosTest, SurvivorSitesAreBitIdenticalAcrossSeedSweep) {
  const auto layout = SmallLayout();
  ASSERT_TRUE(layout.ok());
  const std::vector<ServeRecord> records = InterleavedRecords(layout.value());
  ASSERT_GT(records.size(), 300u);

  // Fault-free reference run.
  PerSiteEvents reference;
  {
    auto server = MakeChaosServer(layout.value());
    ASSERT_TRUE(server.ok());
    server.value()->bus().SubscribeEvents(reference.Callback());
    Drive(server.value().get(), records, Dir("reference"));
    const ServerStatsSnapshot stats = server.value()->Stats();
    EXPECT_TRUE(stats.faults.empty());
    EXPECT_EQ(stats.checkpoint.failures, 0u);
  }
  for (SiteId site : kSites) {
    ASSERT_FALSE(reference.by_site[site].empty()) << "site " << site;
  }

  for (const uint64_t seed : ChaosSeeds()) {
    SCOPED_TRACE("chaos seed " + std::to_string(seed));

    FaultInjector injector(seed);
    {
      // The checkpoint protocol is attacked at every stage, on all sites.
      FaultRule ckpt;
      ckpt.probability = 0.25;
      injector.Arm(FaultPoint::kCheckpointWrite, ckpt);
      injector.Arm(FaultPoint::kCheckpointFsync, ckpt);
      injector.Arm(FaultPoint::kCheckpointRename, ckpt);
      injector.Arm(FaultPoint::kManifestWrite, ckpt);
      // Stream faults stay scoped to the victims.
      FaultRule decode;
      decode.probability = 0.05;
      decode.scopes = {kDecodeVictim};
      injector.Arm(FaultPoint::kRecordDecode, decode);
      FaultRule enqueue;
      enqueue.probability = 0.03;
      enqueue.scopes = {kDecodeVictim};
      injector.Arm(FaultPoint::kQueueEnqueue, enqueue);
      FaultRule crash;
      crash.probability = 0.02;
      crash.scopes = {kCrashVictim};
      injector.Arm(FaultPoint::kPipelineStep, crash);
    }

    PerSiteEvents chaos;
    auto server = MakeChaosServer(layout.value());
    ASSERT_TRUE(server.ok());
    server.value()->bus().SubscribeEvents(chaos.Callback());
    // Stays installed through the stats assertions below — Stats() exports
    // the injector's counters only while one is installed.
    ScopedFaultInjector installed(&injector);
    Drive(server.value().get(), records, Dir("chaos_" + std::to_string(seed)));

    // Blast radius: the sites no stream fault targeted match the reference
    // bit for bit, regardless of what happened to their neighbors or to
    // the checkpoint protocol.
    ExpectBitIdentical(reference.by_site[1], chaos.by_site[1], 1);
    ExpectBitIdentical(reference.by_site[2], chaos.by_site[2], 2);

    // Every injected fault is observable: the server's snapshot mirrors
    // the injector's counters, and the JSON export names each fired point.
    const ServerStatsSnapshot stats = server.value()->Stats();
    const std::string json = server.value()->StatsJson();
    const auto fault_rows = injector.Snapshot();
    ASSERT_EQ(stats.faults.size(), fault_rows.size());
    for (size_t i = 0; i < fault_rows.size(); ++i) {
      EXPECT_EQ(stats.faults[i].point, fault_rows[i].point);
      EXPECT_EQ(stats.faults[i].hits, fault_rows[i].hits);
      EXPECT_EQ(stats.faults[i].fires, fault_rows[i].fires);
      if (fault_rows[i].fires > 0) {
        EXPECT_NE(json.find(std::string("\"point\":\"") +
                            FaultPointName(fault_rows[i].point) + "\""),
                  std::string::npos)
            << FaultPointName(fault_rows[i].point);
      }
    }
    EXPECT_NE(json.find("\"checkpoint\""), std::string::npos);

    // Health bookkeeping stays consistent under fire: recoveries never
    // outnumber failures, parked sites carry a reason, and only victim
    // sites show any damage at all.
    uint64_t total_quarantined = 0;
    for (const auto& shard : stats.shards) {
      for (const auto& site : shard.sites) {
        EXPECT_LE(site.recoveries, site.pipeline_failures)
            << "site " << site.site;
        if (site.parked) {
          EXPECT_FALSE(site.park_reason.empty()) << "site " << site.site;
        }
        if (site.site == 1 || site.site == 2) {
          EXPECT_EQ(site.pipeline_failures, 0u) << "site " << site.site;
          EXPECT_EQ(site.records_quarantined, 0u) << "site " << site.site;
          EXPECT_FALSE(site.parked) << "site " << site.site;
        }
        total_quarantined += site.records_quarantined;
      }
    }
    if (injector.fires(FaultPoint::kRecordDecode) > 0) {
      EXPECT_GT(total_quarantined, 0u);
    }
    if (injector.fires(FaultPoint::kPipelineStep) > 0) {
      uint64_t victim_failures = 0;
      for (const auto& shard : stats.shards) {
        for (const auto& site : shard.sites) {
          if (site.site == kCrashVictim) victim_failures = site.pipeline_failures;
        }
      }
      EXPECT_GT(victim_failures, 0u);
    }
  }
}

TEST_F(ServeChaosTest, ReviveWorksForSiteParkedBeforeFirstCheckpoint) {
  // A site that crashes before any checkpoint succeeded parks with nothing
  // to restore from. ReviveSite() must still work — it unparks the site
  // with its current state instead of failing forever on the missing
  // checkpoint data.
  const auto layout = SmallLayout();
  ASSERT_TRUE(layout.ok());
  const std::vector<ServeRecord> records =
      SiteRecords(layout.value(), kCrashVictim);
  ASSERT_GT(records.size(), 100u);

  ServeConfig config = ChaosServeConfig();
  config.recovery.max_restarts = 0;  // First crash parks immediately.
  std::vector<SiteSpec> specs;
  specs.push_back({kCrashVictim, MakeWorldModel(layout.value(),
                                                std::make_unique<ConeSensorModel>())});
  auto server = StreamingServer::Create(std::move(specs), config);
  ASSERT_TRUE(server.ok());

  FaultInjector injector(3);
  FaultRule crash;
  crash.fire_hit = 5;  // Crash well before the checkpoint below.
  injector.Arm(FaultPoint::kPipelineStep, crash);
  ScopedFaultInjector installed(&injector);

  for (const ServeRecord& record : records) {
    server.value()->Ingest(record);
  }
  server.value()->Pump();
  ASSERT_GT(injector.fires(FaultPoint::kPipelineStep), 0u);

  // The checkpoint skips the parked site but records the directory.
  ASSERT_TRUE(server.value()->Checkpoint(Dir("empty")).ok());

  auto parked_stats = server.value()->Stats();
  ASSERT_TRUE(parked_stats.shards[0].sites.empty() ||
              parked_stats.shards[0].sites[0].parked ||
              parked_stats.shards[1].sites[0].parked);
  EXPECT_GT(parked_stats.checkpoint.skipped_parked, 0u);

  ASSERT_TRUE(server.value()->ReviveSite(kCrashVictim).ok());
  const auto revived = server.value()->Stats();
  for (const auto& shard : revived.shards) {
    for (const auto& site : shard.sites) {
      EXPECT_FALSE(site.parked);
      EXPECT_TRUE(site.park_reason.empty());
    }
  }
}

}  // namespace
}  // namespace rfid
