// Aggregated counters of the serving runtime, exportable as JSON.
//
// Snapshots are plain values assembled under the server's pump lock, so a
// monitoring thread can poll StatsJson() while shards keep processing.
#pragma once

#include <string>
#include <vector>

#include "serve/ingest_queue.h"
#include "serve/site_pipeline.h"
#include "serve/subscription_bus.h"
#include "util/fault.h"
#include "util/json.h"

namespace rfid {

/// Outcomes of the generation-manifest checkpoint protocol (see
/// serve/checkpoint.h) since server construction.
struct CheckpointStatsSnapshot {
  uint64_t saved = 0;           ///< Per-site saves that advanced a manifest.
  uint64_t failures = 0;        ///< Saves that exhausted retries (last-good kept).
  uint64_t retries = 0;         ///< Extra attempts consumed by transient faults.
  uint64_t fallback_loads = 0;  ///< Restores that fell back a generation.
  uint64_t skipped_parked = 0;  ///< Sites skipped because they were parked.
};

struct ShardStatsSnapshot {
  int shard = 0;
  IngestQueueStats queue;
  /// Load-shedding governor state for this shard (0 = normal / disabled).
  int shed_level = 0;
  uint64_t shed_escalations = 0;
  uint64_t shed_deescalations = 0;
  std::vector<SitePipelineStats> sites;
};

struct ServerStatsSnapshot {
  std::vector<ShardStatsSnapshot> shards;
  uint64_t subscription_dispatches = 0;
  /// One row per materialized (subscription, site) query operator: how much
  /// state it holds and how much its lifecycle policies have evicted.
  std::vector<BusOperatorStats> operators;
  CheckpointStatsSnapshot checkpoint;
  /// Per-point counters of the installed FaultInjector (empty outside chaos
  /// runs). Every injected fault is observable here: if it fired, it shows.
  std::vector<FaultPointStats> faults;

  size_t TotalOperatorBytes() const {
    size_t total = 0;
    for (const auto& op : operators) total += op.stats.bytes_estimate;
    return total;
  }

  uint64_t TotalRecordsProcessed() const {
    uint64_t total = 0;
    for (const auto& shard : shards) {
      for (const auto& site : shard.sites) total += site.records_processed;
    }
    return total;
  }
  uint64_t TotalDroppedLate() const {
    uint64_t total = 0;
    for (const auto& shard : shards) {
      for (const auto& site : shard.sites) {
        total += site.records_dropped_late;
      }
    }
    return total;
  }
  uint64_t TotalRecordsShed() const {
    uint64_t total = 0;
    for (const auto& shard : shards) {
      for (const auto& site : shard.sites) total += site.records_shed;
    }
    return total;
  }
  size_t TotalHibernatedObjects() const {
    size_t total = 0;
    for (const auto& shard : shards) {
      for (const auto& site : shard.sites) total += site.hibernated_objects;
    }
    return total;
  }
  uint64_t TotalEventsDispatched() const {
    uint64_t total = 0;
    for (const auto& shard : shards) {
      for (const auto& site : shard.sites) total += site.events_dispatched;
    }
    return total;
  }
  double TotalReadingsProcessed() const {
    double total = 0;
    for (const auto& shard : shards) {
      for (const auto& site : shard.sites) {
        total += static_cast<double>(site.engine.readings_processed);
      }
    }
    return total;
  }

  std::string ToJson() const {
    json::Writer w;
    w.BeginObject().Key("shards").BeginArray();
    for (const ShardStatsSnapshot& shard : shards) {
      const IngestQueueStats& q = shard.queue;
      w.BeginObject().Key("shard").Int(shard.shard);
      w.Key("queue").BeginObject();
      w.Key("pushed").Uint(q.pushed);
      w.Key("popped").Uint(q.popped);
      w.Key("blocked_pushes").Uint(q.blocked_pushes);
      w.Key("rejected_full").Uint(q.rejected_full);
      w.Key("rejected_closed").Uint(q.rejected_closed);
      w.Key("high_water").Uint(q.high_water);
      w.Key("injected_drops").Uint(q.injected_drops);
      w.Key("arrival_rate_per_sec").Double(q.arrival_rate_per_sec);
      w.EndObject().Key("shed").BeginObject();
      w.Key("level").Int(shard.shed_level);
      w.Key("escalations").Uint(shard.shed_escalations);
      w.Key("deescalations").Uint(shard.shed_deescalations);
      w.EndObject().Key("sites").BeginArray();
      for (const SitePipelineStats& site : shard.sites) {
        w.BeginObject().Key("site").Uint(site.site);
        w.Key("records_processed").Uint(site.records_processed);
        w.Key("records_dropped_late").Uint(site.records_dropped_late);
        w.Key("records_shed").Uint(site.records_shed);
        w.Key("events_dispatched").Uint(site.events_dispatched);
        w.Key("scan_completes").Uint(site.scan_completes);
        w.Key("records_quarantined").Uint(site.records_quarantined);
        w.Key("slow_epochs").Uint(site.slow_epochs);
        w.Key("dead_letter_size").Uint(site.dead_letter_size);
        w.Key("health").BeginObject();
        w.Key("failures").Uint(site.pipeline_failures);
        w.Key("recoveries").Uint(site.recoveries);
        w.Key("records_dropped_parked").Uint(site.records_dropped_parked);
        w.Key("parked").Bool(site.parked);
        w.Key("park_reason").String(site.park_reason);
        w.EndObject().Key("shed_level").Int(site.shed_level);
        w.Key("objects").BeginObject();
        w.Key("active").Uint(site.active_objects);
        w.Key("compressed").Uint(site.compressed_objects);
        w.Key("hibernated").Uint(site.hibernated_objects);
        w.Key("memory_bytes").Uint(site.filter_memory_bytes);
        // -infinity before a site's first record, written as null.
        w.EndObject().Key("watermark").Double(site.watermark);
        w.Key("engine");
        site.engine.ToJson(&w);
        w.EndObject();
      }
      w.EndArray().EndObject();
    }
    w.EndArray().Key("operators").BeginArray();
    for (const BusOperatorStats& op : operators) {
      w.BeginObject().Key("subscription").Int(op.subscription);
      w.Key("kind").String(op.kind);
      w.Key("site").Uint(op.site);
      w.Key("entries").Uint(op.stats.entries);
      w.Key("bytes_estimate").Uint(op.stats.bytes_estimate);
      w.Key("evicted").Uint(op.stats.evicted);
      w.EndObject();
    }
    w.EndArray().Key("total_operator_bytes").Uint(TotalOperatorBytes());
    w.Key("subscription_dispatches").Uint(subscription_dispatches);
    w.Key("total_records_processed").Uint(TotalRecordsProcessed());
    w.Key("total_dropped_late").Uint(TotalDroppedLate());
    w.Key("total_records_shed").Uint(TotalRecordsShed());
    w.Key("total_hibernated_objects").Uint(TotalHibernatedObjects());
    w.Key("total_events_dispatched").Uint(TotalEventsDispatched());
    w.Key("checkpoint").BeginObject();
    w.Key("saved").Uint(checkpoint.saved);
    w.Key("failures").Uint(checkpoint.failures);
    w.Key("retries").Uint(checkpoint.retries);
    w.Key("fallback_loads").Uint(checkpoint.fallback_loads);
    w.Key("skipped_parked").Uint(checkpoint.skipped_parked);
    w.EndObject().Key("faults").BeginArray();
    for (const FaultPointStats& fault : faults) {
      w.BeginObject().Key("point").String(FaultPointName(fault.point));
      w.Key("hits").Uint(fault.hits);
      w.Key("fires").Uint(fault.fires);
      w.EndObject();
    }
    w.EndArray().EndObject();
    return w.str();
  }
};

}  // namespace rfid
