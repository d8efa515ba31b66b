// The benchmark's own arithmetic, kept free of the library so the self-tests
// (selftest.cc) can check it on hand-built inputs:
//   * the percentile rule: report a percentile only when at least ten
//     samples lie beyond it;
//   * the position-wise median over passes behind the end-to-end timings;
//   * the closing-record mapping that turns an event into a latency sample;
//   * the ladder rule behind serve.ladder.sustained_records_per_s;
//   * the attribution of an event's latency to serving and filter work.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a percentile before it is reported.
inline constexpr size_t kMinSamplesBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p < 100) in `n` samples. The
/// tolerance keeps a product like 99.9% of 10000 from rounding up a rank.
inline size_t NearestRank(size_t n, double p) {
  const double rank =
      std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  return std::min(n, static_cast<size_t>(std::max(1.0, rank)));
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
inline size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

/// True when percentile `p` of `n` samples has at least kMinSamplesBeyond
/// samples beyond it.
inline bool PercentileSupported(size_t n, double p) {
  return SamplesBeyond(n, p) >= kMinSamplesBeyond;
}

/// The highest percentile of {50, 90, 99, 99.9} that `n` samples support,
/// or 0 when not even the median does.
inline double HighestSupportedPercentile(size_t n) {
  double best = 0.0;
  for (const double p : {50.0, 90.0, 99.0, 99.9}) {
    if (PercentileSupported(n, p)) best = p;
  }
  return best;
}

/// Nearest-rank percentile of `sorted` (ascending); 0 when empty.
inline double Percentile(const std::vector<double>& sorted, double p) {
  return sorted.empty() ? 0.0 : sorted[NearestRank(sorted.size(), p) - 1];
}

/// Median of `values` (any order; empty gives 0).
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

/// Position-wise median over passes: out[i] is the median of rows[p][i]
/// over every pass p. Every pass repeats the same deterministic work, so
/// position i is the same step (or the same event) in each row, and a host
/// stall that slows one pass at some moment moves that pass's entries, not
/// the median. Empty when there are no rows or their lengths differ.
inline std::vector<double> MedianAcrossPasses(
    const std::vector<std::vector<double>>& rows) {
  std::vector<double> out;
  if (rows.empty()) return out;
  for (const auto& row : rows) {
    if (row.size() != rows.front().size()) return out;
  }
  std::vector<double> column(rows.size());
  for (size_t i = 0; i < rows.front().size(); ++i) {
    for (size_t p = 0; p < rows.size(); ++p) column[p] = rows[p][i];
    out.push_back(Median(column));
  }
  return out;
}

/// The record-time threshold whose first record lets the watermark close the
/// epoch that starts at `event_time`: the synchronizer closes epoch i once
/// floor((newest - lateness) / epoch) - 1 >= i, i.e. once a record at or
/// after i*epoch + epoch + lateness has been pushed.
inline double ClosingThreshold(double event_time, double epoch_seconds,
                               double max_lateness_seconds) {
  return event_time + epoch_seconds + max_lateness_seconds;
}

/// Index of the closing record of an event at `event_time` in one site's
/// record times (ascending): the first record with time >= the threshold.
/// Returns record_times.size() when no such record exists (the epoch was
/// closed by Flush, so the event has no latency sample).
inline size_t ClosingRecord(const std::vector<double>& record_times,
                            double event_time, double epoch_seconds,
                            double max_lateness_seconds) {
  const double threshold =
      ClosingThreshold(event_time, epoch_seconds, max_lateness_seconds);
  return static_cast<size_t>(
      std::lower_bound(record_times.begin(), record_times.end(), threshold) -
      record_times.begin());
}

/// One rung of the offered-rate ladder, as measured.
struct Rung {
  double offered_per_s = 0.0;
  /// Records processed per wall second while the rung ran.
  double processed_per_s = 0.0;
  /// Latency samples of events whose closing record was sent in this rung.
  size_t samples = 0;
  /// Latency at HighestSupportedPercentile(samples) of those samples.
  double tail_ms = 0.0;
  /// Queue backlog (records enqueued, not yet popped) at the rung's start
  /// and end.
  uint64_t backlog_start = 0;
  uint64_t backlog_end = 0;
  /// Failed operations while the rung ran.
  uint64_t failed = 0;
};

/// A rung passes when it failed nothing, its tail latency (p99, or the
/// highest percentile its sample count supports) is under `limit_ms`, and
/// its backlog did not grow by more than `backlog_slack` records.
inline bool RungPasses(const Rung& rung, double limit_ms,
                       uint64_t backlog_slack) {
  return rung.failed == 0 && HighestSupportedPercentile(rung.samples) > 0 &&
         rung.tail_ms < limit_ms &&
         rung.backlog_end <= rung.backlog_start + backlog_slack;
}

/// Index of the highest passing rung of `ladder` (ordered by offered rate),
/// or -1 when none passes. serve.ladder.sustained_records_per_s reports
/// that rung's processed rate.
inline int HighestPassingRung(const std::vector<Rung>& ladder,
                              double limit_ms, uint64_t backlog_slack) {
  int best = -1;
  for (size_t i = 0; i < ladder.size(); ++i) {
    if (RungPasses(ladder[i], limit_ms, backlog_slack)) {
      best = static_cast<int>(i);
    }
  }
  return best;
}

/// One closed-loop cycle of a traced pass: the generator ingests one record
/// time of every site, then one inline Pump() sweep runs.
struct Cycle {
  int64_t start_ns = 0;  ///< Just before the cycle's first Ingest().
  int64_t end_ns = 0;    ///< Pump() returned.
  /// Filter stage seconds of the sweep, summed over the pump lanes.
  double filter_s = 0.0;
};

/// Share of a cycle's wall time that the filter cannot explain even if its
/// stage time were spread perfectly over `lanes`: ingest, queue, pump
/// scheduling (idle lanes included), emit and dispatch. In [0, 1].
inline double CycleServeShare(const Cycle& cycle, int lanes) {
  const double wall = static_cast<double>(cycle.end_ns - cycle.start_ns) * 1e-9;
  if (wall <= 0.0 || lanes <= 0) return 0.0;
  return std::clamp(1.0 - cycle.filter_s / lanes / wall, 0.0, 1.0);
}

/// Index of the cycle whose sweep ran a bus callback at `callback_ns`: the
/// first cycle that ended at or after it (`cycles` ascending and disjoint).
/// Returns cycles.size() for a callback after the last cycle.
inline size_t CycleOf(const std::vector<Cycle>& cycles, int64_t callback_ns) {
  return static_cast<size_t>(
      std::lower_bound(cycles.begin(), cycles.end(), callback_ns,
                       [](const Cycle& c, int64_t t) { return c.end_ns < t; }) -
      cycles.begin());
}

/// Mean serve share of the events that set the `p` latency percentile: the
/// events whose latency is at or above it. `latency_ms[i]` and `share[i]`
/// belong to one event; 0 when there are no events.
inline double ServeShareAtPercentile(const std::vector<double>& latency_ms,
                                     const std::vector<double>& share,
                                     double p) {
  std::vector<double> sorted = latency_ms;
  std::sort(sorted.begin(), sorted.end());
  const double cut = Percentile(sorted, p);
  double sum = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < latency_ms.size() && i < share.size(); ++i) {
    if (latency_ms[i] >= cut) {
      sum += share[i];
      ++n;
    }
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

}  // namespace perfbench
