// Self-tests of the benchmark's own arithmetic (arith.h). run.py runs this
// binary before every benchmark run and refuses to report if it fails.
//
//   perfbench_selftest    exit 0 and "selftest: N checks passed" on success
#include <cmath>
#include <cstdio>
#include <vector>

#include "arith.h"
#include "stream/synchronizer.h"

namespace perfbench {
namespace {

int g_checks = 0;
int g_failures = 0;

void Check(bool ok, const char* what) {
  ++g_checks;
  if (!ok) {
    ++g_failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
  }
}

// The closing-record mapping on a hand-built three-epoch stream, checked
// against the synchronizer itself: push the records one at a time and note
// which record made PollWatermark() close each epoch.
void TestClosingRecord() {
  constexpr double kEpoch = 1.0;
  constexpr double kLateness = 2.0;
  // Epochs 0, 1, 2 carry readings; records from t = 3.0 on only advance the
  // watermark. Epoch i closes on the first record at or after i + 3.
  const std::vector<double> times = {0.0, 0.5, 1.0, 1.7, 2.2, 2.9,
                                     3.0, 3.5, 4.4, 5.0, 5.1};
  // Expected closing record per epoch start time, by hand: epoch 0 -> index
  // 6 (t = 3.0), epoch 1 -> index 8 (t = 4.4), epoch 2 -> index 9 (t = 5.0).
  Check(ClosingRecord(times, 0.0, kEpoch, kLateness) == 6, "epoch 0 -> t=3.0");
  Check(ClosingRecord(times, 1.0, kEpoch, kLateness) == 8, "epoch 1 -> t=4.4");
  Check(ClosingRecord(times, 2.0, kEpoch, kLateness) == 9, "epoch 2 -> t=5.0");
  Check(ClosingRecord(times, 3.0, kEpoch, kLateness) == times.size(),
        "epoch 3 is closed only by Finish (no sample)");

  rfid::SynchronizerConfig config;
  config.epoch_seconds = kEpoch;
  config.max_lateness_seconds = kLateness;
  rfid::StreamSynchronizer sync(config);
  std::vector<size_t> closed_by(3, times.size());
  for (size_t i = 0; i < times.size(); ++i) {
    sync.Push(rfid::TagReading{times[i], 1});
    for (const rfid::SyncedEpoch& epoch : sync.PollWatermark()) {
      if (epoch.step >= 0 && epoch.step < 3) {
        closed_by[static_cast<size_t>(epoch.step)] = i;
      }
    }
  }
  for (size_t e = 0; e < 3; ++e) {
    Check(closed_by[e] == ClosingRecord(times, static_cast<double>(e), kEpoch,
                                        kLateness),
          "mapping agrees with StreamSynchronizer::PollWatermark");
  }
}

// Highest percentile with at least ten samples beyond it.
void TestPercentileRule() {
  Check(SamplesBeyond(1000, 99.0) == 10, "1000 samples: 10 beyond p99");
  Check(PercentileSupported(1000, 99.0), "1000 samples support p99");
  Check(!PercentileSupported(999, 99.0), "999 samples do not support p99");
  Check(HighestSupportedPercentile(999) == 90.0, "999 samples -> p90");
  Check(HighestSupportedPercentile(10000) == 99.9, "10000 samples -> p99.9");
  Check(HighestSupportedPercentile(20) == 50.0, "20 samples -> p50");
  Check(HighestSupportedPercentile(19) == 0.0, "19 samples -> none");
  std::vector<double> sorted;
  for (int i = 1; i <= 1000; ++i) sorted.push_back(i);
  Check(Percentile(sorted, 99.0) == 990.0, "nearest-rank p99 of 1..1000");
  Check(Percentile(sorted, 50.0) == 500.0, "nearest-rank p50 of 1..1000");
  Check(Median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median of an even count");
}

// Position-wise median over passes.
void TestMedianAcrossPasses() {
  // Three passes of four steps; pass 1 is stalled on step 2 and pass 2 on
  // step 0, so each step's median is its undisturbed time.
  const std::vector<std::vector<double>> steps = {
      {1.0, 2.0, 3.0, 4.0}, {1.0, 2.1, 90.0, 4.0}, {50.0, 1.9, 3.1, 4.2}};
  const std::vector<double> m = MedianAcrossPasses(steps);
  Check(m == std::vector<double>({1.0, 2.0, 3.1, 4.0}),
        "each position takes its median over the passes");
  Check(MedianAcrossPasses({{1.0, 2.0}, {3.0, 4.0}}) ==
            std::vector<double>({2.0, 3.0}),
        "two passes: the mean of the pair");
  Check(MedianAcrossPasses({{5.0, 6.0}}) == std::vector<double>({5.0, 6.0}),
        "one pass is its own median");
  Check(MedianAcrossPasses({{1.0, 2.0}, {1.0}}).empty(),
        "passes of different lengths give nothing");
  Check(MedianAcrossPasses({}).empty(), "no passes give nothing");
}

// The ladder rule behind serve.ladder.sustained_records_per_s.
void TestLadderRule() {
  auto rung = [](double rate, size_t samples, double tail, uint64_t b0,
                 uint64_t b1, uint64_t failed) {
    Rung r;
    r.offered_per_s = rate;
    r.processed_per_s = rate;
    r.samples = samples;
    r.tail_ms = tail;
    r.backlog_start = b0;
    r.backlog_end = b1;
    r.failed = failed;
    return r;
  };
  const double limit = 100.0;
  const uint64_t slack = 50;
  std::vector<Rung> ladder = {rung(5000, 2000, 5, 0, 10, 0),
                              rung(10000, 2000, 8, 10, 40, 0),
                              rung(15000, 2000, 150, 40, 45, 0),
                              rung(20000, 2000, 20, 45, 900, 0)};
  Check(RungPasses(ladder[0], limit, slack), "fast rung passes");
  Check(!RungPasses(ladder[2], limit, slack), "p99 over the limit fails");
  Check(!RungPasses(ladder[3], limit, slack), "growing backlog fails");
  Check(HighestPassingRung(ladder, limit, slack) == 1,
        "highest passing rung is 10k");
  ladder[1].samples = 19;
  Check(!RungPasses(ladder[1], limit, slack), "no supported percentile fails");
  Check(HighestPassingRung(ladder, limit, slack) == 0,
        "falls back to the 5k rung");
  ladder[1].samples = 200;
  Check(RungPasses(ladder[1], limit, slack), "p90 stands in below 1000");
  ladder[1].failed = 1;
  Check(!RungPasses(ladder[1], limit, slack),
        "a failed operation fails the rung");
  Check(HighestPassingRung(ladder, limit, slack) == 0,
        "the highest rung without failures wins");
  ladder[3] = rung(20000, 5000, 20, 45, 95, 0);
  Check(HighestPassingRung(ladder, limit, slack) == 3,
        "backlog within slack passes");
}

// Latency attribution: a cycle's serve share and the events that set a
// percentile.
void TestAttribution() {
  // 10 ms of wall, 24 ms of filter stage time over 3 lanes: 8 ms of filter
  // wall, so 2 ms (0.2) the filter cannot explain.
  const Cycle busy{0, 10'000'000, 0.024};
  Check(std::fabs(CycleServeShare(busy, 3) - 0.2) < 1e-12,
        "serve share of a 3-lane cycle");
  Check(CycleServeShare(busy, 1) == 0.0, "filter beyond the wall clamps to 0");
  Check(CycleServeShare({5, 5, 0.0}, 1) == 0.0, "empty cycle has no share");
  const std::vector<Cycle> cycles = {{0, 10, 0.0}, {10, 20, 0.0},
                                     {25, 30, 0.0}};
  Check(CycleOf(cycles, 5) == 0, "callback inside the first sweep");
  Check(CycleOf(cycles, 10) == 0, "callback at a sweep's end");
  Check(CycleOf(cycles, 22) == 2, "callback between sweeps -> next one");
  Check(CycleOf(cycles, 31) == 3, "callback after the last sweep");

  // 100 events; the slowest two sit in serve-bound cycles.
  std::vector<double> latency;
  std::vector<double> share;
  for (int i = 1; i <= 100; ++i) {
    latency.push_back(i);
    share.push_back(i > 98 ? 1.0 : 0.0);
  }
  Check(ServeShareAtPercentile(latency, share, 99.0) == 1.0,
        "p99 share comes from the events at or above p99");
  Check(std::fabs(ServeShareAtPercentile(latency, share, 50.0) - 2.0 / 51.0) <
            1e-12,
        "p50 share averages the slower half");
  Check(ServeShareAtPercentile({}, {}, 50.0) == 0.0, "no events, no share");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::TestClosingRecord();
  perfbench::TestPercentileRule();
  perfbench::TestMedianAcrossPasses();
  perfbench::TestLadderRule();
  perfbench::TestAttribution();
  if (perfbench::g_failures > 0) {
    std::fprintf(stderr, "selftest: %d of %d checks failed\n",
                 perfbench::g_failures, perfbench::g_checks);
    return 1;
  }
  std::printf("selftest: %d checks passed\n", perfbench::g_checks);
  return 0;
}
