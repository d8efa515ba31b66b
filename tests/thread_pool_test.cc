// The ThreadPool scheduling contract: fn(i, lane) runs exactly once per
// index regardless of thread count or which lane happens to claim which
// index. The index-to-lane assignment is a race by design, so these tests
// only ever assert on per-index effects — and the stress cases double as
// the TSan target for the claim cursor.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "util/thread_pool.h"

namespace rfid {
namespace {

/// Runs ParallelFor and returns how many times each index was visited
/// (always expected to be exactly one).
std::vector<int> CountVisits(ThreadPool* pool, size_t n) {
  std::vector<std::unique_ptr<std::atomic<int>>> hits(n);
  for (auto& h : hits) h = std::make_unique<std::atomic<int>>(0);
  pool->ParallelFor(n, [&hits](size_t i, int lane) {
    ASSERT_GE(lane, 0);
    hits[i]->fetch_add(1, std::memory_order_relaxed);
  });
  std::vector<int> counts(n);
  for (size_t i = 0; i < n; ++i) counts[i] = hits[i]->load();
  return counts;
}

TEST(ThreadPoolTest, VisitsEveryIndexOnce) {
  for (int threads : {1, 2, 4, 8}) {
    ThreadPool pool(threads);
    // Ranges smaller than, equal to and much larger than the lane count.
    for (size_t n : {size_t{2}, size_t{8}, size_t{100}, size_t{1000}}) {
      const std::vector<int> counts = CountVisits(&pool, n);
      for (size_t i = 0; i < counts.size(); ++i) {
        EXPECT_EQ(counts[i], 1)
            << "threads=" << threads << " n=" << n << " index=" << i;
      }
    }
  }
}

TEST(ThreadPoolTest, HandlesEmptyAndTinyRanges) {
  ThreadPool pool(4);
  bool ran = false;
  pool.ParallelFor(0, [&ran](size_t, int) { ran = true; });
  EXPECT_FALSE(ran);

  // n == 1 runs inline on the caller (lane 0), no dispatch.
  int lane_seen = -1;
  size_t index_seen = 99;
  pool.ParallelFor(1, [&](size_t i, int lane) {
    index_seen = i;
    lane_seen = lane;
  });
  EXPECT_EQ(index_seen, 0u);
  EXPECT_EQ(lane_seen, 0);

  // More lanes than indices: every index still visited exactly once.
  const std::vector<int> counts = CountVisits(&pool, 3);
  for (int c : counts) EXPECT_EQ(c, 1);
}

TEST(ThreadPoolTest, PerLaneSumsMatchSerialSum) {
  // Lanes are valid scratch indices: per-lane accumulators summed after the
  // join equal the serial result, whichever lane claimed which index.
  ThreadPool pool(4);
  const size_t n = 1000;
  std::vector<uint64_t> per_lane(static_cast<size_t>(pool.num_threads()), 0);
  pool.ParallelFor(n, [&per_lane](size_t i, int lane) {
    per_lane[static_cast<size_t>(lane)] += i * i + 1;
  });
  uint64_t total = 0;
  for (uint64_t s : per_lane) total += s;
  uint64_t serial = 0;
  for (size_t i = 0; i < n; ++i) serial += i * i + 1;
  EXPECT_EQ(total, serial);
}

TEST(ThreadPoolTest, StressBackToBackJobs) {
  // TSan target: many back-to-back jobs maximize contention on the claim
  // cursor and on the job publish/complete handshake. Any missing
  // synchronization in the cursor protocol shows up here as a data race or
  // a lost/duplicated index.
  ThreadPool pool(8);
  const size_t n = 257;  // Not a multiple of the lane count.
  std::vector<std::unique_ptr<std::atomic<int>>> hits(n);
  for (auto& h : hits) h = std::make_unique<std::atomic<int>>(0);
  for (int round = 0; round < 200; ++round) {
    pool.ParallelFor(n, [&hits](size_t i, int) {
      hits[i]->fetch_add(1, std::memory_order_relaxed);
    });
  }
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(hits[i]->load(), 200) << "index " << i;
  }
}

TEST(ThreadPoolTest, ReusableAcrossJobsOfVaryingSize) {
  // Consecutive jobs share the worker loop; the cursor and range of one job
  // must not leak into the next, shorter or longer, one.
  ThreadPool pool(3);
  for (int round = 0; round < 20; ++round) {
    const size_t n = round % 2 == 0 ? 50 + static_cast<size_t>(round)
                                     : 5 + static_cast<size_t>(round % 4);
    const std::vector<int> counts = CountVisits(&pool, n);
    for (int c : counts) ASSERT_EQ(c, 1) << "round " << round;
  }
}

}  // namespace
}  // namespace rfid
