// Hostile size fields must never turn into large allocations: every byte
// parser compares a claimed length or count against the bytes actually left
// in its input before it allocates for it, and fails with a Status.
//
// This binary replaces the global allocation functions to record the
// largest single request. Requests above kRefuseBytes throw std::bad_alloc
// instead of reaching malloc, so a parser that trusts a corrupt size fails
// here (an escaped exception, or a recorded request over the bound) without
// paging in gigabytes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "pf/snapshot.h"
#include "serve/diagnostics.h"
#include "stream/emitter.h"
#include "stream/synchronizer.h"
#include "test_util.h"
#include "util/serialize.h"

namespace {

std::atomic<size_t> g_largest_request{0};
constexpr size_t kRefuseBytes = size_t{64} << 20;

void* Allocate(size_t n) {
  size_t seen = g_largest_request.load(std::memory_order_relaxed);
  while (n > seen && !g_largest_request.compare_exchange_weak(
                         seen, n, std::memory_order_relaxed)) {
  }
  if (n > kRefuseBytes) throw std::bad_alloc();
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(size_t n) { return Allocate(n); }
void* operator new[](size_t n) { return Allocate(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace rfid {
namespace {

using serialize::WriteFramedSection;
using serialize::WritePod;

/// Largest single allocation a parse of a small blob may make.
constexpr size_t kMaxRequestBytes = size_t{1} << 20;

/// Runs `parse` and returns the largest single allocation it requested.
template <typename Fn>
size_t LargestRequestDuring(Fn&& parse) {
  g_largest_request.store(0, std::memory_order_relaxed);
  parse();
  return g_largest_request.load(std::memory_order_relaxed);
}

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name + "_" +
         std::to_string(::getpid());
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

/// A section header claiming 1 GiB (the sanity cap itself), followed by
/// four payload bytes: 16 bytes in all.
std::string OneGibSectionOverSixteenBytes() {
  std::ostringstream os;
  WritePod(os, uint64_t{1} << 30);
  WritePod(os, uint32_t{0});
  os.write("abcd", 4);
  return os.str();
}

TEST(ParserBoundsTest, FramedSectionClaimingOneGibOverSixteenBytes) {
  const std::string blob = OneGibSectionOverSixteenBytes();
  ASSERT_EQ(blob.size(), 16u);
  Status status;
  std::string out;
  std::istringstream is(blob);
  const size_t largest = LargestRequestDuring(
      [&] { status = serialize::ReadFramedSection(is, &out); });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
  EXPECT_LE(largest, kMaxRequestBytes);
}

TEST(ParserBoundsTest, FramedSectionFromFileClaimingOneGib) {
  // The checkpoint loaders read sections straight from file streams.
  const std::string path = TempPath("one_gib_section");
  WriteFile(path, OneGibSectionOverSixteenBytes());
  Status status;
  std::string out;
  std::ifstream is(path, std::ios::binary);
  const size_t largest = LargestRequestDuring(
      [&] { status = serialize::ReadFramedSection(is, &out); });
  EXPECT_FALSE(status.ok());
  EXPECT_LE(largest, kMaxRequestBytes);
  std::filesystem::remove(path);
}

/// The v3/v4 snapshot payload of one reader and one active object whose
/// particle count is `particle_count` (no particles follow), or an object
/// list claiming `state_count` objects (no objects follow).
std::string SnapshotBody(uint64_t state_count, uint64_t particle_count) {
  std::ostringstream os;
  WritePod(os, int64_t{5});    // step
  WritePod(os, uint8_t{1});    // readers initialized
  WritePod(os, uint64_t{1});   // reader count
  for (int i = 0; i < 5; ++i) WritePod(os, 0.0);  // pose + weight
  WritePod(os, state_count);
  if (state_count != 1) return os.str();
  WritePod(os, TagId{1000});
  WritePod(os, int64_t{4});  // last observed step
  WritePod(os, int64_t{4});  // last processed step
  for (int i = 0; i < 9; ++i) WritePod(os, 0.0);  // reader position, bounds
  WritePod(os, uint8_t{0});  // compressed
  WritePod(os, uint8_t{0});  // hibernated
  WritePod(os, int64_t{-1});  // last revived step
  WritePod(os, particle_count);
  return os.str();
}

std::string Snapshot(uint32_t version, const std::string& body) {
  std::ostringstream os;
  os.write("RFIDSNAP", 8);
  WritePod(os, version);
  if (version >= 4) {
    WriteFramedSection(os, body);
  } else {
    os.write(body.data(), static_cast<std::streamsize>(body.size()));
  }
  return os.str();
}

void ExpectSnapshotRejectedCheaply(const std::string& blob) {
  FactoredParticleFilter filter(testing_util::MakeLineWorld(),
                                FactoredFilterConfig{});
  Status status;
  std::istringstream is(blob);
  const size_t largest =
      LargestRequestDuring([&] { status = LoadFilterSnapshot(is, &filter); });
  EXPECT_FALSE(status.ok());
  EXPECT_LE(largest, kMaxRequestBytes);
  EXPECT_EQ(filter.current_step(), 0);  // Nothing committed.
}

TEST(ParserBoundsTest, V3SnapshotClaimingHundredMillionParticles) {
  ExpectSnapshotRejectedCheaply(
      Snapshot(3, SnapshotBody(1, serialize::kMaxCount)));
}

TEST(ParserBoundsTest, V4SnapshotClaimingHundredMillionParticles) {
  // A valid CRC does not make the counts inside the frame trustworthy.
  ExpectSnapshotRejectedCheaply(
      Snapshot(4, SnapshotBody(1, serialize::kMaxCount)));
}

TEST(ParserBoundsTest, SnapshotClaimingHundredMillionObjects) {
  ExpectSnapshotRejectedCheaply(
      Snapshot(3, SnapshotBody(serialize::kMaxCount, 0)));
}

/// A dead-letter spill whose CRC-valid payload claims `count` entries, the
/// first with a reason of `reason_len` bytes; only a few bytes follow.
std::string Spill(uint64_t count, uint32_t reason_len) {
  std::ostringstream payload;
  WritePod(payload, SiteId{7});
  WritePod(payload, count);
  WritePod(payload, uint64_t{1});  // sequence
  WritePod(payload, reason_len);
  payload.write("poison", 6);
  std::ostringstream os;
  os.write("RFIDDLQ\0", 8);
  WritePod(os, uint32_t{1});
  WriteFramedSection(os, payload.str());
  return os.str();
}

void ExpectSpillRejectedCheaply(const std::string& blob, const char* name) {
  const std::string path = TempPath(name);
  WriteFile(path, blob);
  SiteId site = 0;
  std::vector<SpilledDeadLetter> entries;
  Status status;
  const size_t largest = LargestRequestDuring(
      [&] { status = ReadDeadLetterSpill(path, &site, &entries); });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
  EXPECT_LE(largest, kMaxRequestBytes);
  std::filesystem::remove(path);
}

TEST(ParserBoundsTest, SpillWithFourGibReasonLength) {
  ExpectSpillRejectedCheaply(Spill(1, 0xFFFFFFFFu), "spill_reason_len");
}

TEST(ParserBoundsTest, SpillClaimingHundredMillionEntries) {
  ExpectSpillRejectedCheaply(Spill(serialize::kMaxCount, 6), "spill_count");
}

/// Emitter state header claiming `scope_count` tag scopes; none follow.
std::string EmitterStateClaiming(uint64_t scope_count) {
  std::ostringstream os;
  WritePod(os, int64_t{3});  // epoch counter
  WritePod(os, scope_count);
  return os.str();
}

TEST(ParserBoundsTest, EmitterStateClaimingHundredMillionScopes) {
  const std::string blob = EmitterStateClaiming(serialize::kMaxCount);
  ASSERT_EQ(blob.size(), 16u);
  EventEmitter emitter(EmitterConfig{});
  Status status;
  std::istringstream is(blob);
  const size_t largest =
      LargestRequestDuring([&] { status = emitter.LoadState(is); });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
  EXPECT_LE(largest, kMaxRequestBytes);
}

/// Synchronizer state header claiming `pending_count` open epochs; none
/// follow.
std::string SynchronizerStateClaiming(uint64_t pending_count) {
  std::ostringstream os;
  WritePod(os, uint8_t{1});    // any seen
  WritePod(os, 12.5);          // max seen time
  WritePod(os, uint8_t{1});    // any closed
  WritePod(os, int64_t{11});   // highest closed epoch
  WritePod(os, uint64_t{0});   // dropped late records
  WritePod(os, uint64_t{0});   // skipped gap epochs
  WritePod(os, pending_count);
  return os.str();
}

void ExpectSynchronizerStateRejectedCheaply(const std::string& blob) {
  StreamSynchronizer synchronizer;
  Status status;
  std::istringstream is(blob);
  const size_t largest =
      LargestRequestDuring([&] { status = synchronizer.LoadState(is); });
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIOError) << status.ToString();
  EXPECT_LE(largest, kMaxRequestBytes);
}

TEST(ParserBoundsTest, SynchronizerStateClaimingHundredMillionEpochs) {
  const std::string blob = SynchronizerStateClaiming(serialize::kMaxCount);
  ASSERT_EQ(blob.size(), 42u);
  ExpectSynchronizerStateRejectedCheaply(blob);
}

TEST(ParserBoundsTest, SynchronizerEpochClaimingHundredMillionTags) {
  std::ostringstream os;
  os << SynchronizerStateClaiming(1);
  WritePod(os, int64_t{12});  // epoch index
  WritePod(os, serialize::kMaxCount);
  ExpectSynchronizerStateRejectedCheaply(os.str());
}

}  // namespace
}  // namespace rfid
