#include "pf/snapshot.h"

#include <cstring>
#include <istream>
#include <ostream>
#include <sstream>

#include "util/serialize.h"

namespace rfid {

namespace {

using serialize::BytesRemaining;
using serialize::CountFits;
using serialize::ReadFramedSection;
using serialize::ReadPod;
using serialize::WriteFramedSection;
using serialize::WritePod;

constexpr char kMagic[8] = {'R', 'F', 'I', 'D', 'S', 'N', 'A', 'P'};
// v2 appends the RNG state and the particle-updates counter after the index
// section, making post-restore replay bit-identical to the uninterrupted
// run (v1 reseeded from the config instead).
// v3 adds the hibernation tier per object state: a `hibernated` flag plus
// the last-revived step (which hibernation idleness keys on).
// v4 wraps the entire belief payload in a CRC32 frame ([u64 len][u32 crc]
// after the header): corruption anywhere in the body is detected before a
// single field is parsed. The payload layout itself is unchanged from v3.
//
// Version window: one back. v3 still loads (its body is parsed directly
// from the stream, without frame verification); v2 and older are rejected
// with an error naming the oldest loadable version — the deprecation story
// is "every release loads its predecessor's files, so step through
// releases, re-saving, to migrate older state".
constexpr uint32_t kVersion = 4;
constexpr uint32_t kMinVersion = 3;

// Smallest serialized size of each counted record. A count is checked
// against the bytes left in the input before anything is allocated for it.
constexpr uint64_t kReaderBytes = 5 * sizeof(double);  // Pose + weight.
constexpr uint64_t kStateMinBytes =
    sizeof(TagId) + 3 * sizeof(int64_t) + 9 * sizeof(double) +
    2 * sizeof(uint8_t) + sizeof(uint64_t);
constexpr uint64_t kParticleBytes =
    3 * sizeof(double) + sizeof(uint32_t) + sizeof(double);
constexpr uint64_t kEntryMinBytes = 6 * sizeof(double) + sizeof(uint64_t);

void WriteVec3(std::ostream& os, const Vec3& v) {
  WritePod(os, v.x);
  WritePod(os, v.y);
  WritePod(os, v.z);
}

bool ReadVec3(std::istream& is, Vec3* v) {
  return ReadPod(is, &v->x) && ReadPod(is, &v->y) && ReadPod(is, &v->z);
}

Status Truncated() { return Status::IOError("truncated snapshot"); }

}  // namespace

Status SaveFilterSnapshot(const FactoredParticleFilter& filter,
                          std::ostream& sink) {
  // The on-disk format has no notion of a pending reader remap: replay any
  // deferred ones so the persisted attachments are fully remapped (a
  // restored filter then starts with an empty remap history).
  filter.SyncAllReaderAttachments();
  // The belief payload — everything after the magic+version header — goes
  // into a CRC frame: the loader verifies the checksum before parsing a
  // single field.
  std::ostringstream os;
  WritePod(os, filter.step_);
  WritePod(os, static_cast<uint8_t>(filter.readers_initialized_ ? 1 : 0));

  WritePod(os, static_cast<uint64_t>(filter.readers_.size()));
  for (const auto& r : filter.readers_) {
    WriteVec3(os, r.pose.position);
    WritePod(os, r.pose.heading);
    WritePod(os, r.weight);
  }

  WritePod(os, static_cast<uint64_t>(filter.states_.size()));
  for (const auto& state : filter.states_) {
    WritePod(os, state.tag);
    WritePod(os, state.last_observed_step);
    WritePod(os, state.last_processed_step);
    WriteVec3(os, state.last_observed_reader_position);
    WriteVec3(os, state.particle_bounds.min);
    WriteVec3(os, state.particle_bounds.max);
    WritePod(os, static_cast<uint8_t>(state.IsCompressed() ? 1 : 0));
    WritePod(os, static_cast<uint8_t>(state.hibernated ? 1 : 0));
    WritePod(os, state.last_revived_step);
    if (state.IsCompressed()) {
      WriteVec3(os, state.compressed->mean());
      for (double c : state.compressed->covariance()) WritePod(os, c);
    }
    WritePod(os, static_cast<uint64_t>(state.particles.size()));
    for (const auto& p : state.particles) {
      WriteVec3(os, p.position);
      WritePod(os, p.reader_idx);
      WritePod(os, p.weight);
    }
  }

  WritePod(os, static_cast<uint64_t>(filter.index_.num_entries()));
  filter.index_.ForEachEntry(
      [&os](const Aabb& box, const std::vector<uint32_t>& slots) {
        WriteVec3(os, box.min);
        WriteVec3(os, box.max);
        WritePod(os, static_cast<uint64_t>(slots.size()));
        for (uint32_t s : slots) WritePod(os, s);
      });

  const RngState rng_state = filter.rng_.SaveState();
  for (uint64_t word : rng_state.s) WritePod(os, word);
  WritePod(os, rng_state.cached_gaussian);
  WritePod(os, static_cast<uint8_t>(rng_state.cached_gaussian_valid ? 1 : 0));
  WritePod(os, filter.particle_updates_.load(std::memory_order_relaxed));

  if (!os.good()) return Status::IOError("failed serializing snapshot");
  sink.write(kMagic, sizeof(kMagic));
  WritePod(sink, kVersion);
  WriteFramedSection(sink, os.str());
  if (!sink.good()) return Status::IOError("failed writing snapshot");
  return Status::OK();
}

Status LoadFilterSnapshot(std::istream& source, FactoredParticleFilter* filter) {
  // Body parser (everything after the header), lambda for friend access.
  // Every count is bounded by the body's size before it sizes a container,
  // so a corrupt count fails as truncation without a giant allocation.
  const auto load_body = [filter](std::istream& is) -> Status {
  const uint64_t body_bytes = BytesRemaining(is);
  int64_t step = 0;
  uint8_t readers_initialized = 0;
  if (!ReadPod(is, &step) || !ReadPod(is, &readers_initialized)) {
    return Truncated();
  }

  uint64_t reader_count = 0;
  if (!ReadPod(is, &reader_count) ||
      !CountFits(reader_count, kReaderBytes, body_bytes)) {
    return Truncated();
  }
  std::vector<FactoredParticleFilter::ReaderParticle> readers(reader_count);
  for (auto& r : readers) {
    if (!ReadVec3(is, &r.pose.position) || !ReadPod(is, &r.pose.heading) ||
        !ReadPod(is, &r.weight)) {
      return Truncated();
    }
  }

  uint64_t state_count = 0;
  if (!ReadPod(is, &state_count) ||
      !CountFits(state_count, kStateMinBytes, body_bytes)) {
    return Truncated();
  }
  std::vector<FactoredParticleFilter::ObjectState> states(state_count);
  for (auto& state : states) {
    uint8_t compressed = 0;
    if (!ReadPod(is, &state.tag) || !ReadPod(is, &state.last_observed_step) ||
        !ReadPod(is, &state.last_processed_step) ||
        !ReadVec3(is, &state.last_observed_reader_position) ||
        !ReadVec3(is, &state.particle_bounds.min) ||
        !ReadVec3(is, &state.particle_bounds.max) ||
        !ReadPod(is, &compressed)) {
      return Truncated();
    }
    uint8_t hibernated = 0;
    if (!ReadPod(is, &hibernated) || !ReadPod(is, &state.last_revived_step)) {
      return Truncated();
    }
    if (hibernated != 0 && compressed == 0) {
      return Status::Invalid(
          "snapshot has a hibernated object without a summary");
    }
    state.hibernated = hibernated != 0;
    if (compressed != 0) {
      Vec3 mean;
      std::array<double, 6> cov;
      if (!ReadVec3(is, &mean)) return Truncated();
      for (double& c : cov) {
        if (!ReadPod(is, &c)) return Truncated();
      }
      state.compressed = GaussianBelief(mean, cov);
    }
    uint64_t particle_count = 0;
    if (!ReadPod(is, &particle_count) ||
        !CountFits(particle_count, kParticleBytes, body_bytes)) {
      return Truncated();
    }
    state.particles.reserve(particle_count);
    for (uint64_t k = 0; k < particle_count; ++k) {
      Vec3 position;
      uint32_t reader_idx = 0;
      double weight = 0.0;
      if (!ReadVec3(is, &position) || !ReadPod(is, &reader_idx) ||
          !ReadPod(is, &weight)) {
        return Truncated();
      }
      if (reader_idx >= reader_count) {
        return Status::Invalid("snapshot particle references invalid reader");
      }
      state.particles.PushBack(position, reader_idx, weight);
    }
  }

  uint64_t entry_count = 0;
  if (!ReadPod(is, &entry_count) ||
      !CountFits(entry_count, kEntryMinBytes, body_bytes)) {
    return Truncated();
  }
  SensingRegionIndex index(filter->config_.index);
  for (uint64_t e = 0; e < entry_count; ++e) {
    Aabb box;
    uint64_t slot_count = 0;
    if (!ReadVec3(is, &box.min) || !ReadVec3(is, &box.max) ||
        !ReadPod(is, &slot_count) ||
        !CountFits(slot_count, sizeof(uint32_t), body_bytes)) {
      return Truncated();
    }
    std::vector<uint32_t> slots(slot_count);
    for (auto& s : slots) {
      if (!ReadPod(is, &s)) return Truncated();
      if (s >= state_count) {
        return Status::Invalid("snapshot index references invalid slot");
      }
    }
    index.Insert(box, slots);
  }

  RngState rng_state;
  uint8_t cached_valid = 0;
  uint64_t particle_updates = 0;
  for (uint64_t& word : rng_state.s) {
    if (!ReadPod(is, &word)) return Truncated();
  }
  if (!ReadPod(is, &rng_state.cached_gaussian) ||
      !ReadPod(is, &cached_valid) || !ReadPod(is, &particle_updates)) {
    return Truncated();
  }
  rng_state.cached_gaussian_valid = cached_valid != 0;

  // Commit only after the whole snapshot parsed.
  filter->rng_.RestoreState(rng_state);
  filter->particle_updates_.store(particle_updates,
                                  std::memory_order_relaxed);
  filter->step_ = step;
  filter->readers_initialized_ = readers_initialized != 0;
  filter->readers_ = std::move(readers);
  filter->states_ = std::move(states);
  filter->index_ = std::move(index);
  filter->slot_of_tag_.clear();
  for (uint32_t slot = 0; slot < filter->states_.size(); ++slot) {
    filter->slot_of_tag_[filter->states_[slot].tag] = slot;
  }
  // Snapshots are saved fully synced, so the restored filter starts with no
  // pending remaps (every loaded state carries the default reader_gen 0).
  filter->remap_history_.clear();
  filter->reader_gen_ = 0;
  filter->remap_base_gen_ = 0;
  // The index's hibernation bits are derived state; rebuild them so the
  // all-hibernated entry skip resumes exactly where the saved filter was.
  for (uint32_t slot = 0; slot < filter->states_.size(); ++slot) {
    if (filter->states_[slot].hibernated) {
      filter->index_.SetSlotHibernated(slot, true);
    }
  }
  return Status::OK();
  };  // load_body

  char magic[8];
  source.read(magic, sizeof(magic));
  if (!source.good() || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return Status::Invalid("not a filter snapshot (bad magic)");
  }
  uint32_t version = 0;
  if (!ReadPod(source, &version)) return Truncated();
  if (version < kMinVersion || version > kVersion) {
    return Status::Invalid(
        "unsupported snapshot version " + std::to_string(version) +
        " (oldest loadable is v" + std::to_string(kMinVersion) +
        "; load windows are one version back — migrate older snapshots by "
        "re-saving them with the release that wrote them plus one)");
  }
  if (version >= 4) {
    // Verify the payload checksum before parsing a single field.
    std::string body;
    RFID_RETURN_NOT_OK(ReadFramedSection(source, &body));
    std::istringstream body_stream(body);
    return load_body(body_stream);
  }
  return load_body(source);
}

}  // namespace rfid
