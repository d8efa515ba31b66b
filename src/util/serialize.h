// POD stream-serialization helpers shared by every binary state format in
// the tree (filter snapshots, emitter/synchronizer state, site
// checkpoints). Same-architecture binary IO: fixed-width fields, native
// endianness, no interchange ambitions — see pf/snapshot.h.
#pragma once

#include <cstdint>
#include <ios>
#include <iosfwd>
#include <istream>
#include <ostream>
#include <string>
#include <type_traits>

#include "util/crc32.h"
#include "util/status.h"

namespace rfid {
namespace serialize {

template <typename T>
inline void WritePod(std::ostream& os, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  os.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
inline bool ReadPod(std::istream& is, T* value) {
  static_assert(std::is_trivially_copyable_v<T>);
  is.read(reinterpret_cast<char*>(value), sizeof(T));
  return is.good();
}

/// Sanity cap for serialized element counts: a state blob claiming more
/// than this is corrupt, not big.
constexpr uint64_t kMaxCount = 100'000'000;

/// Sanity cap for framed-section lengths (1 GiB): a section header claiming
/// more is corrupt, and rejecting it early keeps a flipped length byte from
/// turning into a giant allocation.
constexpr uint64_t kMaxSectionBytes = uint64_t{1} << 30;

/// Bytes between the read position of `is` and the end of its input, or
/// UINT64_MAX when the stream cannot seek (then only the sanity caps bound a
/// claimed size). Parsers compare a claimed length or count against this
/// *before* allocating for it, so a corrupt or hostile size field costs at
/// most an allocation the size of the input. Works on the stream buffer
/// directly and restores its position, leaving the stream state untouched.
inline uint64_t BytesRemaining(std::istream& is) {
  constexpr uint64_t kUnknown = UINT64_MAX;
  std::streambuf* buf = is.rdbuf();
  if (buf == nullptr) return kUnknown;
  const std::streampos here = buf->pubseekoff(0, std::ios::cur, std::ios::in);
  if (here == std::streampos(-1)) return kUnknown;
  const std::streampos end = buf->pubseekoff(0, std::ios::end, std::ios::in);
  buf->pubseekpos(here, std::ios::in);
  if (end == std::streampos(-1) || end < here) return kUnknown;
  return static_cast<uint64_t>(end - here);
}

/// True when `count` records of at least `min_record_bytes` serialized bytes
/// each fit in `remaining` bytes of input (and under kMaxCount).
inline bool CountFits(uint64_t count, uint64_t min_record_bytes,
                      uint64_t remaining) {
  return count <= kMaxCount && count <= remaining / min_record_bytes;
}

/// Writes one CRC-framed section: [u64 length][u32 crc32][bytes]. The
/// checksum lets the reader verify the bytes *before* parsing them, so a
/// torn or bit-rotted checkpoint section fails with a clean Status instead
/// of being half-applied.
inline void WriteFramedSection(std::ostream& os, const std::string& payload) {
  WritePod(os, static_cast<uint64_t>(payload.size()));
  WritePod(os, Crc32(payload.data(), payload.size()));
  os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
}

/// Reads and verifies one framed section into `out`. Distinguishes
/// truncation (IOError) from corruption (InvalidArgument, on length
/// insanity or checksum mismatch).
inline Status ReadFramedSection(std::istream& is, std::string* out) {
  uint64_t length = 0;
  uint32_t expected_crc = 0;
  if (!ReadPod(is, &length)) {
    return Status::IOError("truncated section header");
  }
  if (length > kMaxSectionBytes) {
    return Status::Invalid("section length " + std::to_string(length) +
                           " exceeds sanity cap (corrupt header)");
  }
  if (!ReadPod(is, &expected_crc)) {
    return Status::IOError("truncated section header");
  }
  if (length > BytesRemaining(is)) {
    return Status::IOError("truncated section body");
  }
  out->resize(length);
  if (length > 0) {
    is.read(out->data(), static_cast<std::streamsize>(length));
    if (!is.good()) return Status::IOError("truncated section body");
  }
  const uint32_t actual_crc = Crc32(out->data(), out->size());
  if (actual_crc != expected_crc) {
    return Status::Invalid("section checksum mismatch (corrupt bytes)");
  }
  return Status::OK();
}

}  // namespace serialize
}  // namespace rfid
