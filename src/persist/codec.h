// Binary persistence primitives for crash-tolerant state.
//
// Everything FChain persists across a process death — slave model snapshots,
// sample journals, the master's incident journal — goes through this codec:
// little-endian fixed-width fields (doubles bit-cast, so a decode restores
// the *exact* bits the encoder saw — the warm-restart equivalence guarantee
// depends on that), a framed container with magic + version + payload length
// + CRC-32 so a torn or bit-rotted file is rejected with the byte offset of
// the damage instead of being read as garbage, and rename-on-write file I/O
// so a crash mid-write can never leave a corrupt file under the real name.
//
// Layering: fchain_persist links only fchain_common. Higher layers own the
// shape of what they persist (core::FChainSlave::snapshot() produces the
// persist::SlaveSnapshot value; sim::record_io shares crc32 for its text
// trailer); this module owns the bytes.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace fchain::persist {

/// Thrown when decode rejects malformed bytes. `offset()` is the byte
/// position (within the buffer or file) where the corruption was detected.
class CorruptDataError : public std::runtime_error {
 public:
  CorruptDataError(const std::string& what, std::size_t offset)
      : std::runtime_error(what + " (at byte offset " +
                           std::to_string(offset) + ")"),
        offset_(offset) {}

  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

/// CRC-32 (IEEE 802.3, the zlib polynomial). Pass the previous return value
/// as `seed` to checksum data in chunks.
std::uint32_t crc32(const void* data, std::size_t size,
                    std::uint32_t seed = 0);

inline std::uint32_t crc32(std::span<const std::uint8_t> bytes,
                           std::uint32_t seed = 0) {
  return crc32(bytes.data(), bytes.size(), seed);
}

/// Little-endian append-only byte writer. On little-endian hosts a field or
/// a double array is appended as one copy of its bytes; elsewhere byte by
/// byte. Both give the same bytes.
///
/// A header whose fields depend on what follows it (a frame's length and
/// CRC) is written in place: `skip` its bytes, encode what follows, then
/// `patchU32`/`patchU64` the header. The payload is never copied.
class Encoder {
 public:
  /// Makes room for `n` more bytes, so appending them allocates nothing.
  void reserve(std::size_t n) { buffer_.reserve(buffer_.size() + n); }

  void u8(std::uint8_t v) { buffer_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  /// Exact bit pattern: the decoder restores the identical double.
  void f64(double v);
  void bytes(std::span<const std::uint8_t> data);
  /// u64 count followed by the raw doubles.
  void doubles(std::span<const double> values);

  /// Appends `n` zero bytes for a header patched in later.
  void skip(std::size_t n) { buffer_.resize(buffer_.size() + n); }
  /// Overwrite bytes already written, at `offset`, little-endian.
  void patchU32(std::size_t offset, std::uint32_t v);
  void patchU64(std::size_t offset, std::uint64_t v);
  /// The bytes written from `offset` on, e.g. the payload behind a header.
  std::span<const std::uint8_t> bytesFrom(std::size_t offset) const {
    return std::span<const std::uint8_t>(buffer_).subspan(offset);
  }

  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  void append(const void* data, std::size_t size);

  std::vector<std::uint8_t> buffer_;
};

/// Bounds-checked reader over an Encoder-produced buffer. Every read that
/// would run past the end throws CorruptDataError carrying the offset.
class Decoder {
 public:
  explicit Decoder(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64();
  /// Reads a u64 count + that many doubles. The count is validated against
  /// the remaining bytes first, so a corrupt length field fails here instead
  /// of triggering a multi-gigabyte allocation.
  std::vector<double> doubles();
  /// The next `n` bytes, as a view into the decoded buffer (no copy).
  std::span<const std::uint8_t> bytes(std::size_t n);

  std::size_t offset() const { return offset_; }
  std::size_t remaining() const { return bytes_.size() - offset_; }
  bool done() const { return offset_ == bytes_.size(); }

  [[noreturn]] void fail(const std::string& why) const {
    throw CorruptDataError(why, offset_);
  }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t offset_ = 0;
};

/// Framed container: magic u32 | version u32 | payload length u64 |
/// payload crc32 u32 | payload bytes.
inline constexpr std::size_t kFrameHeaderSize = 4 + 4 + 8 + 4;

/// Starts a frame in one buffer: a blank header, with room for
/// `payload_capacity` bytes behind it. Encode the payload into the returned
/// Encoder, then pass it to sealFrame.
Encoder beginFrame(std::size_t payload_capacity = 0);

/// Patches magic, version, payload length and payload CRC into the header
/// of a beginFrame Encoder, and returns its buffer as the finished frame.
std::vector<std::uint8_t> sealFrame(Encoder frame, std::uint32_t magic,
                                    std::uint32_t version);

/// A frame around a copy of `payload` (beginFrame, then sealFrame).
std::vector<std::uint8_t> frame(std::uint32_t magic, std::uint32_t version,
                                std::span<const std::uint8_t> payload);

struct FrameView {
  std::uint32_t version = 0;
  std::span<const std::uint8_t> payload;
};

/// Validates magic, version range, payload length, and checksum; throws
/// CorruptDataError (with the offending byte offset) on any mismatch.
FrameView unframe(std::span<const std::uint8_t> bytes, std::uint32_t magic,
                  std::uint32_t max_version);

// --- File I/O -------------------------------------------------------------

/// Writes `path` atomically and durably: the bytes land in `path + ".tmp"`,
/// are fsync'd to the device, and only then renamed over the target (with a
/// best-effort directory fsync after), so a crash — process death, kernel
/// panic, or power loss — leaves either the old file or the new one, never
/// a torn hybrid. On non-POSIX platforms the fsyncs are skipped and the
/// guarantee is scoped to process-level crashes.
void writeFileAtomic(const std::string& path,
                     std::span<const std::uint8_t> bytes);

/// Whole-file read; throws std::runtime_error when `path` is missing, is not
/// a regular file (a directory, say), or cannot be read.
std::vector<std::uint8_t> readFileBytes(const std::string& path);

bool fileExists(const std::string& path);

}  // namespace fchain::persist
