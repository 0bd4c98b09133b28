#include "persist/codec.h"

#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace fchain::persist {

namespace {

constexpr bool kLittleEndian = std::endian::native == std::endian::little;

using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

/// Slice-by-8 tables. tables[0] is the classic byte-at-a-time table;
/// tables[k][b] advances byte b through k more zero bytes, so one step of
/// crc32 folds 8 input bytes with 8 independent lookups.
constexpr CrcTables makeCrcTables() {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xffu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = makeCrcTables();

/// Unaligned little-endian load; compilers fold it into one load.
std::uint32_t loadLe32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

#if defined(__unix__) || defined(__APPLE__)
/// fsyncs a file or directory by path (POSIX allows fsync on a read-only
/// descriptor). Returns false when the path cannot be opened or synced.
bool syncPath(const char* path) {
  const int fd = ::open(path, O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}
#endif

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size, std::uint32_t seed) {
  const CrcTables& t = kCrcTables;
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xffffffffu;
  for (; size >= 8; bytes += 8, size -= 8) {
    const std::uint32_t lo = loadLe32(bytes) ^ c;
    const std::uint32_t hi = loadLe32(bytes + 4);
    c = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
        t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
        t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    c = t[0][(c ^ *bytes) & 0xffu] ^ (c >> 8);
  }
  return c ^ 0xffffffffu;
}

void Encoder::append(const void* data, std::size_t size) {
  // One insert of the bytes: resize + memcpy would zero-fill them first.
  const auto* first = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), first, first + size);
}

void Encoder::u32(std::uint32_t v) {
  if constexpr (kLittleEndian) {
    append(&v, sizeof v);
  } else {
    for (int i = 0; i < 4; ++i) {
      buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
}

void Encoder::u64(std::uint64_t v) {
  if constexpr (kLittleEndian) {
    append(&v, sizeof v);
  } else {
    for (int i = 0; i < 8; ++i) {
      buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }
}

void Encoder::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Encoder::bytes(std::span<const std::uint8_t> data) {
  buffer_.insert(buffer_.end(), data.begin(), data.end());
}

void Encoder::doubles(std::span<const double> values) {
  u64(values.size());
  if constexpr (kLittleEndian) {
    append(values.data(), values.size_bytes());
  } else {
    for (double v : values) f64(v);
  }
}

void Encoder::patchU32(std::size_t offset, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buffer_[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void Encoder::patchU64(std::size_t offset, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buffer_[offset + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void Decoder::need(std::size_t n) const {
  if (remaining() < n) {
    throw CorruptDataError("truncated data: need " + std::to_string(n) +
                               " bytes, have " + std::to_string(remaining()),
                           offset_);
  }
}

std::uint8_t Decoder::u8() {
  need(1);
  return bytes_[offset_++];
}

std::uint32_t Decoder::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes_[offset_ + i]) << (8 * i);
  }
  offset_ += 4;
  return v;
}

std::uint64_t Decoder::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes_[offset_ + i]) << (8 * i);
  }
  offset_ += 8;
  return v;
}

double Decoder::f64() { return std::bit_cast<double>(u64()); }

std::vector<double> Decoder::doubles() {
  const std::uint64_t count = u64();
  if (count > remaining() / 8) {
    fail("double-vector count " + std::to_string(count) +
         " exceeds remaining bytes");
  }
  std::vector<double> values(static_cast<std::size_t>(count));
  if constexpr (kLittleEndian) {
    if (!values.empty()) {  // an empty vector's data() may be null
      std::memcpy(values.data(), bytes_.data() + offset_, count * 8);
      offset_ += count * 8;
    }
  } else {
    for (double& v : values) v = f64();
  }
  return values;
}

std::span<const std::uint8_t> Decoder::bytes(std::size_t n) {
  need(n);
  const std::span<const std::uint8_t> view = bytes_.subspan(offset_, n);
  offset_ += n;
  return view;
}

Encoder beginFrame(std::size_t payload_capacity) {
  Encoder frame;
  frame.reserve(kFrameHeaderSize + payload_capacity);
  frame.skip(kFrameHeaderSize);
  return frame;
}

std::vector<std::uint8_t> sealFrame(Encoder frame, std::uint32_t magic,
                                    std::uint32_t version) {
  const std::span<const std::uint8_t> payload =
      frame.bytesFrom(kFrameHeaderSize);
  const std::uint64_t length = payload.size();
  const std::uint32_t checksum = crc32(payload);
  frame.patchU32(0, magic);
  frame.patchU32(4, version);
  frame.patchU64(8, length);
  frame.patchU32(16, checksum);
  return frame.take();
}

std::vector<std::uint8_t> frame(std::uint32_t magic, std::uint32_t version,
                                std::span<const std::uint8_t> payload) {
  Encoder out = beginFrame(payload.size());
  out.bytes(payload);
  return sealFrame(std::move(out), magic, version);
}

FrameView unframe(std::span<const std::uint8_t> bytes, std::uint32_t magic,
                  std::uint32_t max_version) {
  Decoder in(bytes);
  const std::uint32_t got_magic = in.u32();
  if (got_magic != magic) {
    throw CorruptDataError("bad magic: expected 0x" /* hex omitted */ +
                               std::to_string(magic) + ", got " +
                               std::to_string(got_magic),
                           0);
  }
  const std::uint32_t version = in.u32();
  if (version == 0 || version > max_version) {
    throw CorruptDataError("unsupported version " + std::to_string(version),
                           4);
  }
  const std::uint64_t length = in.u64();
  const std::uint32_t checksum = in.u32();
  // Only payload bytes remain past the header now.
  if (length != in.remaining()) {
    throw CorruptDataError("payload length mismatch: header says " +
                               std::to_string(length) + ", file carries " +
                               std::to_string(in.remaining()),
                           8);
  }
  const std::span<const std::uint8_t> payload =
      bytes.subspan(kFrameHeaderSize);
  const std::uint32_t actual = crc32(payload);
  if (actual != checksum) {
    throw CorruptDataError("payload checksum mismatch", kFrameHeaderSize);
  }
  return {version, payload};
}

void writeFileAtomic(const std::string& path,
                     std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot create file: " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("write failure on file: " + tmp);
    }
  }
#if defined(__unix__) || defined(__APPLE__)
  // Durability, not just atomicity: the data must reach the device before
  // the rename can publish it, or a power loss could reorder the rename
  // ahead of the writes and leave a torn file under the real name.
  if (!syncPath(tmp.c_str())) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot fsync file: " + tmp);
  }
#endif
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("cannot rename " + tmp + " over " + path);
  }
#if defined(__unix__) || defined(__APPLE__)
  // Persist the rename itself. Best-effort: some filesystems refuse
  // directory fsync, and at worst the *old* complete file reappears after
  // power loss — atomicity is never at risk.
  const std::string dir = std::filesystem::path(path).parent_path().string();
  (void)syncPath(dir.empty() ? "." : dir.c_str());
#endif
}

std::vector<std::uint8_t> readFileBytes(const std::string& path) {
  // A directory opens as an ifstream too, so check the file type before
  // reading, and take the size from the file system.
  std::error_code ec;
  if (!std::filesystem::is_regular_file(path, ec)) {
    throw std::runtime_error("cannot read file: " + path +
                             " is missing or not a regular file");
  }
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) throw std::runtime_error("cannot size file: " + path);
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open file: " + path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!in) throw std::runtime_error("read failure on file: " + path);
  return bytes;
}

bool fileExists(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return in.good();
}

}  // namespace fchain::persist
