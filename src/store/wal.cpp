#include "store/wal.hpp"

#include <array>

namespace ooc::store {
namespace {

/// Slice-by-8 CRC tables: kCrcTables[0] is the classic bytewise table, and
/// kCrcTables[k][i] is the CRC of byte i followed by k zero bytes, so eight
/// table lookups fold eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables makeCrcTables() noexcept {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFF];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = makeCrcTables();

void putU32(std::uint8_t* out, std::uint32_t v) noexcept {
  out[0] = static_cast<std::uint8_t>(v);
  out[1] = static_cast<std::uint8_t>(v >> 8);
  out[2] = static_cast<std::uint8_t>(v >> 16);
  out[3] = static_cast<std::uint8_t>(v >> 24);
}

std::uint32_t getU32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t getU64(const std::uint8_t* p) noexcept {
  return static_cast<std::uint64_t>(getU32(p)) |
         (static_cast<std::uint64_t>(getU32(p + 4)) << 32);
}

constexpr std::size_t kHeaderBytes = 8;  // length:u32 + crc:u32

}  // namespace

std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept {
  const CrcTables& t = kCrcTables;
  std::uint32_t c = 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const std::uint32_t lo = c ^ getU32(data);
    const std::uint32_t hi = getU32(data + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    c = t[0][(c ^ *data) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

WriteAheadLog::WriteAheadLog(FaultConfig faults) noexcept : faults_(faults) {}

void WriteAheadLog::append(std::span<const std::uint64_t> words) {
  const std::size_t length = words.size() * 8;
  const std::size_t at = pending_.size();
  pending_.resize(at + kHeaderBytes + length);
  std::uint8_t* const header = pending_.data() + at;
  std::uint8_t* const payload = header + kHeaderBytes;
  for (std::size_t i = 0; i < words.size(); ++i) {
    putU32(payload + i * 8, static_cast<std::uint32_t>(words[i]));
    putU32(payload + i * 8 + 4, static_cast<std::uint32_t>(words[i] >> 32));
  }
  putU32(header, static_cast<std::uint32_t>(length));
  putU32(header + 4, crc32(payload, length));
  ++appends_;
}

void WriteAheadLog::sync() {
  durable_.insert(durable_.end(), pending_.begin(), pending_.end());
  pending_.clear();
  ++syncs_;
}

void WriteAheadLog::crash(Rng& rng) {
  ++crashes_;
  if (!pending_.empty() && rng.chance(faults_.tornTailProbability)) {
    // A strict prefix of the unsynced tail reached the platter. It may
    // contain whole records (written but not fsynced — allowed to survive;
    // sync() only promises a lower bound) followed by a torn one.
    const std::size_t keep =
        static_cast<std::size_t>(rng.below(pending_.size()));
    durable_.insert(durable_.end(), pending_.begin(),
                    pending_.begin() + static_cast<std::ptrdiff_t>(keep));
  }
  pending_.clear();
  if (!durable_.empty() && rng.chance(faults_.corruptProbability)) {
    const std::size_t at = static_cast<std::size_t>(rng.below(durable_.size()));
    durable_[at] ^= static_cast<std::uint8_t>(1u << rng.below(8));
  }
}

std::vector<std::vector<std::uint64_t>> WriteAheadLog::recover(
    RecoveryReport* report) {
  RecoveryReport local;
  std::vector<std::vector<std::uint64_t>> records;
  std::size_t offset = 0;
  while (offset < durable_.size()) {
    if (durable_.size() - offset < kHeaderBytes) {
      local.tornTail = true;  // header itself is partial
      break;
    }
    const std::uint32_t length = getU32(durable_.data() + offset);
    const std::uint32_t crc = getU32(durable_.data() + offset + 4);
    if (durable_.size() - offset - kHeaderBytes < length) {
      local.tornTail = true;  // payload cut short by the crash
      break;
    }
    const std::uint8_t* payload = durable_.data() + offset + kHeaderBytes;
    if (crc32(payload, length) != crc || length % 8 != 0) {
      // A full-size record that fails its checksum is corruption, not a
      // torn write. We cannot trust anything past it (lengths downstream
      // may themselves be garbage), so truncate here like the torn case.
      ++local.corruptRecords;
      break;
    }
    std::vector<std::uint64_t> words(length / 8);
    for (std::size_t i = 0; i < words.size(); ++i) {
      words[i] = getU64(payload + i * 8);
    }
    records.push_back(std::move(words));
    offset += kHeaderBytes + length;
  }
  local.recordsRecovered = records.size();
  local.bytesDiscarded = (durable_.size() - offset) + pending_.size();
  durable_.resize(offset);
  pending_.clear();
  if (report != nullptr) {
    *report = local;
  }
  return records;
}

}  // namespace ooc::store
