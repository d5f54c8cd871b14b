// Simulated stable storage: a per-process write-ahead log with CRC-checked
// records, an explicit sync() durability barrier, and crash fault injection.
//
// The "device" is an in-memory byte image split in two regions:
//
//   [ durable bytes | pending bytes ]
//                   ^-- sync() moves this boundary to the right
//
// append() buffers a record at the pending tail; sync() is the fsync
// analogue that makes everything appended so far durable. crash() simulates
// power loss: pending bytes vanish — except, under fault injection, a torn
// prefix of them may reach the platter (a partially written tail record),
// and a byte of the durable region may flip (silent corruption, caught by
// the per-record CRC at recovery). recover() scans the durable image and
// returns every intact record in append order, truncating at the first
// torn or corrupt record exactly like a real log-structured store.
//
// Records are spans of u64 words (enough for protocol metadata: term,
// vote, log entries, ballots, values); on the device each record is
//
//   [ length:u32 | crc32:u32 | payload bytes ]   (little-endian)
//
// append() encodes a record in place at the pending tail, so a journal
// write allocates only when the tail outgrows its capacity.
//
// Everything is deterministic: crash() draws from a caller-supplied Rng, so
// a simulation run containing storage faults is still a pure function of
// (configuration, seed).
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <vector>

#include "util/rng.hpp"

namespace ooc::store {

/// What recover() found while scanning the durable image.
struct RecoveryReport {
  std::size_t recordsRecovered = 0;  ///< intact records returned
  bool tornTail = false;             ///< partial record truncated at the end
  std::size_t corruptRecords = 0;    ///< CRC-mismatch records truncated
  std::size_t bytesDiscarded = 0;    ///< device bytes dropped by truncation
};

/// Fault injection applied at crash() time.
struct FaultConfig {
  /// Probability that a crash leaves a strict prefix of the unsynced tail
  /// on the device (a torn record for recovery to detect and truncate).
  double tornTailProbability = 0.0;
  /// Probability that a crash flips one bit somewhere in the durable
  /// region (silent corruption, detected by CRC at recovery).
  double corruptProbability = 0.0;
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over a byte span,
/// computed eight bytes at a time (slice-by-8).
std::uint32_t crc32(const std::uint8_t* data, std::size_t size) noexcept;

class WriteAheadLog {
 public:
  explicit WriteAheadLog(FaultConfig faults = {}) noexcept;

  /// Buffers one record at the pending tail. NOT durable until sync().
  void append(std::span<const std::uint64_t> words);
  void append(std::initializer_list<std::uint64_t> words) {
    append(std::span<const std::uint64_t>(words.begin(), words.size()));
  }

  /// Durability barrier: every record appended so far survives crashes.
  void sync();

  /// Simulated power loss. Unsynced bytes are lost; with fault injection a
  /// torn prefix of the pending tail may survive, and one durable bit may
  /// flip. Deterministic given `rng`.
  void crash(Rng& rng);

  /// Scans the durable image and returns every intact record in append
  /// order. Truncates the image at the first torn or corrupt record (so a
  /// subsequent append continues from a clean state) and discards any
  /// pending bytes. Idempotent when the image is clean.
  std::vector<std::vector<std::uint64_t>> recover(RecoveryReport* report = nullptr);

  // Introspection (used by harness metrics and tests).
  std::uint64_t appends() const noexcept { return appends_; }
  std::uint64_t syncs() const noexcept { return syncs_; }
  std::uint64_t crashes() const noexcept { return crashes_; }
  std::size_t durableBytes() const noexcept { return durable_.size(); }
  std::size_t pendingBytes() const noexcept { return pending_.size(); }
  /// The durable device image, byte for byte.
  std::span<const std::uint8_t> durableImage() const noexcept {
    return durable_;
  }
  const FaultConfig& faults() const noexcept { return faults_; }

 private:
  FaultConfig faults_;
  std::vector<std::uint8_t> durable_;  // survives crash()
  std::vector<std::uint8_t> pending_;  // appended but not yet synced
  std::uint64_t appends_ = 0;
  std::uint64_t syncs_ = 0;
  std::uint64_t crashes_ = 0;
};

}  // namespace ooc::store
