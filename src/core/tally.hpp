// Per-round quorum bookkeeping for detector objects: who has been heard
// from, and how many votes each value holds.
//
// Detector instances are built fresh every round on every process, so
// their bookkeeping is allocation-bound rather than lookup-bound. Both
// types below keep the common case inline — up to 64 senders, up to four
// distinct values — and touch the heap only past it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "util/types.hpp"

namespace ooc {

/// The senders, out of n, an instance has heard from in one exchange —
/// the per-sender dedup that keeps a duplicated delivery from inflating a
/// tally.
class SenderSet {
 public:
  /// Empties the set over senders [0, n).
  void reset(std::size_t n) {
    n_ = n;
    count_ = 0;
    inline_ = 0;
    spill_.assign(n > kInlineSenders ? (n + 63) / 64 : 0, 0);
  }

  /// Records `from`; false when it was already recorded or is not below n.
  bool insert(ProcessId from) {
    if (from >= n_) return false;
    std::uint64_t& word = n_ > kInlineSenders ? spill_[from / 64] : inline_;
    const std::uint64_t bit = std::uint64_t{1} << (from % 64);
    if ((word & bit) != 0) return false;
    word |= bit;
    ++count_;
    return true;
  }

  /// Senders recorded so far.
  std::size_t count() const noexcept { return count_; }
  /// n, the number of possible senders.
  std::size_t universe() const noexcept { return n_; }

 private:
  static constexpr std::size_t kInlineSenders = 64;

  std::size_t n_ = 0;
  std::size_t count_ = 0;
  std::uint64_t inline_ = 0;
  std::vector<std::uint64_t> spill_;  // one bit per sender when n > 64
};

/// Votes per distinct value, as a flat array rather than a hash map: an
/// instance counts at most one vote per sender, so it holds at most n
/// values and a linear scan costs less than hashing. above() scans in
/// first-vote order, so callers ask only for thresholds that at most one
/// value can cross (a strict majority, or more than t ratifications in a
/// crash-model object).
class ValueTally {
 public:
  void add(Value v) {
    for (std::size_t i = 0; i < size_; ++i) {
      Entry& entry = at(i);
      if (entry.first == v) {
        ++entry.second;
        return;
      }
    }
    if (size_ < kInlineValues) {
      inline_[size_] = {v, 1};
    } else {
      spill_.emplace_back(v, 1);
    }
    ++size_;
  }

  /// A value with more than `threshold` votes, if any.
  std::optional<Value> above(std::size_t threshold) const {
    for (std::size_t i = 0; i < size_; ++i) {
      const Entry& entry = at(i);
      if (entry.second > threshold) return entry.first;
    }
    return std::nullopt;
  }

 private:
  using Entry = std::pair<Value, std::size_t>;
  static constexpr std::size_t kInlineValues = 4;

  Entry& at(std::size_t i) {
    return i < kInlineValues ? inline_[i] : spill_[i - kInlineValues];
  }
  const Entry& at(std::size_t i) const {
    return i < kInlineValues ? inline_[i] : spill_[i - kInlineValues];
  }

  std::array<Entry, kInlineValues> inline_{};
  std::vector<Entry> spill_;  // values past the first kInlineValues
  std::size_t size_ = 0;
};

}  // namespace ooc
