// An open-addressing set of Values: the dedup sets on the service's commit
// path (applied commands, committed batches, the runner's audits).
//
// Those sets see one insert per applied command and are cleared only by a
// restart, so a node-based std::unordered_set pays one heap allocation per
// insert. This set keeps its keys in one power-of-two array with linear
// probing: an insert allocates only when the table doubles, and clear()
// keeps the capacity. Slot value 0 marks an empty slot, so the key 0 is
// tracked by a flag beside the table. There is no erase: none of the
// callers removes a key short of clearing the whole set.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/types.hpp"

namespace ooc {

class FlatValueSet {
 public:
  /// Adds `v`; false when it was already present.
  bool insert(Value v) {
    if (v == kEmptySlot) {
      if (hasEmptyKey_) return false;
      hasEmptyKey_ = true;
      ++size_;
      return true;
    }
    // Grow before the table passes half full, so probes stay short.
    if (2 * (stored_ + 1) > slots_.size()) grow();
    Value& slot = slots_[find(slots_, v)];
    if (slot == v) return false;
    slot = v;
    ++stored_;
    ++size_;
    return true;
  }

  bool contains(Value v) const noexcept {
    if (v == kEmptySlot) return hasEmptyKey_;
    return !slots_.empty() && slots_[find(slots_, v)] == v;
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Removes every key; the table keeps its capacity.
  void clear() noexcept {
    std::fill(slots_.begin(), slots_.end(), kEmptySlot);
    stored_ = 0;
    size_ = 0;
    hasEmptyKey_ = false;
  }

 private:
  static constexpr Value kEmptySlot = 0;
  static constexpr std::size_t kMinSlots = 16;

  /// The slot holding `v`, or the empty slot where it would go. The table
  /// is never full, so the probe ends.
  static std::size_t find(const std::vector<Value>& slots, Value v) noexcept {
    const std::size_t mask = slots.size() - 1;
    std::size_t at = static_cast<std::size_t>(mix(v)) & mask;
    while (slots[at] != v && slots[at] != kEmptySlot) at = (at + 1) & mask;
    return at;
  }

  /// SplitMix64's finalizer: command and batch ids differ mostly in their
  /// low bits and share their high bits, so the raw value would cluster.
  static std::uint64_t mix(Value v) noexcept {
    auto x = static_cast<std::uint64_t>(v);
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
    return x ^ (x >> 31);
  }

  void grow() {
    std::vector<Value> bigger(
        slots_.empty() ? kMinSlots : 2 * slots_.size(), kEmptySlot);
    for (const Value v : slots_)
      if (v != kEmptySlot) bigger[find(bigger, v)] = v;
    slots_.swap(bigger);
  }

  std::vector<Value> slots_;  // power-of-two size, or empty
  std::size_t stored_ = 0;    // keys in slots_ (all but the key 0)
  std::size_t size_ = 0;
  bool hasEmptyKey_ = false;
};

}  // namespace ooc
