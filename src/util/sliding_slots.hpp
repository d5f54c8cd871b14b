// Values keyed by a counter that only moves forward — a decree number, a
// command sequence number — over a window that slides with it: the
// per-decree and per-command bookkeeping on the service's commit path.
//
// Those maps see one insert and one erase per decree or command, so a
// node-based std::map or std::unordered_map pays one heap allocation per
// entry. Here slot i of one deque holds key base() + i and `kEmpty` marks
// a slot with nothing in it; the deque allocates only a block per few
// dozen keys. Keys below the window read as empty and cannot be filled.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>

namespace ooc {

template <typename T, T kEmpty>
class SlidingSlots {
 public:
  /// The value at `key`; kEmpty when the slot is empty or outside the
  /// window.
  T get(std::uint64_t key) const noexcept {
    if (key < base_ || key - base_ >= slots_.size()) return kEmpty;
    return slots_[key - base_];
  }

  /// Fills the slot at `key`; false (and no change) when it already holds
  /// a value or lies below the window.
  bool put(std::uint64_t key, T value) {
    if (key < base_) return false;
    const std::uint64_t at = key - base_;
    if (at >= slots_.size()) slots_.resize(at + 1, kEmpty);
    if (slots_[at] != kEmpty) return false;
    slots_[at] = value;
    return true;
  }

  /// Empties the slot at `key`, returning what it held (kEmpty if none).
  T take(std::uint64_t key) noexcept {
    if (key < base_ || key - base_ >= slots_.size()) return kEmpty;
    T& slot = slots_[key - base_];
    const T value = slot;
    slot = kEmpty;
    return value;
  }

  /// Slides the window's start up to `key`, dropping every slot below it.
  void advanceTo(std::uint64_t key) {
    while (base_ < key && !slots_.empty()) {
      slots_.pop_front();
      ++base_;
    }
    base_ = std::max(base_, key);
  }

  /// Slides the window's start past its leading empty slots.
  void dropEmptyFront() {
    while (!slots_.empty() && slots_.front() == kEmpty) {
      slots_.pop_front();
      ++base_;
    }
  }

  void clear() noexcept {
    slots_.clear();
    base_ = 0;
  }

 private:
  std::deque<T> slots_;
  std::uint64_t base_ = 0;
};

}  // namespace ooc
