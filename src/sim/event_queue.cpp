#include "sim/event_queue.hpp"

#include <algorithm>
#include <utility>

namespace ooc {
namespace {

/// std::push_heap builds a max-heap; invert to get earliest-first.
struct OverflowOrder {
  bool operator()(const SimEvent& a, const SimEvent& b) const noexcept {
    if (a.at != b.at) return a.at > b.at;
    if (a.phase != b.phase) return a.phase > b.phase;
    return a.seq > b.seq;
  }
};

/// Thread-local pool of warm bucket rings. A Simulator (and therefore an
/// EventQueue) is confined to one thread for its lifetime, so checkout
/// needs no locking; a checker worker thread hands one ring from run to
/// run and keeps the lane capacities hot across the whole sweep.
struct Arena {
  std::vector<std::vector<EventQueue::Bucket>> rings;
};

Arena& arena() noexcept {
  thread_local Arena instance;
  return instance;
}

}  // namespace

EventQueue::EventQueue() {
  auto& pool = arena().rings;
  if (!pool.empty()) {
    ring_ = std::move(pool.back());
    pool.pop_back();
  } else {
    ring_.resize(kWindow);
  }
}

EventQueue::~EventQueue() {
  auto& pool = arena().rings;
  // A handful of live queues per thread is the realistic maximum (nested
  // simulations do not exist); cap the pool so pathological use cannot
  // hoard memory.
  if (pool.size() >= 4) return;
  // Only [cursor, highest bucketed tick] can hold events or stale drain
  // positions: the cursor reset every bucket it moved past. Bucketed ticks
  // always lie below cursor + kWindow, so the span never wraps the ring.
  const Tick last = std::max(cursor_, highestBucketed_);
  for (Tick tick = cursor_; tick <= last; ++tick)
    ring_[tick & kMask].reset();  // keeps lane capacity
  pool.push_back(std::move(ring_));
}

void EventQueue::drainThreadArena() noexcept { arena().rings.clear(); }

std::size_t EventQueue::threadArenaSize() noexcept {
  return arena().rings.size();
}

bool EventQueue::threadArenaClean() noexcept {
  for (const auto& ring : arena().rings) {
    for (const Bucket& bucket : ring) {
      if (!bucket.lanes[0].empty() || !bucket.lanes[1].empty() ||
          bucket.next[0] != 0 || bucket.next[1] != 0)
        return false;
    }
  }
  return true;
}

void EventQueue::pushOverflow(SimEvent&& event) {
  overflow_.push_back(std::move(event));
  std::push_heap(overflow_.begin(), overflow_.end(), OverflowOrder{});
}

bool EventQueue::popAdvancing(SimEvent& out) {
  for (;;) {
    ring_[cursor_ & kMask].reset();
    if (ringCount_ == 0) {
      // Everything left is beyond the window: jump the cursor to the
      // overflow's minimum tick instead of walking empty buckets.
      cursor_ = overflow_.front().at;
    } else {
      ++cursor_;
    }
    refill();
    if (takeFrom(ring_[cursor_ & kMask], out)) return true;
  }
}

void EventQueue::refill() {
  while (!overflow_.empty() && overflow_.front().at - cursor_ < kWindow) {
    std::pop_heap(overflow_.begin(), overflow_.end(), OverflowOrder{});
    SimEvent event = std::move(overflow_.back());
    overflow_.pop_back();
    bucketize(std::move(event));
  }
}

}  // namespace ooc
