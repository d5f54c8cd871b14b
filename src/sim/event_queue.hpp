// The simulator's event queue: a tick-bucketed calendar queue replacing the
// former global binary heap.
//
// Events execute in (tick, phase, seq) order — phase 1 holds the lockstep
// barrier, which sorts after every normal event of its tick; seq is the
// push order. The queue exploits that almost every push targets a tick
// within a small horizon of the cursor (network delays are short and
// timers modest): a ring of kWindow buckets covers ticks
// [cursor, cursor + kWindow), each bucket holding its events as two
// append-only lanes (normal, barrier) drained in order. Same-tick pushes
// made *while* the tick drains land behind the drain index and are
// consumed in seq order, exactly like the heap. Events beyond the window
// go to a min-heap overflow that refills the ring as the cursor advances;
// when the ring is empty the cursor jumps straight to the overflow's
// minimum tick, so sparse schedules never scan empty buckets for long.
//
// Total order is identical to the heap's, so recorded traces are
// byte-identical across the swap (asserted by tests/golden/).
//
// Per-event allocation is avoided twice over: events live by value in the
// bucket lanes (which retain capacity across ticks), and the bucket
// storage itself is checked out of a thread-local arena on construction
// and returned cleared on destruction — a model-checker worker thread
// reuses one warm arena across every configuration it sweeps. Teardown
// clears only the buckets the run could have touched ([cursor, highest
// bucketed tick]); every bucket behind the cursor was already reset when
// the cursor passed it.
//
// The common cases — a push inside the window, a pop from the cursor's
// bucket — are inline below; overflow pushes and cursor advances are out
// of line in event_queue.cpp.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/message.hpp"
#include "sim/trace.hpp"
#include "util/types.hpp"

namespace ooc {

/// One scheduled simulator event (56 bytes on LP64). Plain value type;
/// `message` is a shared immutable payload (broadcast fan-out and
/// duplication faults alias it).
struct SimEvent {
  enum class Kind : std::uint8_t {
    kStart,
    kDeliver,
    kTimer,
    kControl,
    kBarrier,
    kCrash,
    kRestart,
  };

  Tick at = 0;
  /// Push order; assigned by EventQueue::push.
  std::uint64_t seq = 0;
  /// Observed-stream index of the event whose handler scheduled this one
  /// (kNoCausalParent for roots: initial starts, pre-run injections). Pure
  /// bookkeeping — never consulted by the scheduler, only surfaced through
  /// ScheduleObserver::onCausal, so it cannot perturb the schedule.
  std::uint64_t cause = kNoCausalParent;
  MessagePtr message;
  /// kTimer: the timer id. kControl: index into the simulator's action
  /// table (keeping std::function out of the hot event layout).
  TimerId timer = 0;
  ProcessId target = 0;
  ProcessId from = 0;
  /// For kDeliver: the target's incarnation at send time. A mismatch at
  /// delivery means the target restarted in between — the message belongs
  /// to its previous life and is discarded as stale.
  std::uint32_t targetIncarnation = 0;
  /// 0 = normal; 1 = barrier (sorts after all normal events of the tick).
  std::uint8_t phase = 0;
  Kind kind = Kind::kControl;
};

class EventQueue {
 public:
  /// Ring window: events within kWindow ticks of the cursor are bucketed.
  static constexpr std::size_t kWindowBits = 10;
  static constexpr std::size_t kWindow = std::size_t{1} << kWindowBits;

  EventQueue();   // checks bucket storage out of the thread-local arena
  ~EventQueue();  // returns it, cleared but with capacity retained
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues `event`, assigning its seq. Ticks earlier than the cursor
  /// (never produced by the simulator: every delay is >= 1) are clamped to
  /// the cursor, i.e. executed as soon as possible.
  void push(SimEvent&& event) {
    event.seq = nextSeq_++;
    if (event.at < cursor_) event.at = cursor_;
    ++size_;
    if (event.at - cursor_ >= kWindow) {
      pushOverflow(std::move(event));
      return;
    }
    bucketize(std::move(event));
  }

  /// Moves the earliest event (by tick, then phase, then seq) into `out`.
  /// Returns false when the queue is empty.
  bool pop(SimEvent& out) {
    if (size_ == 0) return false;
    return takeFrom(ring_[cursor_ & kMask], out) || popAdvancing(out);
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Drops every queued arena so the next EventQueue on this thread starts
  /// cold (test hook for memory accounting; never needed in normal use).
  static void drainThreadArena() noexcept;

  /// Bucket rings currently pooled in this thread's arena (test hook: the
  /// arena-reuse stress asserts the pool stays bounded by its cap).
  static std::size_t threadArenaSize() noexcept;

  /// True when every pooled ring is fully reset — empty lanes, zero drain
  /// positions (test hook for the touched-range teardown).
  static bool threadArenaClean() noexcept;

  /// Internal bucket layout; public only so the thread-local arena can
  /// store rings of them.
  struct Bucket {
    std::vector<SimEvent> lanes[2];  // [0] normal, [1] barrier
    std::size_t next[2] = {0, 0};    // drain positions

    bool drained() const noexcept {
      return next[0] >= lanes[0].size() && next[1] >= lanes[1].size();
    }
    void reset() noexcept {
      lanes[0].clear();
      lanes[1].clear();
      next[0] = next[1] = 0;
    }
  };

 private:
  static constexpr std::size_t kMask = kWindow - 1;

  /// Appends an in-window event to its tick's bucket.
  void bucketize(SimEvent&& event) {
    if (event.at > highestBucketed_) highestBucketed_ = event.at;
    ring_[event.at & kMask].lanes[event.phase].push_back(std::move(event));
    ++ringCount_;
  }

  /// Takes the bucket's next event: the normal lane strictly before the
  /// barrier lane, re-checked on every pop, so normal events appended
  /// while the barrier of the same tick executes (onTick handlers sending
  /// with delay 0 clamped to the cursor) are drained before any later
  /// barrier entry, exactly like the old heap's (tick, phase, seq) order.
  bool takeFrom(Bucket& bucket, SimEvent& out) noexcept {
    for (int lane = 0; lane < 2; ++lane) {
      if (bucket.next[lane] < bucket.lanes[lane].size()) {
        out = std::move(bucket.lanes[lane][bucket.next[lane]++]);
        --ringCount_;
        --size_;
        return true;
      }
    }
    return false;
  }

  void pushOverflow(SimEvent&& event);
  /// The cursor's bucket is drained: advances the cursor to the next
  /// populated tick and pops from it. Requires a non-empty queue.
  bool popAdvancing(SimEvent& out);

  /// Pulls every overflow event that now falls inside the window into its
  /// bucket. Overflow pops come out in (at, phase, seq) order and the
  /// window slides monotonically, so lane append order stays seq order.
  void refill();

  std::vector<Bucket> ring_;       // kWindow buckets, index = tick & kMask
  std::vector<SimEvent> overflow_;  // min-heap on (at, phase, seq)
  Tick cursor_ = 0;                // lowest possibly-populated tick
  Tick highestBucketed_ = 0;       // highest tick ever placed in the ring
  std::size_t ringCount_ = 0;      // undrained events in the ring
  std::size_t size_ = 0;
  std::uint64_t nextSeq_ = 0;
};

}  // namespace ooc
