// Outside-in instrumentation for the benchmark's traced run.
//
// Everything here observes the repository's layers from outside: spans
// are opened and closed by the benchmark around calls into public
// functions, simulator event intervals come from a ScheduleObserver, and
// counts are read back from the obs::metrics() JSON snapshot. Nothing in
// src/ is modified or subclassed beyond its public extension points.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "sim/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// In-memory span store. Spans are recorded on one thread (the benchmark's
/// main thread) in open/close order, so parents always precede children.
class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};

  struct Span {
    std::uint32_t name = 0;  ///< index into names()
    std::uint32_t parent = kNoParent;
    std::uint64_t op = 0;  ///< operation id shared by a request's spans
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t childNs = 0;  ///< time covered by direct children
  };

  /// Opens a span under the innermost open span and returns its index.
  std::uint32_t open(const std::string& name, std::uint64_t op);
  void close(std::uint32_t index);

  /// Per-name totals over closed spans: count, summed duration and summed
  /// self time (duration minus the time its direct children cover).
  struct Total {
    std::uint64_t count = 0;
    std::int64_t totalNs = 0;
    std::int64_t selfNs = 0;
  };
  std::map<std::string, Total> totals() const;

  /// Chrome trace_event JSON (loads in Perfetto / chrome://tracing).
  std::string toPerfettoJson() const;

  std::size_t size() const noexcept { return spans_.size(); }

 private:
  std::uint32_t intern(const std::string& name);

  std::vector<Span> spans_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t> nameIndex_;
  std::vector<std::uint32_t> stack_;
};

/// RAII span: opened on construction, closed on destruction. A null
/// recorder makes it a no-op, so untraced code paths share the call sites.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const std::string& name, std::uint64_t op)
      : recorder_(recorder),
        index_(recorder ? recorder->open(name, op) : 0) {}
  ~ScopedSpan() {
    if (recorder_) recorder_->close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  std::uint32_t index_;
};

/// Simulator observer for the traced run. Each event's interval runs from
/// its onEvent() to the next one and is charged to the event's kind
/// (decision reports fall inside the handler that made them and are not
/// interval boundaries). Also counts events by kind and derives stale
/// deliveries from causal stamps: a delivery is stale when its receiver
/// restarted after the event that sent it.
class SimProbe final : public ooc::ScheduleObserver {
 public:
  static constexpr int kKinds = 8;

  /// Call before each simulation run attached to this probe.
  void beginRun();
  /// Call after the run returns (drops the open tail interval, which would
  /// otherwise absorb the runner's result assembly).
  void endRun();

  void onEvent(const ooc::TraceEvent& event) override;
  bool wantsCausality() const noexcept override { return true; }
  void onCausal(const ooc::CausalStamp& stamp) override;

  /// Scheduler events executed (decision reports excluded).
  std::uint64_t events() const noexcept;
  std::uint64_t count(ooc::TraceEvent::Kind kind) const noexcept {
    return counts_[static_cast<int>(kind)];
  }
  /// Timer events whose timer had been cancelled before it came due.
  std::uint64_t cancelledTimers() const noexcept { return cancelledTimers_; }
  std::uint64_t staleDeliveries() const noexcept { return stale_; }
  /// Mean interval charged to `kind`, in ns (0 when none was closed).
  double meanIntervalNs(ooc::TraceEvent::Kind kind) const noexcept;
  /// Stream-index mismatches between our count and the causal stamps;
  /// nonzero means the observer lost sync with the simulator.
  std::uint64_t desyncs() const noexcept { return desyncs_; }

 private:
  static_assert(static_cast<int>(ooc::TraceEvent::Kind::kRestart) + 1 ==
                    kKinds,
                "SimProbe must cover every TraceEvent kind");

  std::uint64_t counts_[kKinds] = {};
  std::int64_t intervalNs_[kKinds] = {};
  std::uint64_t intervals_[kKinds] = {};
  std::uint64_t cancelledTimers_ = 0;
  std::uint64_t stale_ = 0;
  std::uint64_t desyncs_ = 0;

  // Per-run state.
  int openKind_ = -1;
  std::int64_t openStart_ = 0;
  std::uint64_t index_ = 0;
  bool pendingDeliver_ = false;
  ooc::ProcessId pendingReceiver_ = 0;
  std::vector<std::uint64_t> lastRestart_;  ///< per process; ~0 = never
  std::vector<bool> down_;
};

/// Counter totals and histogram (count, sum) pairs read from an
/// obs::Registry JSON snapshot, summed over label sets.
struct RegistryTotals {
  std::map<std::string, double> counters;
  std::map<std::string, std::pair<double, double>> histograms;

  double counter(const std::string& name) const;
  double histogramSum(const std::string& name) const;
  double histogramCount(const std::string& name) const;
};
RegistryTotals parseRegistry(const std::string& json);

}  // namespace perfbench
