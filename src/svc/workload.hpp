// Deterministic client-workload generator for the replicated-log service.
//
// The model simulates a large logical client population (10^5-10^6 clients
// are cheap: per-client state is never materialized) issuing commands
// against a keyspace with zipfian popularity — the standard skew of
// storage-system traces. Two arrival disciplines:
//
//  * closed loop (default): every client has at most one command in
//    flight. The initial wave spreads the population's first commands over
//    `startSpread` ticks; when one of this node's commands commits, the
//    issuing client "thinks" for a uniform [thinkMin, thinkMax] ticks and
//    then issues its next command. Concurrency self-regulates with commit
//    throughput — the classic closed-loop property.
//  * open loop: commands arrive at `arrivalsPerTick` regardless of commit
//    progress, optionally modulated by periodic bursts (x burstFactor for
//    burstLen ticks every burstEvery ticks). Open loops expose overload:
//    queues grow when the decree pipeline falls behind.
//
// Emission is capped at `commandsPerNode` so runs terminate; the cap is
// what bounds a 10^6-client population to a finite schedule (only the
// earliest arrivals of the wave fit under it). All randomness derives from
// one seed: a Workload's arrival calendar, client ids and key draws are a
// pure function of (options, node, n, seed).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "util/rng.hpp"
#include "util/types.hpp"

namespace ooc::svc {

struct WorkloadOptions {
  /// Logical client population, cluster-wide; client c is homed at node
  /// c % n. Populations of 10^5-10^6 cost nothing beyond the draws.
  std::uint64_t clients = 100000;
  /// Emission cap per node (the run's finite-schedule bound).
  std::uint64_t commandsPerNode = 48;
  /// Closed loop (think-time) vs open loop (fixed arrival rate).
  bool closedLoop = true;
  /// Closed loop: think time drawn uniformly from [thinkMin, thinkMax].
  Tick thinkMin = 20;
  Tick thinkMax = 200;
  /// Closed loop: the population's first commands spread over this window.
  Tick startSpread = 64;
  /// Open loop: base arrivals per tick at this node.
  double arrivalsPerTick = 0.25;
  /// Open loop bursts: every `burstEvery` ticks the rate is multiplied by
  /// `burstFactor` for `burstLen` ticks. 0 disables bursts.
  Tick burstEvery = 0;
  Tick burstLen = 0;
  double burstFactor = 4.0;
  /// Zipfian key popularity over [0, keySpace): P(k) ~ 1/(k+1)^theta.
  double zipfTheta = 0.99;
  std::uint32_t keySpace = 1 << 16;
};

/// One client command arrival: which logical client issued it, against
/// which key. The command id itself is minted by the service node.
struct Arrival {
  std::uint64_t client = 0;
  std::uint32_t key = 0;
};

/// Per-node deterministic arrival calendar. The service node polls
/// nextArrivalTick() to arm its arrival timer and collect()s the arrivals
/// when it fires; commits feed back through onCommit() in closed-loop mode.
class Workload {
 public:
  /// An empty calendar (no arrivals, nothing emitted): the placeholder a
  /// service node holds until onStart homes the real one at its id.
  Workload() = default;
  Workload(const WorkloadOptions& options, ProcessId node, std::size_t n,
           std::uint64_t seed);

  /// Throws std::invalid_argument when (options, n) cannot build a
  /// workload — the same checks the constructor makes.
  static void validate(const WorkloadOptions& options, std::size_t n);

  /// Earliest tick (strictly greater than `now`) with pending arrivals;
  /// 0 when the calendar is empty (cap reached and nothing scheduled).
  Tick nextArrivalTick(Tick now) const;

  /// Draws and consumes every arrival scheduled at or before `tick`
  /// (arrivals missed during a crash downtime are swept up on the next
  /// firing).
  std::vector<Arrival> collect(Tick tick);

  /// Closed-loop feedback: one of this node's commands committed at `now`;
  /// the issuing client thinks and then re-arrives (until the cap).
  void onCommit(Tick now);

  std::uint64_t emitted() const noexcept { return emitted_; }
  std::uint64_t cap() const noexcept { return options_.commandsPerNode; }
  bool exhausted() const noexcept { return planned_ >= cap() && calendar_.empty(); }

  /// Key-popularity observations (over this node's emitted commands).
  std::uint64_t distinctKeys() const noexcept { return keyCounts_.size(); }
  /// Hits on the single most popular key drawn so far.
  std::uint64_t hottestKeyHits() const;

 private:
  std::uint32_t drawKey();

  WorkloadOptions options_;
  std::uint64_t population_ = 0;  ///< clients homed at this node
  Rng rng_;
  /// tick -> number of arrivals scheduled there (drawn lazily at collect).
  std::map<Tick, std::uint32_t> calendar_;
  /// Zipf CDF over [0, keySpace): a pure function of (keySpace,
  /// zipfTheta), built once per process and shared by every workload.
  std::shared_ptr<const std::vector<double>> zipfCdf_;
  std::uint64_t planned_ = 0;  ///< arrivals scheduled (cap applies here)
  std::uint64_t emitted_ = 0;  ///< arrivals actually collected
  std::unordered_map<std::uint32_t, std::uint64_t> keyCounts_;
};

}  // namespace ooc::svc
