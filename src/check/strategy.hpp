// Exploration strategies: deterministic, indexable generators of scenario
// configurations. A strategy is a pure function index -> Scenario, so a
// sweep parallelizes trivially (workers pull indices from an atomic
// counter), any configuration can be regenerated from (strategy, index),
// and a finding's provenance is just its index.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "check/scenario.hpp"
#include "fd/oracle.hpp"

namespace ooc::check {

class ExplorationStrategy {
 public:
  ExplorationStrategy() = default;
  ExplorationStrategy(const ExplorationStrategy&) = delete;
  ExplorationStrategy& operator=(const ExplorationStrategy&) = delete;
  virtual ~ExplorationStrategy() = default;

  virtual const char* name() const noexcept = 0;
  /// Number of configurations this strategy enumerates.
  virtual std::size_t size() const noexcept = 0;
  /// The index-th configuration. Deterministic and thread-safe.
  virtual Scenario generate(std::size_t index) const = 0;
};

/// Multi-seed random walk: run `runs` configurations derived from a base
/// scenario, each with a fresh run seed and (optionally) randomized process
/// count, inputs, delay bounds and crash schedules drawn from a per-index
/// meta stream. The classic "thousands of seeds" sweep.
class RandomWalkStrategy final : public ExplorationStrategy {
 public:
  struct Options {
    std::uint64_t seedBase = 1;
    std::size_t runs = 1000;
    bool randomizeInputs = true;
    /// Crash schedules for crash-model families; the Byzantine count,
    /// placement and attack for Byzantine-model detectors.
    bool randomizeCrashes = true;
    bool randomizeDelays = true;
    /// Process-count range for crash-model families; Byzantine-model
    /// detectors keep the base n.
    std::size_t minProcesses = 3;
    std::size_t maxProcesses = 9;
    /// Crash ticks are drawn from [1, crashTickMax].
    Tick crashTickMax = 300;
  };

  RandomWalkStrategy(Scenario base, Options options);

  const char* name() const noexcept override { return "random-walk"; }
  std::size_t size() const noexcept override { return options_.runs; }
  Scenario generate(std::size_t index) const override;

 private:
  Scenario base_;
  Options options_;
};

/// Delay-bounded reordering: sweeps the message-reordering adversary over a
/// grid of delay budgets x adversary seeds while the protocol configuration
/// (including its run seed) stays fixed — systematic exploration of bounded
/// perturbations of one schedule. Asynchronous families only.
class DelayBoundStrategy final : public ExplorationStrategy {
 public:
  struct Options {
    std::vector<Tick> budgets = {1, 2, 4, 8, 16, 32};
    std::size_t adversarySeedsPerBudget = 50;
    std::uint64_t adversarySeedBase = 1;
    double perturbProbability = 1.0;
  };

  /// Throws std::invalid_argument for lockstep detectors (synchronous
  /// lockstep has no delay freedom to explore).
  DelayBoundStrategy(Scenario base, Options options);

  const char* name() const noexcept override { return "delay-bound"; }
  std::size_t size() const noexcept override {
    return options_.budgets.size() * options_.adversarySeedsPerBudget;
  }
  Scenario generate(std::size_t index) const override;

 private:
  Scenario base_;
  Options options_;
};

/// Targeted crash-schedule enumeration: every crash set of up to
/// `maxCrashes` distinct processes, each crashing at every combination of
/// ticks from `tickGrid` (plus the crash-free schedule). Crash-model
/// families only.
class CrashScheduleStrategy final : public ExplorationStrategy {
 public:
  struct Options {
    /// Defaults to the minority fault budget floor((n-1)/2).
    std::size_t maxCrashes = 0;
    std::vector<Tick> tickGrid = {1, 5, 10, 25, 50, 100, 200};
  };

  /// Throws std::invalid_argument for Byzantine-model detectors.
  CrashScheduleStrategy(Scenario base, Options options);

  const char* name() const noexcept override { return "crash-schedule"; }
  std::size_t size() const noexcept override { return total_; }
  Scenario generate(std::size_t index) const override;

 private:
  Scenario base_;
  Options options_;
  /// All enumerated crash sets (process-id subsets, size <= maxCrashes).
  std::vector<std::vector<ProcessId>> subsets_;
  /// subsetStart_[s] = first global index of subset s's tick assignments.
  std::vector<std::size_t> subsetStart_;
  std::size_t total_ = 0;
};

/// Targeted crash-restart enumeration for the durability surface: every
/// restart set of up to `maxRestarts` distinct processes (plus the
/// restart-free schedule), each member restarting at every combination of
/// (crash tick, downtime) from the grids, swept over `seedsPerSchedule` run
/// seeds. Raft and svc (the other families have no recovery path to
/// exercise). Svc scenarios run with durable journals under an open-loop
/// load, so the crash ticks land mid-emission — while batches are being
/// lost, re-bound and applied — rather than on a drained log.
class RestartScheduleStrategy final : public ExplorationStrategy {
 public:
  struct Options {
    std::size_t maxRestarts = 1;
    /// Crash ticks sit around the first-election window so recovery races
    /// with vote grants and leadership handoff rather than hitting a
    /// settled cluster.
    std::vector<Tick> crashTicks = {150, 160, 170, 185, 200,
                                    220, 250, 280, 310, 350};
    /// Short downtimes keep the rejoin inside the term that was live at
    /// the crash — the window where recovered-but-stale state can act.
    std::vector<Tick> downtimes = {1, 20, 80};
    std::size_t seedsPerSchedule = 10;
    std::uint64_t seedBase = 1;
    /// Raft: message loss stretches elections across multiple competing
    /// candidacies, which is what gives a forgotten vote a second
    /// same-term candidate to defect to.
    double dropProbability = 0.1;

    /// The svc grid: crash ticks spread across the service's 2000-tick
    /// emission, downtimes from a blip to several catch-up rounds.
    static Options svc();
  };

  /// Throws std::invalid_argument for families other than raft and svc,
  /// or empty grids.
  RestartScheduleStrategy(Scenario base, Options options);

  const char* name() const noexcept override { return "restart-schedule"; }
  std::size_t size() const noexcept override { return total_; }
  Scenario generate(std::size_t index) const override;

 private:
  Scenario base_;
  Options options_;
  std::vector<std::vector<ProcessId>> subsets_;
  std::vector<std::size_t> subsetStart_;
  std::size_t total_ = 0;
};

/// Oracle-quality sweep for the fd family: every registered oracle ×
/// a grid of (stabilization time, false-suspicion noise, completeness
/// lag) quality points × a set of crash schedules × run seeds, on a fixed
/// oracle-consuming base composition. Cells the registry rejects (noisy
/// perfect-p, eventual-accuracy oracles under a P-requiring driver) are
/// skipped at construction — the sweep enumerates algorithms only; the
/// rejections themselves are covered by the E22 matrix and compose tests.
class OracleQualityStrategy final : public ExplorationStrategy {
 public:
  struct Options {
    std::vector<std::string> oracles = {"perfect-p", "diamond-s", "omega"};
    std::vector<Tick> stabilizeTicks = {0, 60, 200};
    std::vector<double> noises = {0.0, 0.3};
    std::vector<Tick> completenessLags = {2, 16};
    /// Crash schedules the oracle is laid over (empty = fault-free).
    std::vector<std::vector<std::pair<ProcessId, Tick>>> crashSchedules = {
        {}, {{1, 5}}, {{1, 40}}, {{1, 120}}, {{1, 40}, {3, 90}}};
    std::size_t seedsPerCell = 2;
    std::uint64_t seedBase = 1;
  };

  /// Throws std::invalid_argument unless the base scenario's driver
  /// consumes an oracle (the sweep would be vacuous otherwise).
  OracleQualityStrategy(Scenario base, Options options);

  const char* name() const noexcept override { return "oracle-quality"; }
  std::size_t size() const noexcept override {
    return cells_.size() * options_.seedsPerCell;
  }
  Scenario generate(std::size_t index) const override;

 private:
  struct Cell {
    std::string oracle;
    fd::OracleKnobs knobs;
    std::size_t crashSchedule = 0;  // index into options_.crashSchedules
  };

  Scenario base_;
  Options options_;
  std::vector<Cell> cells_;  // registry-valid cells only
};

/// Round-skew sweep for the compose/fd families: every round-scheduling
/// policy the registry admits for the base pairing × a grid of network
/// delay bounds × delay-adversary budgets × run seeds. The point is to
/// drive the per-process round frontiers apart — skewed schedules are
/// where lockstep-era assumptions (frontier-owned timers, barrier-paced
/// buffering) break — while the scheduler-coherence invariant pins each
/// policy's structural signature. Policies the registry rejects for the
/// pairing (lockstep-mode or skew-intolerant objects) are dropped at
/// construction, like OracleQualityStrategy's rejected quality points;
/// the rejections themselves are the E24 matrix's business.
class RoundSkewStrategy final : public ExplorationStrategy {
 public:
  struct Options {
    /// Wire names; unknown names throw, registry-rejected ones are skipped.
    std::vector<std::string> policies = {"lockstep", "event-driven",
                                         "ooo-driver"};
    std::vector<Tick> maxDelays = {4, 10, 25};
    /// Adversary budgets laid over each delay bound (0 = no adversary).
    std::vector<Tick> adversaryBudgets = {0, 8};
    std::size_t seedsPerCell = 4;
    std::uint64_t seedBase = 1;
  };

  /// Throws std::invalid_argument for non-compose families, async-hostile
  /// base pairings (every policy rejected) or an empty grid.
  RoundSkewStrategy(Scenario base, Options options);

  const char* name() const noexcept override { return "round-skew"; }
  std::size_t size() const noexcept override {
    return cells_.size() * options_.seedsPerCell;
  }
  Scenario generate(std::size_t index) const override;

 private:
  struct Cell {
    SchedulingPolicy policy = SchedulingPolicy::kLockstep;
    Tick maxDelay = 0;
    Tick adversaryBudget = 0;
  };

  Scenario base_;
  Options options_;
  std::vector<Cell> cells_;  // registry-valid cells only
};

/// Service-pipeline enumeration for the svc family: a grid of pipeline
/// windows × batch caps × fault schedules — the crash-free run, one
/// permanent crash per crash tick, and one crash-restart per (crash tick,
/// downtime) cell — swept over `seedsPerCell` run seeds. Restart cells
/// force the durable journal on: a volatile restart under the quarantine
/// discipline is a separate, deliberately weaker configuration that the
/// random walk covers. Svc only.
class SvcPipelineStrategy final : public ExplorationStrategy {
 public:
  struct Options {
    std::vector<std::uint64_t> windows = {1, 2, 4};
    std::vector<std::size_t> batchCaps = {1, 4};
    /// Early ticks race the fault against the first decrees; later ones
    /// hit a pipeline in flight.
    std::vector<Tick> crashTicks = {30, 120, 400};
    std::vector<Tick> downtimes = {40, 200};
    std::size_t seedsPerCell = 3;
    std::uint64_t seedBase = 1;
  };

  /// Throws std::invalid_argument for non-svc families or empty grids.
  SvcPipelineStrategy(Scenario base, Options options);

  const char* name() const noexcept override { return "svc-pipeline"; }
  std::size_t size() const noexcept override {
    return cells_.size() * options_.seedsPerCell;
  }
  Scenario generate(std::size_t index) const override;

 private:
  struct Cell {
    std::uint64_t window = 1;
    std::size_t batchMax = 1;
    enum class Fault { kNone, kCrash, kRestart } fault = Fault::kNone;
    Tick at = 0;
    Tick downtime = 0;
  };

  Scenario base_;
  Options options_;
  std::vector<Cell> cells_;
};

/// Concatenation of strategies (indices are assigned in order).
class CompositeStrategy final : public ExplorationStrategy {
 public:
  CompositeStrategy(std::string name,
                    std::vector<std::unique_ptr<ExplorationStrategy>> parts);

  const char* name() const noexcept override { return name_.c_str(); }
  std::size_t size() const noexcept override { return total_; }
  Scenario generate(std::size_t index) const override;

 private:
  std::string name_;
  std::vector<std::unique_ptr<ExplorationStrategy>> parts_;
  std::size_t total_ = 0;
};

}  // namespace ooc::check
