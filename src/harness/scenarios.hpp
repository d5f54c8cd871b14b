// Scenario runners shared by the test suite, the bench binaries and the
// examples: each configures a simulation, runs it to the stop condition and
// distills the observations every consumer wants (decisions, rounds,
// messages, audits).
//
// Everything is deterministic in (config, seed).
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "compose/composition.hpp"
#include "compose/hooks.hpp"
#include "compose/kv.hpp"
#include "compose/run.hpp"
#include "raft/types.hpp"
#include "util/types.hpp"

namespace ooc::harness {

// The instrumentation vocabulary (telemetry sink, run hooks, adversary
// options) moved down into src/compose/ with the generic composition
// runner; these aliases keep every existing harness consumer compiling
// against the same types.
using TelemetrySink = compose::TelemetrySink;
using RunHooks = compose::RunHooks;
using AdversaryOptions = compose::AdversaryOptions;

// ---------------------------------------------------------------------------
// Classic monolithic baselines (E1/E12)

/// Runs the classic, pre-decomposition implementation of a composition:
/// the same spec value runComposition() takes, executed by monolithic
/// Ben-Or (`benor-vac+local-coin`) or monolithic Phase-King
/// (`phaseking-ac+king-conciliator`, the classic t+1-phase rule), so the
/// decomposed-vs-monolithic tables compare two implementations of one
/// spec. Any other pairing, or a knob the classic code has no place for
/// (planted fault, non-lockstep scheduler, early-commit rule), throws
/// std::invalid_argument naming it. Audits, §5 witnesses and scheduling
/// observations stay empty: the baselines have no objects to audit.
compose::CompositionResult runMonolithic(
    const compose::Composition& composition);

// ---------------------------------------------------------------------------
// Raft (asynchronous with timeouts; crashes, loss, partitions)

struct RaftScenarioConfig {
  std::size_t n = 5;
  std::vector<Value> inputs;  // size n; defaults to id % 2 when empty
  raft::RaftConfig raft;
  std::uint64_t seed = 1;

  Tick minDelay = 1;
  Tick maxDelay = 5;
  double dropProbability = 0.0;
  double duplicateProbability = 0.0;
  std::vector<std::pair<ProcessId, Tick>> crashes;

  /// Crash-restart timeline (compose/kv.hpp). Whether anything survives a
  /// restart is governed by `raft.durable` / `raft.syncBeforeReply`.
  std::vector<compose::RestartEvent> restarts;

  /// Partition timeline: at `at`, impose `groups` (one id per process);
  /// an empty vector heals the network.
  struct PartitionEvent {
    Tick at;
    std::vector<int> groups;
  };
  std::vector<PartitionEvent> partitions;

  /// Message-reordering adversary (model checker strategies).
  AdversaryOptions adversary;

  Tick maxTicks = 300000;
};

struct RaftScenarioResult {
  bool allDecided = false;
  bool agreementViolated = false;
  bool validityViolated = false;
  Value decidedValue = kNoValue;
  Tick firstDecisionTick = 0;
  Tick lastDecisionTick = 0;
  std::uint64_t messages = 0;
  /// Scheduler events executed by the run (bench_simcore's work unit).
  std::uint64_t eventsProcessed = 0;
  std::uint64_t electionsStarted = 0;
  std::uint64_t leaderships = 0;
  std::uint64_t reconciliatorInvocations = 0;

  /// VAC instrumentation (paper Algorithms 10-11): every process's
  /// confidence history must be consistent — commit never precedes adopt,
  /// and all commit-level values agree.
  bool confidenceOrderOk = true;
  bool commitValuesAgree = true;
  std::size_t confidenceTransitions = 0;

  /// Crash-recovery observations (all zero/false without restart events).
  std::uint64_t restarts = 0;
  std::uint64_t messagesDroppedStale = 0;
  std::uint64_t timersPurged = 0;
  std::uint64_t walAppends = 0;
  std::uint64_t walSyncs = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t recoveredRecords = 0;
  std::uint64_t tornTails = 0;
  std::uint64_t corruptRecords = 0;

  /// Durability-violation witnesses, from ground-truth audit trails that
  /// survive restarts (not from any recovered state):
  /// voteAmnesia — some process granted its term-T vote to two different
  /// candidates (across incarnations); the split-brain seed.
  bool voteAmnesia = false;
  std::string voteAmnesiaDetail;
  /// commitRegression — some process applied/learned two different
  /// committed values across incarnations.
  bool commitRegression = false;
  std::string commitRegressionDetail;
};

RaftScenarioResult runRaft(const RaftScenarioConfig& config,
                           const RunHooks& hooks = {});

}  // namespace ooc::harness
