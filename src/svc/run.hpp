// The service runner: one harness that drives a replicated-log cluster —
// composed per-decree engines (registry pairings), per-decree Paxos, or
// native Raft — under the deterministic client workload, with crash /
// crash-restart faults, and audits the service-level safety properties:
//
//  * prefix agreement — any two nodes' applied logs agree on their common
//    prefix (the multi-decree generalization of per-instance agreement);
//  * exactly-once commit — no client command is applied twice and no
//    batch wins two decrees.
//
// The capability gate: a composed engine may power the log only if its
// detector is a crash-model, async-capable VAC detector and its driver is
// a MULTIVALUED reconciliator (DriverCapability::multivalued) that needs
// no oracle. A binary coin can never return a client command — a
// coin-driven log would decide values nobody proposed — so the registry
// descriptor, not a name list, decides admission.
//
// Deterministic in (config, seed): same config -> byte-identical applied
// logs, metrics and serialized form. Composed and Paxos runs end by
// QUIESCENCE — drained workload, decided decrees and retired engines leave
// the event queue empty. Raft never quiesces (heartbeats and the resubmit
// bridge re-arm forever), so those runs end by a stop predicate built from
// RaftLogNode::drained() plus applied-log-length agreement across the
// counted nodes; maxTicks is only the runaway guard in both cases.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "compose/hooks.hpp"
#include "compose/kv.hpp"
#include "core/scheduling.hpp"
#include "raft/types.hpp"
#include "svc/service.hpp"
#include "svc/workload.hpp"
#include "util/types.hpp"

namespace ooc::svc {

/// Crash-restart timeline entry, shared with the Raft family
/// (compose/kv.hpp).
using RestartEvent = compose::RestartEvent;

struct SvcConfig {
  /// Which consensus powers the decrees: "compose" (registry pairing,
  /// gated), "paxos" (one PaxosNode per decree, its proposer picked by
  /// Ω), or "raft" (native multi-decree log; SvcNode is not used).
  std::string engine = "compose";

  /// Registry names for engine="compose".
  std::string detector = "benor-vac";
  std::string driver = "lottery";
  /// Round-scheduling policy for the composed per-decree engines
  /// (core/scheduling.hpp). Non-lockstep policies let a decree's rounds
  /// skew within the pipeline window; they are gated by the registry's
  /// validateScheduling() and rejected outright for the raft/paxos
  /// engines, which have no round scheduler to swap. Zero-cost on the
  /// wire: nothing is serialized when lockstep, so every pre-policy
  /// scenario file and run-id is unchanged.
  SchedulingPolicy scheduler = SchedulingPolicy::kLockstep;

  std::size_t n = 5;
  /// Protocol parameter t; defaults to the detector's tDivisor rule
  /// (composed engines) or the crash-quorum floor((n-1)/2).
  std::optional<std::size_t> t;
  std::uint64_t seed = 1;
  double bias = 0.5;

  SvcNodeOptions service;
  WorkloadOptions workload;

  Tick minDelay = 1;
  Tick maxDelay = 10;
  compose::AdversaryOptions adversary;
  /// Permanent crashes (pid@tick) and crash-restarts (pid@tick+downtime).
  std::vector<std::pair<ProcessId, Tick>> crashes;
  std::vector<RestartEvent> restarts;

  /// Per-decree engine round cap (composed engines).
  Round maxRoundsPerDecree = 2000;
  Tick maxTicks = 2'000'000;

  /// Paxos engine: base retry bounds. Ω picks each decree's proposer, so
  /// every retry timer runs at 8x these bounds (the value holders'
  /// fallback ballot, and the reactive joiners' failover rescue when the
  /// run has faults).
  Tick paxosRetryMin = 4;
  Tick paxosRetryMax = 12;

  /// Raft engine knobs (durability comes from `service`).
  Tick raftElectionMin = 150;
  Tick raftElectionMax = 300;
  Tick raftHeartbeat = 40;
  Tick resubmitEvery = 80;
};

struct SvcResult {
  // --- safety audits ---
  bool prefixOk = true;      ///< applied logs prefix-agree across nodes
  bool exactlyOnce = true;   ///< no duplicate applies, no batch wins twice
  /// Fault-free completeness: every emitted command applied at every node.
  /// Meaningless (and usually false) when the run has crashes/restarts.
  bool allApplied = false;

  // --- throughput / latency ---
  std::uint64_t decreesCommitted = 0;  ///< longest applied log
  std::uint64_t commandsCommitted = 0;
  std::uint64_t commandsEmitted = 0;
  std::uint64_t noopDecrees = 0;
  Tick lastCommitTick = 0;
  /// Largest gap between consecutive applies at the reference (first
  /// never-faulted) node — the leader-failover blackout window for Raft,
  /// the decree-stall window for the others.
  Tick maxCommitGap = 0;
  double commandsPerKtick = 0.0;
  /// Pooled across nodes, unsorted.
  std::vector<Tick> latencies;
  std::vector<std::uint32_t> batchSizes;

  // --- run accounting ---
  std::uint64_t messagesByCorrect = 0;
  std::uint64_t eventsProcessed = 0;
  bool hitCap = false;
  std::uint64_t duplicatesSuppressed = 0;  ///< summed over nodes
  /// (tick, node) of every election win, Raft engine only.
  std::vector<std::pair<Tick, ProcessId>> leaderEvents;
};

/// Capability gate for the configured engine, plus the [0,1] bound on
/// `bias` for every engine; nullopt when admissible, otherwise the
/// human-readable diagnostic. Unknown registry names throw (listing the
/// known names), mirroring the composition resolver.
std::optional<std::string> validateEngine(const SvcConfig& config);

/// The per-decree engine factory runSvc hosts in every SvcNode for
/// engine="compose": the registry detector/driver pairing under the VAC +
/// reconciliator template, with each decree's object seed mixed from
/// (config.seed, decree) so a decree never replays the previous decree's
/// lottery. Unknown registry names throw; the capability gate is
/// validateEngine's job.
EngineFactory composeEngineFactory(const SvcConfig& config);

/// The per-decree engine factory runSvc hosts for engine="paxos": one
/// PaxosNode per decree whose proposer Ω picks. The Ω oracle is modeled
/// from the run's own crash/restart schedule and seed, so the config needs
/// no oracle keys; a wrong or late leader costs time, never safety.
EngineFactory paxosEngineFactory(const SvcConfig& config);

/// Runs one service configuration to quiescence. Deterministic in
/// (config, seed); throws std::invalid_argument on an inadmissible engine
/// or bad parameters, including a crash or restart naming no process.
SvcResult runSvc(const SvcConfig& config,
                 const compose::RunHooks& hooks = {});

/// key=value wire format (family=svc checker payloads), stamped with the
/// deterministic `# run-id=` line. parseSvcConfig re-validates the engine
/// gate, so a rejected pairing loaded from a file throws the same
/// diagnostic the CLI prints.
std::string serializeSvcConfig(const SvcConfig& config);
SvcConfig parseSvcConfig(const std::string& text);

}  // namespace ooc::svc
