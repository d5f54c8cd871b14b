// Raft-native replicated-log service node: the baseline the composed
// engines are measured against in E21. Where SvcNode builds the log out
// of per-decree single-shot consensus instances, Raft IS a multi-decree
// log natively — leader-based pipelining (AppendEntries carries up to
// maxEntriesPerAppend entries), commit-index batching, and durable
// restart recovery all come from RaftProcess. This adapter only adds the
// client side:
//
//  * the same deterministic Workload as SvcNode mints commands on a
//    timer;
//  * a node that is not the leader fans its commands out (CmdForward);
//    whoever leads appends each offered batch at once (submitAll),
//    deduplicating against its unapplied log suffix and the applied set;
//  * commands not yet applied are re-fanned-out periodically, which is
//    what carries them across leader failovers (the blackout window E21
//    measures is visible as the commit-tick gap this retry bridges);
//  * onApply records the service-level log: applied commands (exactly
//    once — a failover can legitimately duplicate a command in the Raft
//    log, the apply-level dedup suppresses the second occurrence
//    identically at every node), per-command decide latency, and the
//    commit-advance batch sizes.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "raft/raft_process.hpp"
#include "svc/service.hpp"
#include "svc/workload.hpp"
#include "util/flat_value_set.hpp"

namespace ooc::svc {

/// A non-leader's client commands, fanned out so the current leader (now
/// or after the next election) can append them.
class CmdForward final : public MessageBase<CmdForward> {
 public:
  explicit CmdForward(std::vector<Value> commands)
      : commands_(std::move(commands)) {}

  const std::vector<Value>& commands() const noexcept { return commands_; }

  std::string describe() const override {
    return "CmdForward{cmds=" + std::to_string(commands_.size()) + "}";
  }

 private:
  std::vector<Value> commands_;
};

struct RaftLogOptions {
  raft::RaftConfig raft;
  /// Period of the unapplied-command re-fanout (the failover bridge).
  Tick resubmitEvery = 80;
};

class RaftLogNode final : public raft::RaftProcess {
 public:
  RaftLogNode(RaftLogOptions options, const WorkloadOptions& workload,
              std::size_t n, std::uint64_t seed);

  void onStart() override;
  void onRestart() override;
  void onMessage(ProcessId from, const Message& message) override;
  void onTimer(TimerId id) override;

  // --- observation (the SvcNode-shaped view runSvc audits) ---
  const std::vector<Value>& applied() const noexcept { return applied_; }
  const std::vector<Tick>& commitTicks() const noexcept {
    return commitTicks_;
  }
  const std::vector<Tick>& latencies() const noexcept { return latencies_; }
  const std::vector<std::uint32_t>& batchSizes() const noexcept {
    return batchSizes_;
  }
  std::uint64_t duplicatesSuppressed() const noexcept {
    return dupSuppressed_;
  }
  /// Leader-barrier no-ops this node applied (skipped entries; the raft
  /// analogue of SvcNode's no-op decrees — see RaftProcess::leaderBarrier).
  std::uint64_t noopsApplied() const noexcept { return noopsApplied_; }
  const Workload& workload() const noexcept { return workload_; }

  /// This node's client calendar is exhausted and every command it minted
  /// (and still remembers) has been applied locally. Raft never quiesces
  /// on its own — heartbeats and the resubmit bridge re-arm forever — so
  /// runSvc's stop predicate is built from this.
  bool drained() const noexcept;

  /// (tick, term) of each election this node won, for the failover
  /// blackout probe. Survives restarts.
  struct LeaderEvent {
    Tick at = 0;
    raft::Term term = 0;
  };
  const std::vector<LeaderEvent>& leaderEvents() const noexcept {
    return leaderEvents_;
  }

 protected:
  void onApply(raft::LogIndex index, const raft::LogEntry& entry) override;
  void onBecameLeader() override;
  void onCommitAdvanced() override;
  void onVolatileReset() override;
  std::optional<Value> leaderBarrier() const override;

 private:
  Value mintCommand();
  void armArrivalTimer();
  void handleArrivals();
  void offerCommands(const std::vector<Value>& commands);
  void resubmitUnapplied();

  WorkloadOptions workloadOptions_;
  std::size_t workloadN_;
  std::uint64_t workloadSeed_;
  Workload workload_;

  std::uint32_t cmdSeq_ = 0;  ///< per-incarnation (see mintCommand)
  /// Own commands in mint order, retried until applied.
  std::deque<Value> pendingLocal_;
  /// Own commands of this incarnation not yet applied -> arrival tick
  /// (latency accounting; empty exactly when pendingLocal_ is all applied).
  std::unordered_map<Value, Tick> arrivalTick_;

  std::vector<Value> applied_;
  FlatValueSet appliedSet_;
  std::vector<Tick> commitTicks_;
  std::vector<Tick> latencies_;
  std::vector<std::uint32_t> batchSizes_;
  std::uint64_t dupSuppressed_ = 0;
  std::uint64_t noopsApplied_ = 0;
  raft::LogIndex lastBatchCommit_ = 0;
  std::vector<LeaderEvent> leaderEvents_;

  TimerId arrivalTimer_ = 0;
  Tick arrivalArmedFor_ = 0;
  TimerId resubmitTimer_ = 0;
  /// False until onStart (or onRestart) homes the workload at self().
  bool booted_ = false;
  /// True while the base class replays the journal in onRestart: replayed
  /// applies must not re-trigger closed-loop client feedback.
  bool replaying_ = false;

  Tick resubmitEvery_;
};

}  // namespace ooc::svc
