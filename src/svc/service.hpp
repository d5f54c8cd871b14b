// The multi-decree replicated-log SERVICE: state-machine replication built
// from the paper's objects — the payoff the introduction motivates
// ("database transaction handling, ensuring storage replicas are mutually
// consistent"). Every decree is one instance of a pluggable single-shot
// consensus engine — the paper's generic template with any registered
// detector/driver pair, or a PaxosNode — hosted behind a per-decree
// Context adapter that wraps its traffic in a DecreeMessage envelope and
// captures decide() locally. With window = 1 and batchMax = 1 the node
// decides one command per decree, strictly in order (the sequential log).
// On top of that:
//
//  * Pipelining. A node may open decree k+1 while decree k is still
//    settling, up to `window` decrees beyond its lowest undecided decree
//    (multi-Paxos-style). Opens are always CONTIGUOUS: traffic for a
//    not-yet-opened decree makes the node open everything up to it, so a
//    quorum forms for every decree even at nodes with nothing to propose.
//  * Batching. Client commands are packed into batches of up to
//    `batchMax`; the 64-bit consensus Value carries the BATCH ID, and the
//    payload travels out-of-band (BatchAnnounce at formation, BatchFetch
//    for nodes that must apply a batch they never received). A batch that
//    loses its decree is re-proposed in a later one; a batch is re-proposed
//    only after its decree's outcome is known, so no batch can ever win two
//    decrees. Each announce BINDS the batch to the decree it is proposed
//    in, and a node joining that decree with nothing of its own ECHOES the
//    bound batch instead of a no-op — otherwise a lone proposer starves
//    under fixed-delay schedules (the no-op joiners' driver quorums close
//    among themselves and decide no-op forever). The echo cannot make a
//    batch win twice: a joiner never re-proposes a foreign batch, and the
//    owner re-binds only after the old decree decided against it, at which
//    point that decree's outcome is fixed by consensus agreement.
//  * Client traffic. Commands arrive from a deterministic Workload
//    (closed- or open-loop, zipfian keys); arrivals are timer-driven, so
//    the service runs under the plain asynchronous scheduler. Commits feed
//    back into the closed loop.
//  * Idle detection. Decrees are opened proactively only when there is
//    work (a pending command or an unassigned batch) and reactively only
//    on peer traffic, so a drained cluster quiesces and the simulator's
//    event queue runs dry — no stop predicate needed.
//
// Durability and recovery (the PR 3 persistence discipline mapped onto the
// log). With `durable`, the node journals four record kinds to a
// store::WriteAheadLog — command minted, batch formed, decree opened,
// decree committed — syncing per `syncBeforeReply`. On restart it replays
// the journal and then CATCHES UP: it fans out a CatchupRequest and peers
// reply with their applied prefix plus the batch payloads it needs.
//
// The safety subtlety is re-joining in-flight decrees: the engines
// themselves are volatile (a restarted Ben-Or or Paxos participant has
// forgotten its votes and promises), so a recovered node must NOT
// re-enter any decree its previous incarnation may have participated in.
// The journaled opens give the exact boundary (`quarantine`): the node
// abstains from every decree below it and learns those outcomes through
// catch-up, while the fault budget t covers its absence. A non-durable
// restart has no journal, so the node abstains from everything until the
// first catch-up reply and then derives a conservative boundary from the
// responder's applied prefix plus the pipeline depth. As with the Paxos
// node, `syncBeforeReply = false` deliberately re-opens the
// crash-before-sync window (a truncated journal under-estimates the
// quarantine) — that is the fault surface the checker explores, not a bug.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "sim/process.hpp"
#include "store/wal.hpp"
#include "svc/messages.hpp"
#include "svc/workload.hpp"
#include "util/flat_value_set.hpp"
#include "util/sliding_slots.hpp"

namespace ooc::svc {

/// The reserved "no command" value. Client commands are positive.
inline constexpr Value kNoopCommand = 0;

/// Packs (node, sequence) into a globally unique command id. The home node
/// lives in the high half so audits can attribute commands across layers.
constexpr Value makeCommand(ProcessId node, std::uint32_t seq) noexcept {
  return static_cast<Value>(
      (static_cast<std::uint64_t>(node + 1) << 32) | seq);
}
constexpr ProcessId commandNode(Value command) noexcept {
  return static_cast<ProcessId>(
             static_cast<std::uint64_t>(command) >> 32) - 1;
}

/// The reserved "empty decree" value decided when no batch wins.
inline constexpr Value kNoopBatch = 0;

/// Packs (node, sequence) into a globally unique batch id. Bit 62 keeps
/// batch ids disjoint from command ids, which share the packing below it.
constexpr Value makeBatchId(ProcessId node, std::uint32_t seq) noexcept {
  return static_cast<Value>((std::uint64_t{1} << 62) |
                            (static_cast<std::uint64_t>(node + 1) << 32) |
                            seq);
}
constexpr ProcessId batchNode(Value batchId) noexcept {
  return static_cast<ProcessId>(
             (static_cast<std::uint64_t>(batchId) >> 32) & 0x3FFFFFFFu) -
         1;
}

/// Builds the single-shot consensus engine for one decree. `proposal` is
/// the batch id this node puts forward (kNoopBatch when it joins the
/// decree reactively with nothing to propose); `proposer` mirrors
/// `proposal != kNoopBatch` so engine families with an active/passive
/// distinction (Paxos) can gate their ballot drivers on it. Randomized
/// engines MUST mix the decree into their seeds: template rounds restart
/// at 1 in every decree, so a decree-agnostic shared draw (e.g. the
/// lottery) would crown the same winner in every decree's round 1 — a
/// drained node's no-op could then win forever (livelock).
using EngineFactory = std::function<std::unique_ptr<Process>(
    std::uint64_t decree, Value proposal, bool proposer)>;

struct SvcNodeOptions {
  /// Pipeline depth: decrees this node may open beyond its lowest
  /// undecided decree. 1 decides strictly one decree at a time.
  std::uint64_t window = 2;
  /// Maximum client commands packed into one batch.
  std::size_t batchMax = 4;
  /// Upper bound on decrees, as a runaway guard.
  std::uint64_t maxDecrees = 10000;
  /// Retry period for fetching a missing batch payload.
  Tick fetchRetry = 32;
  /// Retry period for restart catch-up rounds.
  Tick catchupRetry = 64;
  /// Journal commands/batches/opens/commits to a write-ahead log.
  bool durable = false;
  /// Sync the journal inside persist() (the safe discipline); false
  /// re-opens the crash-before-sync window on purpose.
  bool syncBeforeReply = true;
  /// Storage fault injection applied when a crash hits the journal.
  store::FaultConfig storage;
};

class SvcNode final : public Process {
 public:
  SvcNode(EngineFactory engineFactory, const WorkloadOptions& workload,
          std::size_t n, std::uint64_t seed, SvcNodeOptions options);
  ~SvcNode() override;

  void onStart() override;
  void onRestart() override;
  void onCrash() override;
  void onMessage(ProcessId from, const Message& message) override;
  void onTimer(TimerId id) override;
  void onTick(Tick tick) override;

  // --- observation (used by runSvc audits and metrics) ---

  /// Applied batch id per decree, in decree order (kNoopBatch for empty
  /// decrees). Cleared by a restart and rebuilt from journal + catch-up.
  const std::vector<Value>& decreeLog() const noexcept { return decreeLog_; }
  /// Applied client commands flattened in decree order (no-ops excluded).
  const std::vector<Value>& applied() const noexcept { return applied_; }
  /// Tick at which each live apply happened (journal replays excluded).
  const std::vector<Tick>& commitTicks() const noexcept {
    return commitTicks_;
  }
  /// Arrival-to-apply latency of this node's own commands, in ticks.
  const std::vector<Tick>& latencies() const noexcept { return latencies_; }
  /// Applied non-noop batch sizes.
  const std::vector<std::uint32_t>& batchSizes() const noexcept {
    return batchSizes_;
  }
  std::uint64_t commitIndex() const noexcept { return commitIndex_; }
  std::uint64_t noopDecrees() const noexcept { return noopDecrees_; }
  /// Commands whose second apply was suppressed (must stay 0: a batch is
  /// re-proposed only after it provably lost its decree).
  std::uint64_t duplicatesSuppressed() const noexcept {
    return dupSuppressed_;
  }
  std::uint64_t recoveries() const noexcept { return recoveries_; }
  const Workload& workload() const noexcept { return workload_; }
  const store::WriteAheadLog* wal() const noexcept { return wal_.get(); }

 private:
  class DecreeContextImpl;
  struct ActiveDecree {
    std::unique_ptr<DecreeContextImpl> context;
    std::unique_ptr<Process> engine;
  };

  // Journal record tags (first word of each record).
  enum : std::uint64_t {
    kRecCmd = 1,     ///< {tag, command}
    kRecBatch = 2,   ///< {tag, batchId, n, commands...}
    kRecOpen = 3,    ///< {tag, decree, proposal}
    kRecCommit = 4,  ///< {tag, decree, batchId, n, commands...}
  };

  /// No arrival tick recorded (an empty arrivalTick_ slot).
  static constexpr Tick kNoArrival = ~Tick{0};

  static std::uint64_t enc(Value v) noexcept {
    return static_cast<std::uint64_t>(v);
  }
  static Value dec(std::uint64_t w) noexcept {
    return static_cast<Value>(w);
  }

  void persist(std::span<const std::uint64_t> record);
  /// Journals `head`, then the command count and the commands (the batch
  /// and commit records).
  void persistWithCommands(std::initializer_list<std::uint64_t> head,
                           std::span<const Value> cmds);
  void recoverFromJournal();

  /// The incarnation's high byte of every command and batch sequence
  /// number, so ids never collide across restarts (a non-durable restart
  /// forgets the counters).
  std::uint32_t incarnationBits() const noexcept {
    return static_cast<std::uint32_t>(recoveries_ & 0xFF) << 24;
  }
  Value mintCommand();
  void handleArrivals();
  void armArrivalTimer();

  Value takeProposal(std::uint64_t decree);
  void formAndOpen();
  void openThrough(std::uint64_t decree);
  void openDecree(std::uint64_t decree);

  /// The engine hosting `decree`, or null when it is not open here.
  Process* engineFor(std::uint64_t decree) const noexcept;
  /// Removes an engine timer's binding; the decree it was armed for, if
  /// it was still bound.
  std::optional<std::uint64_t> takeTimer(TimerId id) noexcept;

  void handleDecreeTraffic(ProcessId from, const DecreeMessage& envelope);
  void onDecreeDecided(std::uint64_t decree, Value winner);
  void recordDecided(std::uint64_t decree, Value winner);
  void applyReady();
  void requestMissingBatch(Value batchId);
  void pruneRetired();
  void fireCatchup();
  void replyCatchup(ProcessId to, std::uint64_t fromDecree);
  void mergeCatchup(const CatchupReply& reply);

  EngineFactory engineFactory_;
  SvcNodeOptions options_;
  /// Workload construction parameters, kept so onStart can home the
  /// generator at the node id (unknown until bound).
  WorkloadOptions workloadOptions_;
  std::size_t workloadN_ = 0;
  std::uint64_t workloadSeed_ = 0;
  Workload workload_;

  // --- command/batch minting ---
  std::uint32_t cmdSeq_ = 0;    ///< per-incarnation (see mintCommand)
  std::uint32_t batchSeq_ = 0;  ///< per-incarnation
  std::deque<Value> pendingCmds_;
  /// Arrival tick of each own command this incarnation minted, keyed by
  /// its sequence number and emptied at apply, for latency accounting
  /// (volatile: recovered commands carry no arrival tick).
  SlidingSlots<Tick, kNoArrival> arrivalTick_;
  /// Formed batches awaiting (re-)proposal.
  std::deque<Value> unassigned_;
  /// Batch id -> payload; retained after apply to serve fetch/catch-up.
  /// Holds the announce itself, so every node shares the one command
  /// vector a batch's owner built.
  std::unordered_map<Value, MessageHandle<const BatchAnnounce>> batchStore_;
  /// Scratch for variable-length journal records (reused, durable only).
  std::vector<std::uint64_t> journalRecord_;

  // --- decree pipeline ---
  /// Open engines: slot i hosts decree tableBase_ + i. Opens are
  /// contiguous at nextOpen_ and pruning pops the front, so the table is a
  /// window over the log; a slot with no engine is a decree this node
  /// jumped past without opening it.
  std::deque<ActiveDecree> table_;
  std::uint64_t tableBase_ = 0;
  /// Armed engine timers as (timer id, decree), sorted by id. The
  /// simulator's timer ids only increase, so arming one appends.
  std::vector<std::pair<TimerId, std::uint64_t>> timerDecree_;
  /// Decided but not yet applied (applies are strictly in decree order):
  /// the window starts at commitIndex_.
  SlidingSlots<Value, kNoValue> decided_;
  /// Decree -> the OWN batch this node proposed there; consumed when the
  /// outcome is known (requeued on loss). Survives restarts via kRecOpen.
  /// Echoed foreign batches never enter: requeueing one would bind it to
  /// two decrees at once, the exact double-win the discipline rules out.
  std::map<std::uint64_t, Value> openProposals_;
  /// Decree -> batch an announce bound to it (first binding wins); a node
  /// opening the decree with no work of its own echoes this instead of a
  /// no-op. Only decrees from nextOpen_ on are ever read, so the window
  /// slides up to it. Volatile: after a restart the echo is unavailable.
  SlidingSlots<Value, kNoValue> announcedBinding_;
  std::uint64_t firstUndecided_ = 0;
  std::uint64_t nextOpen_ = 0;
  std::uint64_t commitIndex_ = 0;  ///< next decree to apply
  /// Engines pruned mid-handler park here until the next top-level event
  /// (the pruning call may sit below the pruned engine's own frame).
  std::vector<ActiveDecree> graveyard_;

  // --- applied state ---
  std::vector<Value> decreeLog_;
  std::vector<Value> applied_;
  FlatValueSet appliedSet_;
  FlatValueSet committedBatches_;
  std::vector<Tick> commitTicks_;
  std::vector<Tick> latencies_;
  std::vector<std::uint32_t> batchSizes_;
  std::uint64_t noopDecrees_ = 0;
  std::uint64_t dupSuppressed_ = 0;

  // --- timers ---
  TimerId arrivalTimer_ = 0;
  Tick arrivalArmedFor_ = 0;
  TimerId fetchTimer_ = 0;
  TimerId catchupTimer_ = 0;
  int catchupTries_ = 0;

  // --- durability + recovery ---
  std::unique_ptr<store::WriteAheadLog> wal_;
  /// Decrees below this may hold the previous incarnation's votes; the
  /// node never hosts engines for them (outcomes arrive via catch-up).
  std::uint64_t quarantine_ = 0;
  /// Non-durable restart: abstain from everything until the first
  /// catch-up reply supplies a conservative quarantine.
  bool recovering_ = false;
  std::uint64_t recoveries_ = 0;
};

}  // namespace ooc::svc
