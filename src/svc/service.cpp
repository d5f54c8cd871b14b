#include "svc/service.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/logging.hpp"

namespace ooc::svc {

namespace {
/// Catch-up rounds before a recovering node gives up (the counter resets
/// whenever a round makes progress, so this only stops retries against a
/// drained or dead cluster — liveness there is out of the fault budget).
constexpr int kMaxCatchupTries = 6;
/// Retired engines are dropped once the undecided frontier is this far
/// past them: no correct straggler can still need their traffic.
constexpr std::uint64_t kRetireHorizon = 4;

/// Orders SvcNode::timerDecree_ entries against a timer id.
bool timerBefore(const std::pair<TimerId, std::uint64_t>& entry,
                 TimerId id) noexcept {
  return entry.first < id;
}

/// A command's sequence half, (incarnation << 24) | per-incarnation count:
/// the key of SvcNode::arrivalTick_.
std::uint64_t commandSeq(Value command) noexcept {
  return static_cast<std::uint32_t>(command);
}
}  // namespace

/// Per-decree view of the node's Context: wraps engine traffic in a
/// DecreeMessage envelope and redirects decide() to the decree
/// bookkeeping.
class SvcNode::DecreeContextImpl final : public Context {
 public:
  DecreeContextImpl(SvcNode& host, std::uint64_t decree) noexcept
      : host_(host), decree_(decree), n_(host.ctx().processCount()) {}

  ProcessId self() const noexcept override { return host_.ctx().self(); }
  std::size_t processCount() const noexcept override { return n_; }
  Tick now() const noexcept override { return host_.ctx().now(); }
  Rng& rng() noexcept override { return host_.ctx().rng(); }

  void post(ProcessId to, MessagePtr msg) override {
    host_.ctx().post(to, makeMessage<DecreeMessage>(decree_, std::move(msg)));
  }
  void fanout(MessagePtr msg) override {
    host_.ctx().fanout(makeMessage<DecreeMessage>(decree_, std::move(msg)));
  }
  TimerId setTimer(Tick delay) override {
    const TimerId id = host_.ctx().setTimer(delay);
    host_.timerDecree_.emplace_back(id, decree_);  // ids only increase
    return id;
  }
  void cancelTimer(TimerId id) noexcept override {
    host_.takeTimer(id);
    host_.ctx().cancelTimer(id);
  }
  void decide(Value v) override { host_.onDecreeDecided(decree_, v); }

 private:
  SvcNode& host_;
  std::uint64_t decree_;
  std::size_t n_;  // the cluster size never changes
};

SvcNode::SvcNode(EngineFactory engineFactory, const WorkloadOptions& workload,
                 std::size_t n, std::uint64_t seed, SvcNodeOptions options)
    : engineFactory_(std::move(engineFactory)), options_(options) {
  // The workload must be homed at this node's id, which is only known once
  // bound; Process::bind happens before onStart, so it is built there.
  Workload::validate(workload, n);
  if (options_.window == 0)
    throw std::invalid_argument("svc: window must be positive");
  if (options_.batchMax == 0)
    throw std::invalid_argument("svc: batchMax must be positive");
  if (options_.durable) {
    wal_ = std::make_unique<store::WriteAheadLog>(options_.storage);
  }
  workloadSeed_ = seed;
  workloadN_ = n;
  workloadOptions_ = workload;
}

SvcNode::~SvcNode() = default;

void SvcNode::persist(std::span<const std::uint64_t> record) {
  if (!wal_) return;
  wal_->append(record);
  if (options_.syncBeforeReply) wal_->sync();
}

void SvcNode::persistWithCommands(std::initializer_list<std::uint64_t> head,
                                  std::span<const Value> cmds) {
  if (!wal_) return;
  journalRecord_.assign(head);
  journalRecord_.push_back(cmds.size());
  for (Value cmd : cmds) journalRecord_.push_back(enc(cmd));
  persist(journalRecord_);
}

Value SvcNode::mintCommand() {
  ++cmdSeq_;
  if (cmdSeq_ >= (1u << 24))
    throw std::overflow_error("svc: command sequence exhausted");
  return makeCommand(ctx().self(), incarnationBits() | cmdSeq_);
}

void SvcNode::onStart() {
  // Home the workload now that self() is known.
  workload_ = Workload(workloadOptions_, ctx().self(), workloadN_,
                       workloadSeed_);
  armArrivalTimer();
}

void SvcNode::onCrash() {
  if (wal_) wal_->crash(ctx().rng());
}

void SvcNode::onRestart() {
  ++recoveries_;
  // Drop every volatile structure. The workload object survives (its
  // calendar and caps persist across the restart — clients do not crash
  // with the replica), but commands in flight at the crash are gone unless
  // the journal remembers them.
  table_.clear();
  tableBase_ = 0;
  timerDecree_.clear();
  graveyard_.clear();
  decided_.clear();
  openProposals_.clear();
  announcedBinding_.clear();
  pendingCmds_.clear();
  arrivalTick_.clear();
  arrivalTick_.advanceTo(incarnationBits());
  unassigned_.clear();
  batchStore_.clear();
  decreeLog_.clear();
  applied_.clear();
  appliedSet_.clear();
  committedBatches_.clear();
  commitTicks_.clear();
  latencies_.clear();
  batchSizes_.clear();
  noopDecrees_ = 0;
  dupSuppressed_ = 0;
  commitIndex_ = 0;
  firstUndecided_ = 0;
  nextOpen_ = 0;
  cmdSeq_ = 0;
  batchSeq_ = 0;
  arrivalTimer_ = 0;
  arrivalArmedFor_ = 0;
  fetchTimer_ = 0;
  catchupTimer_ = 0;
  catchupTries_ = 0;

  if (wal_) {
    recoverFromJournal();
    recovering_ = false;
  } else {
    // No journal: the previous incarnation may have voted anywhere, so
    // abstain from every decree until the first catch-up reply bounds the
    // damage (quarantine provisionally covers everything).
    recovering_ = true;
    quarantine_ = options_.maxDecrees;
  }
  OOC_TRACE("svc p", ctx().self(), " restarts: commit=", commitIndex_,
            " quarantine=", quarantine_, recovering_ ? " (recovering)" : "");
  armArrivalTimer();
  fireCatchup();
}

void SvcNode::recoverFromJournal() {
  std::vector<Value> minted;  // in mint order
  std::vector<Value> formed;  // in formation order
  FlatValueSet batched;
  std::uint64_t maxOpen = 0;
  for (const auto& record : wal_->recover()) {
    if (record.empty()) continue;
    switch (record[0]) {
      case kRecCmd: {
        if (record.size() < 2) break;
        minted.push_back(dec(record[1]));
        break;
      }
      case kRecBatch: {
        if (record.size() < 3) break;
        const Value id = dec(record[1]);
        const std::size_t n = static_cast<std::size_t>(record[2]);
        if (record.size() < 3 + n) break;
        std::vector<Value> cmds;
        cmds.reserve(n);
        for (std::size_t i = 0; i < n; ++i) {
          cmds.push_back(dec(record[3 + i]));
          batched.insert(dec(record[3 + i]));
        }
        batchStore_[id] = makeMessage<BatchAnnounce>(id, std::move(cmds));
        formed.push_back(id);
        break;
      }
      case kRecOpen: {
        if (record.size() < 3) break;
        const std::uint64_t decree = record[1];
        maxOpen = std::max(maxOpen, decree + 1);
        // Echoed foreign batches were journaled as the open's proposal but
        // must not be adopted back: requeueing one on loss would bind it
        // to a second decree while its owner re-proposes it too.
        const Value proposal = dec(record[2]);
        if (proposal == kNoopBatch || batchNode(proposal) != ctx().self())
          break;
        // A later open of the same batch is a re-binding, journaled only
        // after the earlier decree was lost: it replaces that binding, as
        // at run time. Keeping both would let catch-up's report of the
        // lost decree requeue the batch while the newer decree can still
        // choose it — one batch winning two decrees.
        std::erase_if(openProposals_, [proposal](const auto& entry) {
          return entry.second == proposal;
        });
        openProposals_[decree] = proposal;
        break;
      }
      case kRecCommit: {
        if (record.size() < 4) break;
        const std::uint64_t decree = record[1];
        const Value batch = dec(record[2]);
        const std::size_t n = static_cast<std::size_t>(record[3]);
        if (record.size() < 4 + n || decree != decreeLog_.size()) break;
        decreeLog_.push_back(batch);
        openProposals_.erase(decree);
        if (batch == kNoopBatch) {
          ++noopDecrees_;
          break;
        }
        committedBatches_.insert(batch);
        for (std::size_t i = 0; i < n; ++i) {
          const Value cmd = dec(record[4 + i]);
          if (appliedSet_.insert(cmd)) applied_.push_back(cmd);
        }
        break;
      }
      default:
        break;
    }
  }
  commitIndex_ = decreeLog_.size();
  decided_.advanceTo(commitIndex_);
  firstUndecided_ = commitIndex_;
  // Minted commands that never made it into a batch go back to pending;
  // formed batches whose decree outcome is unknown stay parked in
  // openProposals_ (requeued on loss via catch-up), the rest requeue now.
  for (Value cmd : minted) {
    if (!batched.contains(cmd) && !appliedSet_.contains(cmd))
      pendingCmds_.push_back(cmd);
  }
  FlatValueSet awaiting;
  for (const auto& [decree, batch] : openProposals_) awaiting.insert(batch);
  for (Value batch : formed) {
    if (!committedBatches_.contains(batch) && !awaiting.contains(batch))
      unassigned_.push_back(batch);
  }
  // The journaled opens bound everything the previous incarnation can have
  // voted in; never re-enter those decrees with a fresh (amnesiac) engine.
  quarantine_ = std::max(maxOpen, commitIndex_);
  nextOpen_ = quarantine_;
}

// --- client arrivals -------------------------------------------------------

void SvcNode::armArrivalTimer() {
  const Tick now = ctx().now();
  const Tick next = workload_.nextArrivalTick(now);
  if (next == 0) return;
  if (arrivalTimer_ != 0) {
    if (arrivalArmedFor_ <= next) return;  // an earlier firing covers it
    ctx().cancelTimer(arrivalTimer_);
  }
  arrivalArmedFor_ = next;
  arrivalTimer_ = ctx().setTimer(next - now);
}

void SvcNode::handleArrivals() {
  arrivalTimer_ = 0;
  const Tick now = ctx().now();
  for (const Arrival& arrival : workload_.collect(now)) {
    (void)arrival;  // client/key shape the draw; the command is the unit
    const Value cmd = mintCommand();
    pendingCmds_.push_back(cmd);
    arrivalTick_.put(commandSeq(cmd), now);
    const std::uint64_t record[] = {kRecCmd, enc(cmd)};
    persist(record);
  }
  armArrivalTimer();
  formAndOpen();
}

// --- decree pipeline -------------------------------------------------------

Value SvcNode::takeProposal(std::uint64_t decree) {
  if (!unassigned_.empty()) {
    // Re-proposal after a loss: re-announce under the NEW decree binding
    // so joiners echo it there (peers already hold the payload, but the
    // binding is what keeps the batch live against no-op quorums).
    const Value batch = unassigned_.front();
    unassigned_.pop_front();
    ctx().fanout(makeMessage<BatchAnnounce>(
        batch, batchStore_.at(batch)->commands(), decree));
    return batch;
  }
  const std::size_t take = std::min(options_.batchMax, pendingCmds_.size());
  if (take == 0) {
    // Nothing of our own: echo the batch an announce bound to this decree,
    // if any — joining with the owner's proposal instead of a no-op is
    // what lets a lone proposer win against reactive joiners.
    const Value bound = announcedBinding_.get(decree);
    if (bound != kNoValue && !committedBatches_.contains(bound) &&
        batchStore_.contains(bound)) {
      return bound;
    }
    return kNoopBatch;
  }
  ++batchSeq_;
  const Value id = makeBatchId(ctx().self(), incarnationBits() | batchSeq_);
  std::vector<Value> cmds(pendingCmds_.begin(),
                          pendingCmds_.begin() +
                              static_cast<std::ptrdiff_t>(take));
  pendingCmds_.erase(pendingCmds_.begin(),
                     pendingCmds_.begin() +
                         static_cast<std::ptrdiff_t>(take));
  persistWithCommands({kRecBatch, enc(id)}, cmds);
  auto announce = makeMessage<BatchAnnounce>(id, std::move(cmds), decree);
  batchStore_[id] = announce;
  ctx().fanout(std::move(announce));
  return id;
}

void SvcNode::formAndOpen() {
  if (recovering_) return;
  // The window is anchored at the undecided frontier — or, right after a
  // recovery, at the quarantine boundary (the node re-enters the log there
  // while catch-up fills the decrees below).
  const std::uint64_t base = std::max(firstUndecided_, quarantine_);
  while (nextOpen_ < options_.maxDecrees &&
         nextOpen_ < base + options_.window &&
         (!unassigned_.empty() || !pendingCmds_.empty())) {
    openDecree(nextOpen_);
  }
}

void SvcNode::openThrough(std::uint64_t decree) {
  // Reactive joins bypass the window but stay contiguous, so every decree
  // between the frontier and the triggering traffic gets this node's
  // participation (with real work if any is pending, else a no-op).
  while (nextOpen_ <= decree && nextOpen_ < options_.maxDecrees)
    openDecree(nextOpen_);
}

void SvcNode::openDecree(std::uint64_t decree) {
  const Value proposal = takeProposal(decree);
  const std::uint64_t record[] = {kRecOpen, decree, enc(proposal)};
  persist(record);
  // Only OWN batches enter openProposals_ (echoed foreign ones are the
  // owner's to requeue — see the header's double-win note).
  if (proposal != kNoopBatch && batchNode(proposal) == ctx().self())
    openProposals_[decree] = proposal;
  ActiveDecree slot;
  slot.context = std::make_unique<DecreeContextImpl>(*this, decree);
  slot.engine = engineFactory_(decree, proposal, proposal != kNoopBatch);
  slot.engine->bind(*slot.context);
  Process* engine = slot.engine.get();
  // Opens land at the table's end; only a catch-up jump past it leaves
  // engine-less slots behind.
  if (table_.empty()) tableBase_ = decree;
  while (tableBase_ + table_.size() < decree) table_.emplace_back();
  table_.push_back(std::move(slot));
  nextOpen_ = std::max(nextOpen_, decree + 1);
  OOC_TRACE("svc p", ctx().self(), " opens decree ", decree, " proposing ",
            proposal);
  engine->onStart();
}

void SvcNode::handleDecreeTraffic(ProcessId from,
                                  const DecreeMessage& envelope) {
  const std::uint64_t decree = envelope.decree();
  if (decree >= options_.maxDecrees) return;
  if (recovering_ || decree < quarantine_) {
    // The previous incarnation may have voted here; abstain (the outcome
    // arrives via catch-up, and the fault budget covers our absence).
    return;
  }
  Process* engine = engineFor(decree);
  if (engine == nullptr) {
    if (decree < nextOpen_) {
      // Decided and pruned here. The sender is a straggler whose engine
      // lost its quorum partners — tell it the outcome from our applied
      // log or it ballots forever (its retries bound the chatter, and
      // learning the outcome is what stops them).
      if (decree < commitIndex_ && from != ctx().self())
        ctx().post(from, makeMessage<DecreeOutcome>(decree,
                                                    decreeLog_[decree]));
      return;
    }
    openThrough(decree);
    engine = engineFor(decree);
    if (engine == nullptr) return;
  }
  engine->onMessage(from, envelope.inner());
}

void SvcNode::onDecreeDecided(std::uint64_t decree, Value winner) {
  recordDecided(decree, winner);
  applyReady();
  pruneRetired();
  formAndOpen();
}

void SvcNode::recordDecided(std::uint64_t decree, Value winner) {
  if (decree < commitIndex_) return;  // already applied
  if (!decided_.put(decree, winner)) return;  // already known
  OOC_TRACE("svc p", ctx().self(), " decree ", decree, " -> ", winner);
  announcedBinding_.take(decree);
  // If our batch lost this decree, it fights again in a later one. (It can
  // never win two: re-proposal happens strictly after the loss is known.)
  const auto mine = openProposals_.find(decree);
  if (mine != openProposals_.end()) {
    if (mine->second != winner && !committedBatches_.contains(mine->second))
      unassigned_.push_back(mine->second);
    openProposals_.erase(mine);
  }
  while (decided_.get(firstUndecided_) != kNoValue) ++firstUndecided_;
}

void SvcNode::applyReady() {
  bool progressed = false;
  for (;;) {
    const Value batch = decided_.get(commitIndex_);
    if (batch == kNoValue) break;
    const auto payload =
        batch == kNoopBatch ? batchStore_.end() : batchStore_.find(batch);
    if (batch != kNoopBatch && payload == batchStore_.end()) {
      requestMissingBatch(batch);  // head-of-line blocked on the payload
      break;
    }
    const Tick now = ctx().now();
    decreeLog_.push_back(batch);
    commitTicks_.push_back(now);
    std::span<const Value> cmds;
    if (batch != kNoopBatch) cmds = payload->second->commands();
    persistWithCommands({kRecCommit, commitIndex_, enc(batch)}, cmds);
    if (batch == kNoopBatch) {
      ++noopDecrees_;
    } else {
      committedBatches_.insert(batch);
      batchSizes_.push_back(static_cast<std::uint32_t>(cmds.size()));
      for (Value cmd : cmds) {
        if (!appliedSet_.insert(cmd)) {
          ++dupSuppressed_;
          continue;
        }
        applied_.push_back(cmd);
        if (commandNode(cmd) == ctx().self()) {
          const Tick arrived = arrivalTick_.take(commandSeq(cmd));
          if (arrived != kNoArrival) {
            latencies_.push_back(now - arrived);
            arrivalTick_.dropEmptyFront();
          }
          workload_.onCommit(now);  // closed-loop client thinks, re-arrives
        }
      }
    }
    ++commitIndex_;
    decided_.advanceTo(commitIndex_);
    firstUndecided_ = std::max(firstUndecided_, commitIndex_);
    progressed = true;
  }
  if (progressed) {
    armArrivalTimer();
    // Still below the quarantine: catch-up is the only transport for the
    // remaining outcomes, so keep rounds coming while they make progress.
    if (commitIndex_ < quarantine_ && !recovering_ && catchupTimer_ == 0) {
      catchupTries_ = 0;
      catchupTimer_ = ctx().setTimer(options_.catchupRetry);
    }
  }
}

void SvcNode::requestMissingBatch(Value batchId) {
  if (fetchTimer_ != 0) return;  // one head-of-line fetch at a time
  ctx().fanout(makeMessage<BatchFetch>(batchId));
  fetchTimer_ = ctx().setTimer(options_.fetchRetry);
}

void SvcNode::pruneRetired() {
  // Engines park in the graveyard until the next top-level event: the
  // pruning call may sit below the pruned engine's own handler frame.
  while (!table_.empty() && tableBase_ + kRetireHorizon <= firstUndecided_) {
    if (table_.front().engine) graveyard_.push_back(std::move(table_.front()));
    table_.pop_front();
    ++tableBase_;
  }
}

Process* SvcNode::engineFor(std::uint64_t decree) const noexcept {
  if (decree < tableBase_ || decree - tableBase_ >= table_.size())
    return nullptr;
  return table_[decree - tableBase_].engine.get();
}

std::optional<std::uint64_t> SvcNode::takeTimer(TimerId id) noexcept {
  const auto at = std::lower_bound(timerDecree_.begin(), timerDecree_.end(),
                                   id, timerBefore);
  if (at == timerDecree_.end() || at->first != id) return std::nullopt;
  const std::uint64_t decree = at->second;
  timerDecree_.erase(at);
  return decree;
}

// --- catch-up --------------------------------------------------------------

void SvcNode::fireCatchup() {
  if (!recovering_ && commitIndex_ >= quarantine_) return;  // caught up
  if (catchupTries_ >= kMaxCatchupTries) return;
  ++catchupTries_;
  ctx().fanout(makeMessage<CatchupRequest>(commitIndex_));
  catchupTimer_ = ctx().setTimer(options_.catchupRetry);
}

void SvcNode::replyCatchup(ProcessId to, std::uint64_t fromDecree) {
  if (fromDecree >= decreeLog_.size()) return;  // nothing they lack
  std::vector<Value> decrees(decreeLog_.begin() +
                                 static_cast<std::ptrdiff_t>(fromDecree),
                             decreeLog_.end());
  std::vector<std::pair<Value, std::vector<Value>>> batches;
  for (Value batch : decrees) {
    if (batch == kNoopBatch) continue;
    const auto payload = batchStore_.find(batch);
    if (payload != batchStore_.end())
      batches.emplace_back(batch, payload->second->commands());
  }
  ctx().post(to, makeMessage<CatchupReply>(fromDecree, std::move(decrees),
                                           std::move(batches)));
}

void SvcNode::mergeCatchup(const CatchupReply& reply) {
  for (const auto& [id, cmds] : reply.batches()) {
    auto [slot, inserted] = batchStore_.try_emplace(id);
    if (inserted) slot->second = makeMessage<BatchAnnounce>(id, cmds);
  }
  if (recovering_) {
    // First reply after a non-durable restart: the responder's applied
    // prefix plus the pipeline depth bounds how far our previous
    // incarnation can have participated (its opens trailed the cluster's
    // applied frontier by at most window on each side).
    recovering_ = false;
    const std::uint64_t horizon = reply.fromDecree() + reply.decrees().size();
    quarantine_ = std::min(options_.maxDecrees,
                           horizon + 2 * options_.window + 2);
    nextOpen_ = std::max(nextOpen_, quarantine_);
  }
  std::uint64_t decree = reply.fromDecree();
  for (Value winner : reply.decrees()) recordDecided(decree++, winner);
  applyReady();
  pruneRetired();
  formAndOpen();
}

// --- event plumbing --------------------------------------------------------

void SvcNode::onMessage(ProcessId from, const Message& message) {
  graveyard_.clear();
  if (const auto* envelope = message.as<DecreeMessage>()) {
    handleDecreeTraffic(from, *envelope);
    return;
  }
  if (const auto* announce = message.as<BatchAnnounce>()) {
    auto [slot, inserted] = batchStore_.try_emplace(announce->batchId());
    if (inserted)
      slot->second = MessageHandle<const BatchAnnounce>::share(*announce);
    // Remember the binding for a decree we have not joined yet: if we open
    // it with nothing of our own, we echo this batch instead of a no-op.
    // First binding wins when two owners race for the same decree.
    if (announce->bindingDecree() != kNoBinding &&
        announce->bindingDecree() >= nextOpen_ &&
        announce->bindingDecree() >= quarantine_ && !recovering_) {
      announcedBinding_.advanceTo(nextOpen_);
      announcedBinding_.put(announce->bindingDecree(), announce->batchId());
    }
    applyReady();  // may unblock a head-of-line fetch
    return;
  }
  if (const auto* outcome = message.as<DecreeOutcome>()) {
    // Straggler rescue: the replier's applied log is final, so the
    // outcome can be recorded as if our engine had decided — even for a
    // quarantined decree (learning is not participating; catch-up feeds
    // recordDecided the same way).
    recordDecided(outcome->decree(), outcome->winner());
    applyReady();
    pruneRetired();
    formAndOpen();
    return;
  }
  if (const auto* fetch = message.as<BatchFetch>()) {
    const auto payload = batchStore_.find(fetch->batchId());
    if (payload != batchStore_.end()) {
      // No binding on fetch replies: the batch is typically decided
      // already, so echoing it anywhere would be wrong.
      ctx().post(from, makeMessage<BatchAnnounce>(
                           fetch->batchId(), payload->second->commands()));
    }
    return;
  }
  if (const auto* request = message.as<CatchupRequest>()) {
    if (from != ctx().self()) replyCatchup(from, request->fromDecree());
    return;
  }
  if (const auto* reply = message.as<CatchupReply>()) {
    mergeCatchup(*reply);
    return;
  }
}

void SvcNode::onTimer(TimerId id) {
  graveyard_.clear();
  if (id == arrivalTimer_) {
    handleArrivals();
    return;
  }
  if (id == fetchTimer_) {
    fetchTimer_ = 0;
    applyReady();  // re-requests if the payload is still missing
    return;
  }
  if (id == catchupTimer_) {
    catchupTimer_ = 0;
    fireCatchup();
    return;
  }
  const auto decree = takeTimer(id);
  if (!decree) return;
  if (Process* engine = engineFor(*decree)) engine->onTimer(id);
}

void SvcNode::onTick(Tick tick) {
  graveyard_.clear();
  // Decrees opened by a tick handler are not ticked this time around.
  const std::uint64_t end = tableBase_ + table_.size();
  for (std::uint64_t decree = tableBase_; decree < end; ++decree) {
    if (Process* engine = engineFor(decree)) engine->onTick(tick);
  }
}

}  // namespace ooc::svc
