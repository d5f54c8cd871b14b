#include "paxos/paxos_node.hpp"

#include <algorithm>
#include <utility>

#include "util/logging.hpp"

namespace ooc::paxos {
namespace {

// Journal record tags.
constexpr std::uint64_t kRecPromise = 1;  // {tag, promised ballot}
constexpr std::uint64_t kRecAccept = 2;   // {tag, ballot, value}
constexpr std::uint64_t kRecDecide = 3;   // {tag, value}

std::uint64_t encodeValue(Value v) noexcept {
  return static_cast<std::uint64_t>(static_cast<std::int64_t>(v));
}

Value decodeValue(std::uint64_t w) noexcept {
  return static_cast<Value>(static_cast<std::int64_t>(w));
}

/// Ω mode: forwards a value holder sends before it ballots itself.
constexpr int kMaxForwards = 3;

}  // namespace

PaxosNode::PaxosNode(Value input, PaxosConfig config)
    : input_(input),
      config_(std::move(config)),
      proposal_(input),
      hasValue_(config_.hasValue) {
  if (config_.durable)
    wal_ = std::make_unique<store::WriteAheadLog>(config_.storage);
}

void PaxosNode::persist(std::span<const std::uint64_t> record) {
  if (!wal_) return;
  wal_->append(record);
  if (config_.syncBeforeReply) wal_->sync();
}

void PaxosNode::onCrash() {
  if (wal_) wal_->crash(ctx().rng());
}

void PaxosNode::onRestart() {
  // Drop every volatile field; the journal replay below rebuilds the
  // acceptor state (the part Paxos' safety proof requires to be stable).
  promised_ = 0;
  acceptedBallot_ = 0;
  acceptedValue_ = kNoValue;
  currentBallot_ = 0;
  attempt_ = 0;
  proposing_ = false;
  acceptRequested_ = false;
  promiseFrom_.reset(ctx().processCount());
  highestAcceptedSeen_ = 0;
  valueToPropose_ = kNoValue;
  proposal_ = input_;
  hasValue_ = config_.hasValue;
  forwards_ = 0;
  acceptedTallies_.clear();
  decided_ = false;
  decision_ = kNoValue;
  retryTimer_ = 0;  // the simulator purged our timers at the crash
  backoff_ = 1.0;
  ++recoveries_;
  if (wal_) {
    for (const std::vector<std::uint64_t>& rec :
         wal_->recover(&lastRecovery_)) {
      if (rec.empty()) continue;
      switch (rec[0]) {
        case kRecPromise:
          if (rec.size() == 2) promised_ = rec[1];
          break;
        case kRecAccept:
          if (rec.size() == 3) {
            promised_ = std::max(promised_, rec[1]);
            acceptedBallot_ = rec[1];
            acceptedValue_ = decodeValue(rec[2]);
          }
          break;
        case kRecDecide:
          if (rec.size() == 2) {
            decided_ = true;
            decision_ = decodeValue(rec[1]);
          }
          break;
        default:
          break;  // unknown tag: ignore (forward compatibility)
      }
    }
  }
  // Proposer bookkeeping is volatile; restart ballots past everything we
  // ever promised so our own proposals are not dead on arrival.
  attempt_ = promised_ / ctx().processCount() + 1;
  record(Confidence::kVacillate,
         acceptedBallot_ != 0 ? acceptedValue_ : input_);
  if (decided_) return;
  if (config_.omega) leadOrForward(/*timedOut=*/false);
  if (config_.propose) armRetryTimer();
}

void PaxosNode::record(Confidence confidence, Value value) {
  if (!confidenceLog_.empty() &&
      confidenceLog_.back().confidence == confidence &&
      confidenceLog_.back().value == value) {
    return;
  }
  confidenceLog_.push_back(ConfidenceChange{confidence, value, ctx().now()});
}

void PaxosNode::onStart() {
  promiseFrom_.reset(ctx().processCount());
  record(Confidence::kVacillate, input_);
  if (config_.omega) leadOrForward(/*timedOut=*/false);
  if (config_.propose) armRetryTimer();
}

void PaxosNode::armRetryTimer() {
  if (retryTimer_ != 0) ctx().cancelTimer(retryTimer_);
  const auto span = static_cast<double>(ctx().rng().between(
      static_cast<std::int64_t>(config_.retryMin),
      static_cast<std::int64_t>(config_.retryMax)));
  const Tick delay = std::min<Tick>(
      config_.backoffCap, static_cast<Tick>(span * backoff_));
  retryTimer_ = ctx().setTimer(std::max<Tick>(1, delay));
}

void PaxosNode::onTimer(TimerId id) {
  if (id != retryTimer_ || decided_) return;
  // The reconciliator moment: no decision was learned in time; raise a
  // fresh ballot and back off harder for the next stalemate.
  ++reconciliatorInvocations_;
  record(Confidence::kVacillate,
         acceptedBallot_ != 0 ? acceptedValue_ : input_);
  if (config_.omega) {
    leadOrForward(/*timedOut=*/true);
  } else {
    startBallot();
  }
  backoff_ = std::min(backoff_ * config_.backoffFactor,
                      static_cast<double>(config_.backoffCap));
  armRetryTimer();
}

void PaxosNode::startBallot() {
  ++attempt_;
  ++ballotsStarted_;
  currentBallot_ =
      attempt_ * ctx().processCount() + ctx().self() + 1;
  proposing_ = true;
  acceptRequested_ = false;
  promiseFrom_.reset(ctx().processCount());
  highestAcceptedSeen_ = 0;
  valueToPropose_ = proposal_;
  OOC_TRACE("paxos p", ctx().self(), " ballot ", currentBallot_);
  ctx().fanout(makeMessage<Prepare>(currentBallot_));
}

void PaxosNode::leadOrForward(bool timedOut) {
  const ProcessId self = ctx().self();
  const ProcessId leader = config_.omega->leader(self, ctx().now());
  if (leader != self && hasValue_ && forwards_ < kMaxForwards) {
    ++forwards_;
    ctx().post(leader, makeMessage<Forward>(proposal_));
  } else if ((leader == self && hasValue_) || timedOut) {
    startBallot();
  }
}

void PaxosNode::onMessage(ProcessId from, const Message& message) {
  if (const auto* msg = message.as<Prepare>()) {
    handlePrepare(from, *msg);
  } else if (const auto* msg = message.as<Promise>()) {
    handlePromise(from, *msg);
  } else if (const auto* msg = message.as<Accept>()) {
    handleAccept(from, *msg);
  } else if (const auto* msg = message.as<Accepted>()) {
    handleAccepted(from, *msg);
  } else if (const auto* msg = message.as<Nack>()) {
    handleNack(from, *msg);
  } else if (const auto* msg = message.as<DecidedAnnounce>()) {
    learn(msg->value);
  } else if (const auto* msg = message.as<Forward>()) {
    handleForward(*msg);
  }
}

void PaxosNode::handlePrepare(ProcessId from, const Prepare& msg) {
  if (msg.ballot > promised_) {
    promised_ = msg.ballot;
    // The promise must hit stable storage before the reply leaves — a
    // forgotten promise lets a lower ballot slip through after a restart.
    const std::uint64_t rec[] = {kRecPromise, promised_};
    persist(rec);
    ctx().post(from, makeMessage<Promise>(msg.ballot, acceptedBallot_,
                                          acceptedValue_));
  } else {
    ctx().post(from, makeMessage<Nack>(msg.ballot, promised_));
  }
}

void PaxosNode::handlePromise(ProcessId from, const Promise& msg) {
  if (!proposing_ || acceptRequested_ || msg.ballot != currentBallot_)
    return;
  if (!promiseFrom_.insert(from)) return;
  // Honour the highest already-accepted proposal among the promises —
  // the rule that makes chosen values stable.
  if (msg.acceptedBallot > highestAcceptedSeen_) {
    highestAcceptedSeen_ = msg.acceptedBallot;
    valueToPropose_ = msg.acceptedValue;
  }
  if (2 * promiseFrom_.count() > ctx().processCount()) {
    acceptRequested_ = true;
    ctx().fanout(makeMessage<Accept>(currentBallot_, valueToPropose_));
  }
}

void PaxosNode::handleAccept(ProcessId, const Accept& msg) {
  if (msg.ballot < promised_) {
    // A stale proposer; no reply needed beyond its own Nacks from Prepare.
    return;
  }
  promised_ = msg.ballot;
  acceptedBallot_ = msg.ballot;
  acceptedValue_ = msg.value;
  const std::uint64_t rec[] = {kRecAccept, acceptedBallot_,
                               encodeValue(acceptedValue_)};
  persist(rec);
  // Adopt-level knowledge: a majority-backed proposer pushed this value.
  record(Confidence::kAdopt, msg.value);
  ctx().fanout(makeMessage<Accepted>(msg.ballot, msg.value));
}

void PaxosNode::handleAccepted(ProcessId from, const Accepted& msg) {
  if (decided_) return;
  BallotTally& tally = acceptedTallies_[msg.ballot];
  if (tally.seen.universe() == 0) {
    tally.seen.reset(ctx().processCount());
    tally.value = msg.value;
  }
  if (!tally.seen.insert(from)) return;
  if (2 * tally.seen.count() > ctx().processCount()) learn(tally.value);
}

void PaxosNode::handleNack(ProcessId, const Nack& msg) {
  if (msg.ballot != currentBallot_ || !proposing_) return;
  ++nacksReceived_;
  // Jump past the competing ballot on the next attempt.
  const std::uint64_t neededAttempt = msg.promised / ctx().processCount();
  attempt_ = std::max(attempt_, neededAttempt);
  proposing_ = false;
}

void PaxosNode::handleForward(const Forward& msg) {
  // Only a node without a value of its own takes one up: the first
  // forward sets it balloting (a value holder already ballots or forwards
  // for its own). Any proposal is safe here — the promises still force a
  // previously accepted value over it.
  if (decided_ || hasValue_) return;
  hasValue_ = true;
  proposal_ = msg.value;
  if (proposing_ || acceptRequested_) return;  // a rescue ballot is live
  startBallot();
  armRetryTimer();
}

void PaxosNode::learn(Value value) {
  if (decided_) return;
  decided_ = true;
  decision_ = value;
  decisionHistory_.push_back(value);
  const std::uint64_t rec[] = {kRecDecide, encodeValue(value)};
  persist(rec);
  record(Confidence::kCommit, value);
  ctx().decide(value);
  if (retryTimer_ != 0) ctx().cancelTimer(retryTimer_);
  // Short-circuit for laggards; acceptor duties continue regardless.
  ctx().fanout(makeMessage<DecidedAnnounce>(value));
}

}  // namespace ooc::paxos
