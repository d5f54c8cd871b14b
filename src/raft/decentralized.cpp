#include "raft/decentralized.hpp"

#include <stdexcept>

namespace ooc::raft {

DecentralizedRaftVac::DecentralizedRaftVac(std::size_t faultTolerance)
    : t_(faultTolerance) {}

void DecentralizedRaftVac::invoke(ObjectContext& ctx, Value v) {
  if (2 * t_ >= ctx.processCount())
    throw std::invalid_argument("decentralized raft requires t < n/2");
  input_ = v;
  proposalSenders_.reset(ctx.processCount());
  commitSenders_.reset(ctx.processCount());
  ctx.fanout(makeMessage<DecProposeMessage>(v));
}

void DecentralizedRaftVac::onMessage(ObjectContext& ctx, ProcessId from,
                                     const Message& inner) {
  if (outcome_) return;

  if (const auto* propose = inner.as<DecProposeMessage>()) {
    if (!proposalSenders_.insert(from)) return;
    proposalTally_.add(propose->value);
    maybeFinishProposals(ctx);
    return;
  }

  if (const auto* commit = inner.as<DecCommitMessage>()) {
    if (!commitSenders_.insert(from)) return;
    if (commit->commit) {
      commitTally_.add(commit->value);
      if (!anyCommitSeen_) anyCommitSeen_ = commit->value;
    }
    maybeFinish();
  }
}

void DecentralizedRaftVac::maybeFinishProposals(ObjectContext& ctx) {
  const std::size_t n = ctx.processCount();
  if (commitPhaseSent_ || proposalSenders_.count() < n - t_) return;
  commitPhaseSent_ = true;

  // Strict majority of all n: count > floor(n/2) is 2 * count > n.
  const std::optional<Value> majority = proposalTally_.above(n / 2);
  ctx.fanout(majority ? makeMessage<DecCommitMessage>(true, *majority)
                      : makeMessage<DecCommitMessage>(false, kNoValue));
  maybeFinish();
}

void DecentralizedRaftVac::maybeFinish() {
  if (outcome_ || !commitPhaseSent_ ||
      commitSenders_.count() < commitSenders_.universe() - t_) {
    return;
  }
  if (const std::optional<Value> committed = commitTally_.above(t_)) {
    outcome_ = Outcome{Confidence::kCommit, *committed};
    return;
  }
  if (anyCommitSeen_) {
    outcome_ = Outcome{Confidence::kAdopt, *anyCommitSeen_};
    return;
  }
  outcome_ = Outcome{Confidence::kVacillate, input_};
}

DetectorFactory DecentralizedRaftVac::factory(std::size_t faultTolerance) {
  return [faultTolerance](Round) {
    return std::make_unique<DecentralizedRaftVac>(faultTolerance);
  };
}

}  // namespace ooc::raft
