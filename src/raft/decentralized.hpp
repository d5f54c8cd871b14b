// The decentralized Raft variant sketched at the end of paper §4.3:
// "instead of electing a leader ..., everyone broadcasts the command they
// want logged and once someone sees a majority it sends out a
// commit-to-that-command message."
//
// Expressed as a template VAC, this gives convergence (which leader-based
// Raft lacks, as the paper notes) and — as the paper observes — "results in
// an algorithm that highly resembles Ben-Or's", differing only in the
// reconciliator. Experiment E12 quantifies the resemblance by running both
// VACs under the same template and reconciliator.
//
//   DecentralizedRaftVac(v, m):
//     broadcast Propose{v}; wait for n-t proposals
//     if some value w holds a strict majority of all n: broadcast Commit{w}
//     else: broadcast Abstain
//     wait for n-t second-phase messages
//     > t Commit{w}  => (commit, w)     -- commit-index-advance analogue
//     >= 1 Commit{w} => (adopt, w)      -- tentative-append analogue
//     otherwise      => (vacillate, v)  -- no leader heard
#pragma once

#include <optional>
#include <string>

#include "core/objects.hpp"
#include "core/tally.hpp"

namespace ooc::raft {

struct DecProposeMessage final : MessageBase<DecProposeMessage> {
  explicit DecProposeMessage(Value value) : value(value) {}
  Value value;
  std::string describe() const override {
    return "dec<propose," + std::to_string(value) + ">";
  }
};

struct DecCommitMessage final : MessageBase<DecCommitMessage> {
  DecCommitMessage(bool commit, Value value) : commit(commit), value(value) {}
  bool commit;  // false = abstain
  Value value;
  std::string describe() const override {
    return commit ? "dec<commit," + std::to_string(value) + ">"
                  : "dec<abstain>";
  }
};

class DecentralizedRaftVac final : public AgreementDetector {
 public:
  explicit DecentralizedRaftVac(std::size_t faultTolerance);

  void invoke(ObjectContext& ctx, Value v) override;
  void onMessage(ObjectContext& ctx, ProcessId from,
                 const Message& inner) override;
  std::optional<Outcome> result() const override { return outcome_; }

  static DetectorFactory factory(std::size_t faultTolerance);

 private:
  void maybeFinishProposals(ObjectContext& ctx);
  void maybeFinish();

  std::size_t t_;
  Value input_ = kNoValue;
  bool commitPhaseSent_ = false;
  std::optional<Outcome> outcome_;

  SenderSet proposalSenders_;
  SenderSet commitSenders_;
  ValueTally proposalTally_;
  ValueTally commitTally_;
  std::optional<Value> anyCommitSeen_;
};

}  // namespace ooc::raft
