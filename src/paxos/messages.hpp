// Single-decree Paxos wire messages.
#pragma once

#include <string>

#include "sim/message.hpp"
#include "util/types.hpp"

namespace ooc::paxos {

/// Globally unique, totally ordered proposal number: attempt * n + id + 1.
using Ballot = std::uint64_t;

struct Prepare final : MessageBase<Prepare> {
  explicit Prepare(Ballot ballot) : ballot(ballot) {}
  Ballot ballot;
  std::string describe() const override {
    return "Prepare{" + std::to_string(ballot) + "}";
  }
};

/// Phase-1b: the acceptor's promise, carrying its previously accepted
/// proposal (ballot 0 = none) so the proposer can honour it.
struct Promise final : MessageBase<Promise> {
  Promise(Ballot ballot, Ballot acceptedBallot, Value acceptedValue)
      : ballot(ballot),
        acceptedBallot(acceptedBallot),
        acceptedValue(acceptedValue) {}
  Ballot ballot;
  Ballot acceptedBallot;
  Value acceptedValue;
  std::string describe() const override {
    return "Promise{" + std::to_string(ballot) + ",acc=" +
           std::to_string(acceptedBallot) + "}";
  }
};

struct Accept final : MessageBase<Accept> {
  Accept(Ballot ballot, Value value) : ballot(ballot), value(value) {}
  Ballot ballot;
  Value value;
  std::string describe() const override {
    return "Accept{" + std::to_string(ballot) + "," +
           std::to_string(value) + "}";
  }
};

/// Phase-2b: broadcast to every node so all learners tally it.
struct Accepted final : MessageBase<Accepted> {
  Accepted(Ballot ballot, Value value) : ballot(ballot), value(value) {}
  Ballot ballot;
  Value value;
  std::string describe() const override {
    return "Accepted{" + std::to_string(ballot) + "," +
           std::to_string(value) + "}";
  }
};

/// Rejection carrying the acceptor's current promise, so a losing proposer
/// can jump past it instead of probing.
struct Nack final : MessageBase<Nack> {
  Nack(Ballot ballot, Ballot promised) : ballot(ballot), promised(promised) {}
  Ballot ballot;
  Ballot promised;
  std::string describe() const override {
    return "Nack{" + std::to_string(ballot) + ",promised=" +
           std::to_string(promised) + "}";
  }
};

/// Ω mode: a node with a value hands it to the leader its oracle trusts
/// instead of balloting itself. The leader proposes it unless it holds a
/// value of its own or a promise obliges it to re-propose another.
struct Forward final : MessageBase<Forward> {
  explicit Forward(Value value) : value(value) {}
  Value value;
  std::string describe() const override {
    return "Forward{" + std::to_string(value) + "}";
  }
};

/// Decision short-circuit: a node that learned the chosen value announces
/// it, letting laggards decide without replaying a ballot.
struct DecidedAnnounce final : MessageBase<DecidedAnnounce> {
  explicit DecidedAnnounce(Value value) : value(value) {}
  Value value;
  std::string describe() const override {
    return "Decided{" + std::to_string(value) + "}";
  }
};

}  // namespace ooc::paxos
