// Single-decree Paxos tests: safety/liveness sweeps, duelling proposers,
// crash faults, the choose-highest-accepted rule, the framework
// instrumentation (vacillate/adopt/commit + retry-as-reconciliator), and
// Ω mode (safety and termination under wrong or noisy leader oracles).
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <vector>

#include "fd/oracle.hpp"
#include "paxos/paxos_node.hpp"
#include "sim/simulator.hpp"

namespace ooc {
namespace {

struct PaxosRun {
  bool allDecided = false;
  bool agreementViolated = false;
  bool validityViolated = false;
  Value decidedValue = kNoValue;
  Tick lastDecisionTick = 0;
  std::uint64_t ballots = 0;
  std::uint64_t reconciliations = 0;
  bool confidenceOrderOk = true;
};

PaxosRun runPaxos(std::size_t n, std::uint64_t seed,
                  paxos::PaxosConfig config = {},
                  std::vector<std::pair<ProcessId, Tick>> crashes = {},
                  double drop = 0.0, Tick maxTicks = 1'000'000) {
  SimConfig simConfig;
  simConfig.seed = seed;
  simConfig.maxTicks = maxTicks;
  UniformDelayNetwork::Options net;
  net.minDelay = 1;
  net.maxDelay = 8;
  net.dropProbability = drop;
  Simulator sim(simConfig, std::make_unique<UniformDelayNetwork>(net));

  std::vector<paxos::PaxosNode*> nodes;
  std::vector<Value> inputs;
  for (ProcessId id = 0; id < n; ++id) {
    inputs.push_back(static_cast<Value>(100 + id));
    auto node = std::make_unique<paxos::PaxosNode>(inputs.back(), config);
    nodes.push_back(node.get());
    sim.addProcess(std::move(node));
  }
  sim.setValidValues(inputs);
  for (const auto& [id, tick] : crashes) sim.crashAt(id, tick);
  sim.stopWhenAllCorrectDecided();
  sim.run();

  PaxosRun run;
  run.allDecided = sim.allCorrectDecided();
  run.agreementViolated = sim.agreementViolated();
  run.validityViolated = sim.validityViolated();
  for (ProcessId id = 0; id < n; ++id) {
    const auto& decision = sim.decision(id);
    if (decision.decided) {
      run.decidedValue = decision.value;
      run.lastDecisionTick = std::max(run.lastDecisionTick, decision.at);
    }
    run.ballots += nodes[id]->ballotsStarted();
    run.reconciliations += nodes[id]->reconciliatorInvocations();
    // Instrumentation sanity: a commit must follow adopt-level evidence
    // unless it arrived via the decided-announcement short-circuit, in
    // which case the announcing peer held that evidence. Locally we check:
    // adopt never after commit.
    bool sawCommit = false;
    for (const auto& change : nodes[id]->confidenceLog()) {
      if (change.confidence == Confidence::kCommit) sawCommit = true;
      if (sawCommit && change.confidence == Confidence::kVacillate)
        run.confidenceOrderOk = false;
    }
  }
  return run;
}

TEST(Paxos, QuietClusterDecides) {
  const PaxosRun run = runPaxos(5, 1);
  EXPECT_TRUE(run.allDecided);
  EXPECT_FALSE(run.agreementViolated);
  EXPECT_FALSE(run.validityViolated);
  EXPECT_TRUE(run.confidenceOrderOk);
  EXPECT_GE(run.ballots, 1u);
}

class PaxosSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PaxosSweep, SafetyAndLivenessAcrossSeeds) {
  for (std::size_t n : {3, 5, 9}) {
    const PaxosRun run = runPaxos(n, GetParam());
    EXPECT_TRUE(run.allDecided) << "n=" << n;
    EXPECT_FALSE(run.agreementViolated) << "n=" << n;
    EXPECT_FALSE(run.validityViolated) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PaxosSweep,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u,
                                           9u, 10u));

TEST(Paxos, DuellingProposersEventuallyResolve) {
  // Aggressive identical retry windows maximize duels; the randomized
  // backoff must still converge in every seeded run.
  paxos::PaxosConfig config;
  config.retryMin = 20;
  config.retryMax = 30;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const PaxosRun run = runPaxos(5, 100 + seed, config);
    EXPECT_TRUE(run.allDecided) << "seed " << seed;
    EXPECT_FALSE(run.agreementViolated) << "seed " << seed;
  }
}

TEST(Paxos, SurvivesMinorityCrashes) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const PaxosRun run = runPaxos(
        5, 200 + seed, {},
        {{static_cast<ProcessId>(seed % 5), 50},
         {static_cast<ProcessId>((seed + 2) % 5), 300}});
    EXPECT_TRUE(run.allDecided) << "seed " << seed;
    EXPECT_FALSE(run.agreementViolated) << "seed " << seed;
  }
}

TEST(Paxos, SafeUnderMessageLoss) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    const PaxosRun run =
        runPaxos(5, 300 + seed, {}, {}, /*drop=*/0.15, 3'000'000);
    EXPECT_FALSE(run.agreementViolated) << "seed " << seed;
    EXPECT_TRUE(run.allDecided) << "seed " << seed;
  }
}

TEST(Paxos, MoreContentionMeansMoreReconciliation) {
  paxos::PaxosConfig calm;
  calm.retryMin = 400;
  calm.retryMax = 800;
  paxos::PaxosConfig frantic;
  frantic.retryMin = 15;
  frantic.retryMax = 25;
  std::uint64_t calmRecon = 0, franticRecon = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    calmRecon += runPaxos(5, 400 + seed, calm).reconciliations;
    franticRecon += runPaxos(5, 400 + seed, frantic).reconciliations;
  }
  EXPECT_GT(franticRecon, calmRecon);
}

TEST(Paxos, SingleNodeDecidesImmediately) {
  const PaxosRun run = runPaxos(1, 7);
  EXPECT_TRUE(run.allDecided);
  EXPECT_EQ(run.decidedValue, 100);
}

TEST(Paxos, DeterministicAcrossRuns) {
  const PaxosRun a = runPaxos(5, 42);
  const PaxosRun b = runPaxos(5, 42);
  EXPECT_EQ(a.decidedValue, b.decidedValue);
  EXPECT_EQ(a.lastDecisionTick, b.lastDecisionTick);
  EXPECT_EQ(a.ballots, b.ballots);
}

// --- protocol-rule unit checks via a scripted cluster ----------------------

TEST(Paxos, ChoosesHighestAcceptedValueNotItsOwn) {
  // Force the scenario behind the choose-highest rule: node 0 gets its
  // value accepted by a minority+self, stalls, and a later proposer must
  // adopt node 0's value rather than its own. We engineer it with crashes:
  // node 0 proposes, reaches node 1, then both... simpler to verify the
  // emergent property across seeds: whenever any Accepted tally existed
  // for value v and the run later decided, deciding a DIFFERENT value
  // requires that v never reached a majority. Weak form: the decided
  // value equals the first value that ever reached majority acceptance.
  // Paxos's agreement theorem collapses this to: every run agrees and the
  // decided value is some proposer's input — already covered; here we
  // additionally pin that under heavy duels the decided value can be a
  // NON-first proposer's input (the rule actually engages).
  paxos::PaxosConfig config;
  config.retryMin = 20;
  config.retryMax = 28;
  std::set<Value> decisions;
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    const PaxosRun run = runPaxos(5, 500 + seed, config);
    ASSERT_TRUE(run.allDecided);
    decisions.insert(run.decidedValue);
  }
  EXPECT_GT(decisions.size(), 1u)
      << "winner never varied; contention machinery untested";
}

// --- Ω mode: the oracle picks the proposer, safety never rests on it -------

/// The worst leader oracle: every node trusts itself, so every value
/// holder ballots at once and Ω mode degenerates to duelling proposers.
class SelfTrustOracle final : public fd::Oracle {
 public:
  fd::OracleClass oracleClass() const noexcept override {
    return fd::OracleClass::kOmega;
  }
  bool suspects(ProcessId viewer, ProcessId target, Tick) const override {
    return viewer != target;
  }
  ProcessId leader(ProcessId viewer, Tick) const override { return viewer; }
  Tick stabilizationBound() const noexcept override { return 0; }
};

TEST(PaxosOmega, StableLeaderRunsTheOnlyBallot) {
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    paxos::PaxosConfig config;
    config.omega = fd::makeScheduleOracle(
        fd::OracleClass::kOmega, {}, fd::FaultSchedule(5), seed);
    const PaxosRun run = runPaxos(5, 600 + seed, config);
    EXPECT_TRUE(run.allDecided) << "seed " << seed;
    EXPECT_FALSE(run.agreementViolated) << "seed " << seed;
    EXPECT_EQ(run.decidedValue, 100) << "seed " << seed;  // node 0's input
    EXPECT_EQ(run.ballots, 1u) << "seed " << seed;
  }
}

TEST(PaxosOmega, EveryNodeTrustingItselfStillAgrees) {
  paxos::PaxosConfig config;
  config.retryMin = 20;
  config.retryMax = 30;
  config.omega = std::make_shared<SelfTrustOracle>();
  for (const std::size_t n : {3u, 5u}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      const PaxosRun run = runPaxos(n, 700 + seed, config);
      EXPECT_TRUE(run.allDecided) << "n=" << n << " seed " << seed;
      EXPECT_FALSE(run.agreementViolated) << "n=" << n << " seed " << seed;
      EXPECT_FALSE(run.validityViolated) << "n=" << n << " seed " << seed;
      EXPECT_GE(run.ballots, n) << "every node ballots at once";
    }
  }
}

// Before stabilizeAt the nodes disagree about the leader (half the
// suspicions are false), forwards reach nodes that do not lead, and the
// leader Ω settles on may crash: agreement must hold and every correct
// node must still decide, through the forwarders' fallback ballots.
TEST(PaxosOmega, NoisyLateOracleStillAgrees) {
  for (const fd::OracleClass oracleClass :
       {fd::OracleClass::kEventuallyStrong, fd::OracleClass::kOmega}) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
      SCOPED_TRACE(std::string(fd::toString(oracleClass)) + " seed " +
                   std::to_string(seed));
      std::vector<std::pair<ProcessId, Tick>> crashes;
      if (seed % 2 == 0) crashes.emplace_back(0, 40);
      fd::OracleKnobs knobs;
      knobs.stabilizeAt = 1500;
      knobs.noise = 0.5;
      paxos::PaxosConfig config;
      config.omega = fd::makeScheduleOracle(
          oracleClass, knobs, fd::FaultSchedule::fromCrashList(5, crashes),
          seed);
      const PaxosRun run = runPaxos(5, 800 + seed, config, crashes);
      EXPECT_TRUE(run.allDecided);
      EXPECT_FALSE(run.agreementViolated);
      EXPECT_FALSE(run.validityViolated);
      EXPECT_TRUE(run.confidenceOrderOk);
    }
  }
}

// ---------------------------------------------------------------------------
// Acceptor/proposer rule unit tests via a manual context.

class PaxosManualContext final : public Context {
 public:
  explicit PaxosManualContext(std::size_t n, ProcessId self = 0)
      : n_(n), self_(self) {}

  ProcessId self() const noexcept override { return self_; }
  std::size_t processCount() const noexcept override { return n_; }
  Tick now() const noexcept override { return 0; }
  Rng& rng() noexcept override { return rng_; }
  void post(ProcessId to, MessagePtr msg) override {
    sent.emplace_back(to, std::move(msg));
  }
  void fanout(MessagePtr msg) override {
    for (ProcessId to = 0; to < n_; ++to) sent.emplace_back(to, msg);
  }
  TimerId setTimer(Tick) override { return ++timers; }
  void cancelTimer(TimerId) noexcept override {}
  void decide(Value v) override { decisions.push_back(v); }

  template <typename T>
  const T* lastTo(ProcessId to) const {
    for (auto it = sent.rbegin(); it != sent.rend(); ++it) {
      if (it->first != to) continue;
      if (const T* typed = it->second->template as<T>()) return typed;
    }
    return nullptr;
  }

  std::vector<std::pair<ProcessId, MessagePtr>> sent;
  std::vector<Value> decisions;
  TimerId timers = 0;

 private:
  std::size_t n_;
  ProcessId self_;
  Rng rng_{11};
};

struct PaxosBench {
  PaxosBench() : ctx(5), node(500, paxos::PaxosConfig{}) {
    node.bind(ctx);
    node.onStart();
  }
  PaxosManualContext ctx;
  paxos::PaxosNode node;
};

TEST(PaxosUnit, AcceptorPromisesHigherAndNacksLower) {
  PaxosBench bench;
  bench.node.onMessage(1, paxos::Prepare(50));
  const auto* promise = bench.ctx.lastTo<paxos::Promise>(1);
  ASSERT_NE(promise, nullptr);
  EXPECT_EQ(promise->ballot, 50u);
  EXPECT_EQ(promise->acceptedBallot, 0u);

  bench.node.onMessage(2, paxos::Prepare(40));
  const auto* nack = bench.ctx.lastTo<paxos::Nack>(2);
  ASSERT_NE(nack, nullptr);
  EXPECT_EQ(nack->promised, 50u);
}

TEST(PaxosUnit, AcceptorIgnoresStaleAccept) {
  PaxosBench bench;
  bench.node.onMessage(1, paxos::Prepare(50));
  bench.ctx.sent.clear();
  bench.node.onMessage(1, paxos::Accept(40, 7));
  // No Accepted broadcast for a stale ballot.
  EXPECT_EQ(bench.ctx.lastTo<paxos::Accepted>(0), nullptr);

  bench.node.onMessage(1, paxos::Accept(50, 7));
  const auto* accepted = bench.ctx.lastTo<paxos::Accepted>(0);
  ASSERT_NE(accepted, nullptr);
  EXPECT_EQ(accepted->value, 7);
}

TEST(PaxosUnit, PromiseCarriesAcceptedProposal) {
  PaxosBench bench;
  bench.node.onMessage(1, paxos::Prepare(50));
  bench.node.onMessage(1, paxos::Accept(50, 7));
  bench.node.onMessage(2, paxos::Prepare(60));
  const auto* promise = bench.ctx.lastTo<paxos::Promise>(2);
  ASSERT_NE(promise, nullptr);
  EXPECT_EQ(promise->acceptedBallot, 50u);
  EXPECT_EQ(promise->acceptedValue, 7);
}

TEST(PaxosUnit, ProposerHonoursHighestAcceptedValue) {
  PaxosBench bench;
  bench.node.onTimer(bench.ctx.timers);  // start a ballot
  bench.ctx.sent.clear();
  const paxos::Ballot b = 5 * 1 + 0 + 1;  // attempt 1, id 0
  // Majority of promises; peer 2 reports an older accepted proposal.
  bench.node.onMessage(1, paxos::Promise(b, 0, kNoValue));
  bench.node.onMessage(2, paxos::Promise(b, 3, 777));
  bench.node.onMessage(3, paxos::Promise(b, 0, kNoValue));
  const auto* accept = bench.ctx.lastTo<paxos::Accept>(0);
  ASSERT_NE(accept, nullptr);
  EXPECT_EQ(accept->value, 777) << "must adopt, not push its own input";
}

TEST(PaxosUnit, LearnerNeedsDistinctMajority) {
  PaxosBench bench;
  bench.node.onMessage(1, paxos::Accepted(9, 5));
  bench.node.onMessage(1, paxos::Accepted(9, 5));  // duplicate sender
  bench.node.onMessage(2, paxos::Accepted(9, 5));
  EXPECT_FALSE(bench.node.decided());
  bench.node.onMessage(3, paxos::Accepted(9, 5));
  EXPECT_TRUE(bench.node.decided());
  EXPECT_EQ(bench.node.decisionValue(), 5);
  EXPECT_EQ(bench.ctx.decisions.size(), 1u);
}

TEST(PaxosUnit, DecidedAnnounceShortCircuits) {
  PaxosBench bench;
  bench.node.onMessage(4, paxos::DecidedAnnounce(123));
  EXPECT_TRUE(bench.node.decided());
  EXPECT_EQ(bench.node.decisionValue(), 123);
  // Re-announce must not double-decide.
  bench.node.onMessage(3, paxos::DecidedAnnounce(123));
  EXPECT_EQ(bench.ctx.decisions.size(), 1u);
}

// Ω mode roles: a value holder that does not lead forwards instead of
// balloting; a leader holding no value ballots for the first forward and
// ignores later ones.
TEST(PaxosUnit, OmegaFollowerForwardsAndLeaderBallotsOnForward) {
  paxos::PaxosConfig config;
  config.omega = fd::makeScheduleOracle(fd::OracleClass::kOmega, {},
                                        fd::FaultSchedule(5), 1);
  PaxosManualContext followerCtx(5, /*self=*/2);
  paxos::PaxosNode follower(500, config);
  follower.bind(followerCtx);
  follower.onStart();
  const auto* forward = followerCtx.lastTo<paxos::Forward>(0);
  ASSERT_NE(forward, nullptr);
  EXPECT_EQ(forward->value, 500);
  EXPECT_EQ(follower.ballotsStarted(), 0u);

  config.hasValue = false;
  config.propose = false;
  PaxosManualContext leaderCtx(5, /*self=*/0);
  paxos::PaxosNode leader(0, config);
  leader.bind(leaderCtx);
  leader.onStart();
  EXPECT_EQ(leader.ballotsStarted(), 0u);
  leader.onMessage(2, paxos::Forward(500));
  leader.onMessage(3, paxos::Forward(600));
  EXPECT_EQ(leader.ballotsStarted(), 1u);
  const auto* prepare = leaderCtx.lastTo<paxos::Prepare>(1);
  ASSERT_NE(prepare, nullptr);
  for (const ProcessId from : {0u, 1u, 2u})
    leader.onMessage(from, paxos::Promise(prepare->ballot, 0, kNoValue));
  const auto* accept = leaderCtx.lastTo<paxos::Accept>(1);
  ASSERT_NE(accept, nullptr);
  EXPECT_EQ(accept->value, 500);
}

TEST(PaxosUnit, NackAbandonsBallotAndJumpsAttempt) {
  PaxosBench bench;
  bench.node.onTimer(bench.ctx.timers);
  ASSERT_EQ(bench.node.ballotsStarted(), 1u);
  const paxos::Ballot mine = 5 * 1 + 0 + 1;
  bench.node.onMessage(2, paxos::Nack(mine, /*promised=*/5 * 9 + 3));
  EXPECT_EQ(bench.node.nacksReceived(), 1u);
  // Next retry must leapfrog the competing ballot.
  bench.ctx.sent.clear();
  bench.node.onTimer(bench.ctx.timers);
  const auto* prepare = bench.ctx.lastTo<paxos::Prepare>(0);
  ASSERT_NE(prepare, nullptr);
  EXPECT_GT(prepare->ballot, static_cast<paxos::Ballot>(5 * 9 + 3));
}

}  // namespace
}  // namespace ooc
