// Multi-decree replicated-log service tests (src/svc): the three engines
// under the deterministic client workload, idle nodes and quiescence,
// pipelining and batching, byte-identical determinism, crashes and
// restarts (durable catch-up), the serialized config round-trip, the
// registry capability gate, and the sequential replicated log (window 1,
// one command per decree: quiescence, idle nodes, prefixes under crashes
// and non-durable restarts, command id packing).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/simulator.hpp"
#include "svc/run.hpp"
#include "svc/workload.hpp"
#include "sweep/scheduler.hpp"

namespace ooc::svc {
namespace {

/// perfbench's svc shape at the latency rung: n = 5, delay 1..6, window 4,
/// batch <= 4, durable journals, 200 open-loop zipfian commands per node.
SvcConfig benchShape(const std::string& engine, std::uint64_t seed,
                     double rate = 0.05) {
  SvcConfig config;
  config.engine = engine;
  config.detector = "benor-vac";
  config.driver = "lottery";
  config.n = 5;
  config.seed = seed;
  config.minDelay = 1;
  config.maxDelay = 6;
  config.service.window = 4;
  config.service.batchMax = 4;
  config.service.durable = true;
  config.workload.clients = 100000;
  config.workload.commandsPerNode = 200;
  config.workload.closedLoop = false;
  config.workload.arrivalsPerTick = rate;
  config.workload.zipfTheta = 0.99;
  return config;
}

SvcConfig smokeConfig(const std::string& engine) {
  SvcConfig config;
  config.engine = engine;
  config.detector = "benor-vac";
  config.driver = "lottery";
  config.n = 5;
  config.seed = 4242;
  config.minDelay = 1;
  config.maxDelay = 6;
  config.service.window = 2;
  config.service.batchMax = 4;
  config.workload.clients = 1000;
  config.workload.commandsPerNode = 8;
  config.workload.closedLoop = true;
  config.workload.thinkMin = 5;
  config.workload.thinkMax = 40;
  config.workload.startSpread = 16;
  return config;
}

// With 3 clients on 5 nodes, nodes 3 and 4 have no home clients: they
// never propose, yet must join their peers' decrees reactively and apply
// the whole log (allApplied checks every node).
TEST(Svc, ThreeEngineSmoke) {
  for (const std::string engine : {"compose", "paxos", "raft"}) {
    for (const std::uint64_t clients : {1000u, 3u}) {
      SCOPED_TRACE(engine + " clients " + std::to_string(clients));
      SvcConfig config = smokeConfig(engine);
      config.workload.clients = clients;
      const std::uint64_t commands = clients < config.n ? 24u : 40u;
      const SvcResult result = runSvc(config);
      EXPECT_TRUE(result.prefixOk);
      EXPECT_TRUE(result.exactlyOnce);
      EXPECT_TRUE(result.allApplied);
      EXPECT_FALSE(result.hitCap);
      EXPECT_EQ(result.commandsCommitted, commands);
      EXPECT_EQ(result.commandsEmitted, commands);
    }
  }
}

// Pipelining: a window-4 run must stay correct and commit the same command
// set as the sequential window-1 discipline (batched or one command per
// decree) on the same workload. Composed runs have no stop predicate, so
// ending below the tick cap means the drained cluster quiesced on its
// own; the decree bound rules out a tail of no-op decrees opened by idle
// nodes.
TEST(Svc, PipelineWindowCorrectness) {
  SvcConfig sequential = smokeConfig("compose");
  sequential.service.window = 1;
  SvcConfig unbatched = sequential;
  unbatched.service.batchMax = 1;
  SvcConfig pipelined = smokeConfig("compose");
  pipelined.service.window = 4;
  for (const SvcConfig* config : {&sequential, &unbatched, &pipelined}) {
    SCOPED_TRACE("window " + std::to_string(config->service.window) +
                 " batch " + std::to_string(config->service.batchMax));
    const SvcResult r = runSvc(*config);
    EXPECT_TRUE(r.prefixOk);
    EXPECT_TRUE(r.exactlyOnce);
    EXPECT_TRUE(r.allApplied);
    EXPECT_EQ(r.commandsCommitted, 40u);
    EXPECT_FALSE(r.hitCap);
    EXPECT_LE(r.decreesCommitted, 3 * r.commandsCommitted);
  }
}

// Batching: under an open-loop burst the proposer packs more than one
// command per decree, and decrees committed < commands committed shows it.
TEST(Svc, BatchingPacksBursts) {
  SvcConfig config = smokeConfig("compose");
  config.workload.closedLoop = false;
  config.workload.arrivalsPerTick = 0.5;
  config.workload.burstEvery = 100;
  config.workload.burstLen = 20;
  config.workload.burstFactor = 4.0;
  config.service.batchMax = 8;
  const SvcResult result = runSvc(config);
  EXPECT_TRUE(result.prefixOk);
  EXPECT_TRUE(result.exactlyOnce);
  EXPECT_TRUE(result.allApplied);
  EXPECT_LT(result.decreesCommitted, result.commandsCommitted);
  bool sawRealBatch = false;
  for (std::uint32_t b : result.batchSizes) sawRealBatch |= b > 1;
  EXPECT_TRUE(sawRealBatch);
}

// Determinism: the pipelined service is a pure function of (config, seed)
// — repeated runs match field for field, including the pooled latency
// stream and the applied-command counts.
TEST(Svc, DeterministicAcrossRuns) {
  for (const std::string engine : {"compose", "paxos", "raft"}) {
    SvcConfig config = smokeConfig(engine);
    config.service.window = 4;
    const SvcResult a = runSvc(config);
    const SvcResult b = runSvc(config);
    EXPECT_EQ(a.commandsCommitted, b.commandsCommitted) << engine;
    EXPECT_EQ(a.decreesCommitted, b.decreesCommitted) << engine;
    EXPECT_EQ(a.lastCommitTick, b.lastCommitTick) << engine;
    EXPECT_EQ(a.latencies, b.latencies) << engine;
    EXPECT_EQ(a.batchSizes, b.batchSizes) << engine;
    EXPECT_EQ(a.messagesByCorrect, b.messagesByCorrect) << engine;
    EXPECT_EQ(a.eventsProcessed, b.eventsProcessed) << engine;
  }
}

// Durable restart: with journalling on, a crash-restarted node recovers
// its prefix from the journal, catches up the rest from peers, and the
// service-level invariants hold end to end.
TEST(Svc, DurableRestartCatchesUp) {
  for (const std::string engine : {"compose", "paxos", "raft"}) {
    SvcConfig config = smokeConfig(engine);
    config.service.durable = true;
    RestartEvent restart;
    restart.id = 1;
    restart.at = 80;
    restart.downtime = 60;
    config.restarts.push_back(restart);
    const SvcResult result = runSvc(config);
    EXPECT_TRUE(result.prefixOk) << engine;
    EXPECT_TRUE(result.exactlyOnce) << engine;
    EXPECT_FALSE(result.hitCap) << engine;
    EXPECT_GT(result.commandsCommitted, 0u) << engine;
  }
}

// Regression: a batch that lost decree k1 and was re-bound to k2 before a
// crash has two journaled opens. Recovery once kept both bindings, so
// catch-up's report that k1 went to another batch re-queued this one while
// k2 could still choose it, and the batch won two decrees (the apply-side
// dedup hid the duplicate commands; the decree log did not). Seed 19 of
// the failover shape hit it with the composed engine, and so did the
// shrunk counterexample of `check --family svc --engine compose
// --strategy restart`.
TEST(Svc, RebindingBeforeARestartWinsOneDecree) {
  SvcConfig failover = benchShape("compose", /*seed=*/19);
  failover.restarts.push_back({0, 2000, 150});
  const SvcConfig shrunk = parseSvcConfig(
      "engine=compose\nn=5\nseed=1\nwindow=2\nbatch-max=1\n"
      "max-decrees=400\ndurable=1\nclients=64\ncommands-per-node=25\n"
      "closed-loop=0\nthink-min=5\nthink-max=40\nstart-spread=16\n"
      "arrivals-per-tick=0.05\nmin-delay=1\nmax-delay=10\n"
      "restart=1@1900+37\n");
  for (const SvcConfig& config : {failover, shrunk}) {
    const SvcResult result = runSvc(config);
    EXPECT_TRUE(result.prefixOk);
    EXPECT_TRUE(result.exactlyOnce);
    EXPECT_EQ(result.duplicatesSuppressed, 0u);
  }
}

// ---------------------------------------------------------------------------
// The sequential replicated log: the service with window = 1 and
// batchMax = 1 decides one command per decree, strictly in order (the E16
// configuration: Ben-Or VAC + lottery, delay 1..8, every client command
// arriving in the first ticks of the run). These tests build the cluster
// from SvcNode directly, hosting the engine runSvc builds for
// engine=compose, so they can compare every node's logs and read the tick
// at which the run went quiet (engine=paxos hosts runSvc's Ω-led Paxos
// engine instead). There is no stop predicate: a run that ends below the
// tick cap quiesced on its own.

SvcConfig sequentialLog(std::size_t n, std::uint64_t commandsPerNode,
                        std::uint64_t seed) {
  SvcConfig config;
  config.engine = "compose";
  config.detector = "benor-vac";
  config.driver = "lottery";
  config.n = n;
  config.seed = seed;
  config.minDelay = 1;
  config.maxDelay = 8;
  config.service.window = 1;
  config.service.batchMax = 1;
  config.workload.commandsPerNode = commandsPerNode;
  config.workload.closedLoop = false;
  config.workload.arrivalsPerTick = 1.0;
  config.maxTicks = 2'000'000;
  return config;
}

struct LogRun {
  std::vector<std::vector<Value>> applied;  ///< per node, commands only
  std::vector<std::vector<Value>> decrees;  ///< per node, no-ops included
  std::vector<std::uint64_t> emitted;       ///< per node, commands minted
  Tick endTick = 0;
  bool hitCap = false;
};

LogRun runLog(const SvcConfig& config) {
  SimConfig simConfig;
  simConfig.seed = config.seed;
  simConfig.maxTicks = config.maxTicks;
  simConfig.lockstep = false;
  UniformDelayNetwork::Options net;
  net.minDelay = config.minDelay;
  net.maxDelay = config.maxDelay;
  Simulator sim(simConfig, std::make_unique<UniformDelayNetwork>(net));
  const EngineFactory engine = config.engine == "paxos"
                                   ? paxosEngineFactory(config)
                                   : composeEngineFactory(config);
  std::vector<SvcNode*> nodes;
  for (ProcessId id = 0; id < config.n; ++id) {
    auto node = std::make_unique<SvcNode>(engine, config.workload, config.n,
                                          config.seed, config.service);
    nodes.push_back(node.get());
    sim.addProcess(std::move(node));
  }
  for (const auto& [id, tick] : config.crashes) sim.crashAt(id, tick);
  for (const RestartEvent& event : config.restarts)
    sim.restartAt(event.id, event.at, event.downtime);
  sim.run();

  LogRun run;
  for (const SvcNode* node : nodes) {
    run.applied.push_back(node->applied());
    run.decrees.push_back(node->decreeLog());
    run.emitted.push_back(node->workload().emitted());
  }
  run.endTick = sim.now();
  run.hitCap = sim.hitCap();
  return run;
}

bool isPrefix(const std::vector<Value>& shorter,
              const std::vector<Value>& longer) {
  return shorter.size() <= longer.size() &&
         std::equal(shorter.begin(), shorter.end(), longer.begin());
}

bool allDistinct(const std::vector<Value>& log) {
  return std::set<Value>(log.begin(), log.end()).size() == log.size();
}

std::size_t commandsFrom(const std::vector<Value>& log, ProcessId home) {
  return static_cast<std::size_t>(std::count_if(
      log.begin(), log.end(),
      [home](Value command) { return commandNode(command) == home; }));
}

// A drained cluster must stop on its own, promptly, without a tail of
// no-op decrees opened after the last command.
TEST(ReplicatedLog, DrainedClusterQuiesces) {
  const LogRun run = runLog(sequentialLog(3, 4, /*seed=*/7));
  ASSERT_FALSE(run.hitCap);
  for (const auto& applied : run.applied) EXPECT_EQ(applied.size(), 12u);
  EXPECT_LE(run.decrees[0].size(), 3 * 12u);
  EXPECT_LT(run.endTick, 100'000u);
}

// Fault-free, every node ends with the same decree log and the same
// applied log, holding each client command exactly once.
TEST(ReplicatedLog, LogsIdenticalAndExactlyOnceFaultFree) {
  struct Case {
    std::size_t n;
    std::uint64_t commandsPerNode;
    std::uint64_t firstSeed, lastSeed;
  };
  for (const Case c : {Case{5, 3, 1, 8}, Case{4, 5, 1, 1}, Case{3, 3, 2, 8}}) {
    for (std::uint64_t seed = c.firstSeed; seed <= c.lastSeed; ++seed) {
      SCOPED_TRACE("n " + std::to_string(c.n) + " seed " +
                   std::to_string(seed));
      const LogRun run = runLog(sequentialLog(c.n, c.commandsPerNode, seed));
      ASSERT_FALSE(run.hitCap);
      for (std::size_t id = 1; id < c.n; ++id) {
        EXPECT_EQ(run.decrees[id], run.decrees[0]);
        EXPECT_EQ(run.applied[id], run.applied[0]);
      }
      EXPECT_EQ(run.applied[0].size(), c.n * c.commandsPerNode);
      EXPECT_TRUE(allDistinct(run.applied[0]));
    }
  }
}

// A node with no home clients never proposes a command of its own; it
// joins its peers' decrees reactively and still learns the full log.
TEST(ReplicatedLog, IdleNodeJoinsReactively) {
  SvcConfig config = sequentialLog(3, 4, /*seed=*/11);
  // Only the closed loop draws from the homed population: clients 0 and 1
  // live at nodes 0 and 1, and node 2 has none.
  config.workload.closedLoop = true;
  config.workload.clients = 2;
  config.workload.thinkMin = 5;
  config.workload.thinkMax = 40;
  const LogRun run = runLog(config);
  ASSERT_FALSE(run.hitCap);
  EXPECT_EQ(run.decrees[2], run.decrees[0]);
  EXPECT_EQ(run.applied[2], run.applied[0]);
  EXPECT_EQ(run.applied[0].size(), 8u);
  EXPECT_EQ(commandsFrom(run.applied[0], 2), 0u);
}

// A permanent crash freezes the crashed node's logs at a prefix of the
// survivors' (decided decrees are final); the survivors' logs stay
// identical and hold each survivor's commands exactly once.
TEST(ReplicatedLog, CrashedNodeLogIsPrefixOfSurvivors) {
  for (std::uint64_t seed = 20; seed <= 24; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SvcConfig config = sequentialLog(5, 3, seed);
    config.crashes = {{1, 120}};
    const LogRun run = runLog(config);
    ASSERT_FALSE(run.hitCap);
    const auto& reference = run.applied[0];
    EXPECT_TRUE(isPrefix(run.decrees[1], run.decrees[0]));
    EXPECT_TRUE(isPrefix(run.applied[1], reference));
    EXPECT_TRUE(allDistinct(reference));
    for (ProcessId id = 2; id < 5; ++id) {
      EXPECT_EQ(run.decrees[id], run.decrees[0]);
      EXPECT_EQ(run.applied[id], reference);
    }
    for (const ProcessId survivor : {0u, 2u, 3u, 4u})
      EXPECT_EQ(commandsFrom(reference, survivor), 3u) << survivor;
  }
}

// A non-durable restart reboots the node with no journal. Its contract is
// prefix agreement and no command applied twice; the never-faulted nodes
// agree exactly. Durable catch-up is covered by Svc.DurableRestartCatchesUp.
TEST(ReplicatedLog, RestartPreservesPrefixAgreement) {
  for (std::uint64_t seed = 40; seed <= 43; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SvcConfig config = sequentialLog(5, 3, seed);
    config.restarts.push_back({/*id=*/2, /*at=*/100, /*downtime=*/60});
    const LogRun run = runLog(config);
    ASSERT_FALSE(run.hitCap);
    const std::vector<Value>* longest = &run.applied[0];
    for (const auto& applied : run.applied)
      if (applied.size() > longest->size()) longest = &applied;
    for (ProcessId id = 0; id < 5; ++id) {
      EXPECT_TRUE(isPrefix(run.applied[id], *longest)) << "node " << id;
      EXPECT_TRUE(allDistinct(run.applied[id])) << "node " << id;
    }
    for (const ProcessId id : {1u, 3u, 4u}) {
      EXPECT_EQ(run.decrees[id], run.decrees[0]);
      EXPECT_EQ(run.applied[id], run.applied[0]);
    }
  }
}

// With a pipeline, a non-durable restart makes the node jump: its first
// catch-up reply moves its next open to the responder's applied prefix
// plus twice the window, so the decrees in between are learned, never
// opened there, and its decree table starts over above the jump. The
// rebuilt log must agree with every peer's, win no batch twice and apply
// no command twice, and the restarted node must catch up to the end.
TEST(ReplicatedLog, NonDurableRestartJumpsPastTheQuarantine) {
  for (std::uint64_t seed = 60; seed <= 63; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SvcConfig config = sequentialLog(5, 40, seed);
    config.service.window = 4;
    config.service.batchMax = 4;
    config.workload.arrivalsPerTick = 0.05;
    config.restarts.push_back({/*id=*/2, /*at=*/300, /*downtime=*/60});
    const LogRun run = runLog(config);
    ASSERT_FALSE(run.hitCap);
    const std::vector<Value>& decrees = run.decrees[0];
    std::vector<Value> batches;
    for (const Value batch : decrees)
      if (batch != kNoopBatch) batches.push_back(batch);
    EXPECT_TRUE(allDistinct(batches));
    for (ProcessId id = 0; id < 5; ++id) {
      EXPECT_EQ(run.decrees[id], decrees) << "node " << id;
      EXPECT_TRUE(isPrefix(run.applied[id], run.applied[0])) << "node " << id;
      EXPECT_TRUE(allDistinct(run.applied[id])) << "node " << id;
    }
  }
}

// n = 5, t = 2: two nodes crash mid-stream. The three survivors' logs stay
// identical, no command is applied twice, and every survivor's commands
// commit; the crashed nodes' pending commands may be lost with their
// clients.
TEST(ReplicatedLog, SurvivesMinorityCrashes) {
  SvcConfig config = sequentialLog(5, 4, /*seed=*/3);
  config.crashes = {{0, 400}, {3, 900}};
  const LogRun run = runLog(config);
  ASSERT_FALSE(run.hitCap);
  const auto& reference = run.applied[1];
  for (const ProcessId id : {2u, 4u}) {
    EXPECT_EQ(run.decrees[id], run.decrees[1]);
    EXPECT_EQ(run.applied[id], reference);
  }
  for (const ProcessId id : {0u, 3u})
    EXPECT_TRUE(isPrefix(run.applied[id], reference)) << id;
  EXPECT_TRUE(allDistinct(reference));
  for (const ProcessId survivor : {1u, 2u, 4u})
    EXPECT_EQ(commandsFrom(reference, survivor), 4u) << survivor;
}

// Safety must not rest on Ω: permanently crashing node 0 — the leader Ω
// trusts first — mid-emission leaves forwards unanswered until the oracle
// suspects it and the forwarders fall back. The logs must still agree,
// win no batch twice, and commit every command of the four survivors.
TEST(ReplicatedLog, OmegaLeaderCrashCostsOnlyTime) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    SvcConfig config = benchShape("paxos", seed);
    config.crashes = {{0, 2000}};
    const LogRun run = runLog(config);
    ASSERT_FALSE(run.hitCap);
    const auto& reference = run.applied[1];
    std::vector<Value> batches;
    for (const Value batch : run.decrees[1])
      if (batch != kNoopBatch) batches.push_back(batch);
    EXPECT_TRUE(allDistinct(batches));
    EXPECT_TRUE(allDistinct(reference));
    EXPECT_TRUE(isPrefix(run.decrees[0], run.decrees[1]));
    EXPECT_TRUE(isPrefix(run.applied[0], reference));
    for (ProcessId survivor = 1; survivor < 5; ++survivor) {
      EXPECT_EQ(run.decrees[survivor], run.decrees[1]) << survivor;
      EXPECT_EQ(commandsFrom(reference, survivor), run.emitted[survivor])
          << survivor;
    }
  }
}

// Command ids pack (home node, sequence) and round-trip; 0 is the reserved
// no-op, never minted; batch ids stay disjoint from command ids.
TEST(ReplicatedLog, CommandPacking) {
  for (const ProcessId node : {0u, 3u, 1000u}) {
    for (const std::uint32_t seq : {0u, 17u, 0xFFFFFFFFu}) {
      const Value command = makeCommand(node, seq);
      EXPECT_EQ(commandNode(command), node);
      EXPECT_GT(command, kNoopCommand);
      EXPECT_NE(command, makeBatchId(node, seq));
      EXPECT_EQ(batchNode(makeBatchId(node, seq)), node);
    }
  }
}

TEST(Svc, SerializeRoundTrip) {
  SvcConfig config = smokeConfig("compose");
  config.service.durable = true;
  config.crashes.push_back({2, 150});
  RestartEvent restart;
  restart.id = 3;
  restart.at = 90;
  restart.downtime = 75;
  config.restarts.push_back(restart);
  const std::string wire = serializeSvcConfig(config);
  const SvcConfig parsed = parseSvcConfig(wire);
  EXPECT_EQ(serializeSvcConfig(parsed), wire);
}

// The capability gate: admission is decided by the registry descriptor,
// not a name list, and each rejection names the failed capability.
TEST(Svc, EngineGateRejectsByCapability) {
  SvcConfig config = smokeConfig("compose");

  // Binary coin: not multivalued — it would decide values nobody proposed.
  config.driver = "local-coin";
  auto rejected = validateEngine(config);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_NE(rejected->find("not multivalued"), std::string::npos);

  // Adopt-commit detector: the log decides on commit under the VAC rule.
  config.driver = "lottery";
  config.detector = "phaseking-ac";
  rejected = validateEngine(config);
  ASSERT_TRUE(rejected.has_value());

  // Oracle-consuming driver: the service harness attaches no oracle.
  config.detector = "benor-vac";
  config.driver = "ct-coordinator";
  rejected = validateEngine(config);
  ASSERT_TRUE(rejected.has_value());
  EXPECT_NE(rejected->find("oracle"), std::string::npos);

  // Admissible pairing and the native engines pass.
  config.driver = "lottery";
  EXPECT_FALSE(validateEngine(config).has_value());
  config.engine = "raft";
  EXPECT_FALSE(validateEngine(config).has_value());

  // Unknown registry names throw, listing the known ones.
  config.engine = "compose";
  config.driver = "no-such-driver";
  EXPECT_THROW((void)validateEngine(config), std::invalid_argument);

  // runSvc re-validates: an inadmissible config cannot be executed.
  SvcConfig bad = smokeConfig("compose");
  bad.driver = "local-coin";
  EXPECT_THROW((void)runSvc(bad), std::invalid_argument);

  // Fault entries naming no process are rejected before the run starts.
  for (const std::string engine : {"compose", "paxos", "raft"}) {
    SvcConfig crash = smokeConfig(engine);
    crash.crashes = {{9, 5}};
    EXPECT_THROW((void)runSvc(crash), std::invalid_argument) << engine;
    SvcConfig restart = smokeConfig(engine);
    restart.restarts = {{5, 5, 50}};
    try {
      (void)runSvc(restart);
      ADD_FAILURE() << engine << ": accepted restart of process 5 at n=5";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("restart '5@5+50'"),
                std::string::npos)
          << error.what();
    }
  }
}

// The engine gate bounds the biased-coin probability like the composition
// resolver does, for every engine, so runSvc and the parser inherit it.
TEST(Svc, BiasOutsideTheUnitIntervalIsRejected) {
  for (const double bias :
       {std::numeric_limits<double>::quiet_NaN(), 7.0, -2.0}) {
    for (const std::string engine : {"compose", "raft"}) {
      SvcConfig config = smokeConfig(engine);
      config.bias = bias;
      const auto rejected = validateEngine(config);
      ASSERT_TRUE(rejected.has_value()) << engine << " bias " << bias;
      EXPECT_EQ(rejected->rfind("bias ", 0), 0u) << *rejected;
      EXPECT_THROW((void)runSvc(config), std::invalid_argument);
      EXPECT_THROW((void)parseSvcConfig(serializeSvcConfig(config)),
                   std::invalid_argument);
    }
  }
}

// Raft replication flow control keeps the per-command message bill flat
// past the arrival-rate knee: on the svc-steady shape (n=5, delay 1..6,
// durable journals, open-loop zipfian load), four times the arrival rate
// costs at most 1.5x the messages per committed command (measured: 16.3
// vs 18.9). Without flow control every acknowledgement re-sent the
// in-flight suffix and the overload rung cost 15x (394 vs 25.9). Message
// counts are deterministic, so the bound is exact for this seed.
TEST(Svc, RaftMessagesPerCommandFlatUnderOverload) {
  const auto msgsPerCommit = [](double rate) {
    SvcConfig config;
    config.engine = "raft";
    config.n = 5;
    config.seed = 7001;
    config.minDelay = 1;
    config.maxDelay = 6;
    config.service.window = 4;
    config.service.batchMax = 4;
    config.service.durable = true;
    config.workload.clients = 100000;
    config.workload.commandsPerNode = 200;
    config.workload.closedLoop = false;
    config.workload.arrivalsPerTick = rate;
    config.workload.zipfTheta = 0.99;
    const SvcResult result = runSvc(config);
    EXPECT_TRUE(result.prefixOk);
    EXPECT_TRUE(result.exactlyOnce);
    EXPECT_TRUE(result.allApplied);
    EXPECT_GT(result.commandsCommitted, 0u);
    return static_cast<double>(result.messagesByCorrect) /
           static_cast<double>(result.commandsCommitted);
  };
  const double steady = msgsPerCommit(0.05);
  const double overload = msgsPerCommit(0.2);
  EXPECT_LE(overload, 1.5 * steady)
      << "steady " << steady << " msgs/commit, overload " << overload;
}

// The schedules are pinned: a change to the service host's bookkeeping
// (decree table, batch store, dedup sets, per-decree and per-command
// maps, journal encoding) must leave every run's event count, message
// bill and commit record as it was. The raft and compose rows were
// recorded from the build before the host's decree table, shared batch
// payloads and flat dedup sets went in; the paxos rows from the first
// build with Ω-led proposer selection. The shape is perfbench's svc-steady
// (benchShape) at 0.05 and 0.2 arrivals/tick/node, plus one crash-restart
// of node 0 at tick 2000 for 150 ticks at 0.05.
TEST(Svc, EngineResultsPinned) {
  struct Pinned {
    std::string engine;
    double rate = 0;
    bool failover = false;
    std::uint64_t events = 0;
    std::uint64_t messages = 0;
    std::uint64_t emitted = 0;
    std::uint64_t committed = 0;
    std::uint64_t decrees = 0;
    std::uint64_t noops = 0;
    std::uint64_t dupes = 0;
    std::uint64_t latencySum = 0;
    bool exactlyOnce = true;

    bool operator==(const Pinned&) const = default;
    std::string row() const {
      return "{\"" + engine + "\", " + std::to_string(rate) + ", " +
             (failover ? "true" : "false") + ", " + std::to_string(events) +
             ", " + std::to_string(messages) + ", " +
             std::to_string(emitted) + ", " + std::to_string(committed) +
             ", " + std::to_string(decrees) + ", " + std::to_string(noops) +
             ", " + std::to_string(dupes) + ", " +
             std::to_string(latencySum) + ", " +
             (exactlyOnce ? "true" : "false") + "}";
    }
  };
  const std::vector<Pinned> expected = {
      {"raft", 0.05, false, 26839, 18657, 995, 995, 995, 0, 0, 16720, true},
      {"raft", 0.2, false, 20726, 15624, 1000, 1000, 1000, 0, 0, 36891, true},
      {"raft", 0.05, true, 26655, 18566, 995, 995, 995, 0, 0, 14361, true},
      {"paxos", 0.05, false, 92249, 86376, 1000, 1000, 999, 0, 0, 45500, true},
      {"paxos", 0.2, false, 39068, 36104, 1000, 1000, 393, 0, 0, 276733, true},
      {"paxos", 0.05, true, 90955, 84645, 1000, 1000, 982, 0, 0, 46415, true},
      {"compose", 0.05, false, 194868, 193863, 1000, 1000, 576, 29, 0, 177513,
       true},
      {"compose", 0.2, false, 92698, 91693, 1000, 1000, 273, 5, 0, 565327,
       true},
      {"compose", 0.05, true, 187197, 186196, 1000, 994, 558, 26, 0, 139360,
       true},
  };
  for (const Pinned& pin : expected) {
    SvcConfig config = benchShape(pin.engine, /*seed=*/1, pin.rate);
    if (pin.failover) config.restarts.push_back({0, 2000, 150});
    const SvcResult result = runSvc(config);
    Pinned actual{pin.engine, pin.rate, pin.failover};
    actual.events = result.eventsProcessed;
    actual.messages = result.messagesByCorrect;
    actual.emitted = result.commandsEmitted;
    actual.committed = result.commandsCommitted;
    actual.decrees = result.decreesCommitted;
    actual.noops = result.noopDecrees;
    actual.dupes = result.duplicatesSuppressed;
    for (const Tick latency : result.latencies) actual.latencySum += latency;
    actual.exactlyOnce = result.exactlyOnce;
    EXPECT_EQ(actual, pin) << "got " << actual.row();
  }
}

// Key draws are a pure function of (options, node, n, seed): pinned here so
// that sharing the zipf table between workloads provably changes nothing.
TEST(Workload, ZipfKeysPinned) {
  WorkloadOptions options;
  options.closedLoop = false;
  options.arrivalsPerTick = 1.0;
  options.commandsPerNode = 16;
  const std::vector<std::vector<std::uint32_t>> expected = {
      {0, 1, 257, 783, 14, 0, 434, 152, 18902, 276, 5, 7008, 7774, 642, 95,
       1},
      {282, 30, 3, 1139, 0, 1061, 214, 22, 2, 71, 23587, 11, 15, 0, 1, 6153},
  };
  for (int pass = 0; pass < 2; ++pass) {  // the second pass hits the cache
    for (ProcessId node = 0; node < expected.size(); ++node) {
      Workload workload(options, node, 5, 2024);
      std::vector<std::uint32_t> keys;
      for (const Arrival& arrival : workload.collect(1000))
        keys.push_back(arrival.key);
      EXPECT_EQ(keys, expected[node]) << "node " << node;
    }
  }
}

// Workloads are built concurrently by sweep workers (check-sweep runs svc
// configs on several threads): every shape must come out identical to a
// sequential build. Under tsan this covers the shared zipf-table cache.
TEST(Workload, ConcurrentConstructionMatchesSequential) {
  const auto keysOf = [](std::size_t index) {
    WorkloadOptions options;
    options.closedLoop = false;
    options.arrivalsPerTick = 1.0;
    options.commandsPerNode = 32;
    options.keySpace = 1u << (10 + index % 3);  // a few distinct tables
    options.zipfTheta = index % 2 == 0 ? 0.99 : 0.8;
    Workload workload(options, static_cast<ProcessId>(index % 5), 5,
                      100 + index);
    std::vector<std::uint32_t> keys;
    for (const Arrival& arrival : workload.collect(1000))
      keys.push_back(arrival.key);
    return keys;
  };
  constexpr std::size_t kRuns = 48;
  std::vector<std::vector<std::uint32_t>> concurrent(kRuns);
  sweep::Options options;
  options.threads = 4;
  options.chunkSize = 1;
  sweep::parallelFor(
      kRuns,
      [&](std::size_t index, sweep::Control&) {
        concurrent[index] = keysOf(index);
      },
      options);
  for (std::size_t index = 0; index < kRuns; ++index)
    EXPECT_EQ(concurrent[index], keysOf(index)) << "run " << index;
}

}  // namespace
}  // namespace ooc::svc
