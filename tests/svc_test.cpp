// Multi-decree replicated-log service tests (src/svc): the three engines
// under the deterministic client workload, pipelining and batching,
// byte-identical determinism, durable restart + catch-up, the serialized
// config round-trip, and the registry capability gate.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "svc/run.hpp"
#include "svc/workload.hpp"
#include "sweep/scheduler.hpp"

namespace ooc::svc {
namespace {

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

TEST(Svc, ThreeEngineSmoke) {
  for (const std::string engine : {"compose", "paxos", "raft"}) {
    const SvcResult result = runSvc(smokeConfig(engine));
    EXPECT_TRUE(result.prefixOk) << engine;
    EXPECT_TRUE(result.exactlyOnce) << engine;
    EXPECT_TRUE(result.allApplied) << engine;
    EXPECT_FALSE(result.hitCap) << engine;
    EXPECT_EQ(result.commandsCommitted, 40u) << engine;
    EXPECT_EQ(result.commandsEmitted, 40u) << engine;
  }
}

// Pipelining: a window-4 run must stay correct and commit the same command
// set as the sequential window-1 discipline on the same workload.
TEST(Svc, PipelineWindowCorrectness) {
  SvcConfig sequential = smokeConfig("compose");
  sequential.service.window = 1;
  SvcConfig pipelined = smokeConfig("compose");
  pipelined.service.window = 4;
  const SvcResult a = runSvc(sequential);
  const SvcResult b = runSvc(pipelined);
  for (const SvcResult* r : {&a, &b}) {
    EXPECT_TRUE(r->prefixOk);
    EXPECT_TRUE(r->exactlyOnce);
    EXPECT_TRUE(r->allApplied);
    EXPECT_EQ(r->commandsCommitted, 40u);
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
