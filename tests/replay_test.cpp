// Trace record/replay: a recorded run re-executes bit-identically (every
// scheduler event, decision, tick and message count), configs and traces
// round-trip through their text serializations, and tampered traces are
// diagnosed with a divergence.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "check/replay.hpp"
#include "check/scenario.hpp"
#include "compose/composition.hpp"
#include "compose/kv.hpp"
#include "svc/run.hpp"

namespace ooc::check {
namespace {

Scenario benOrScenario() {
  Scenario scenario;
  scenario.family = Family::kCompose;
  auto& config = scenario.compose;
  config.n = 5;
  config.inputs = {0, 1, 0, 1, 1};
  config.seed = 42;
  config.maxDelay = 7;
  config.crashes = {{2, 30}};
  return scenario;
}

Scenario phaseKingScenario() {
  Scenario scenario;
  scenario.family = Family::kCompose;
  auto& config = scenario.compose;
  config.detector = "phaseking-ac";
  config.driver = "king-conciliator";
  config.n = 7;
  config.byzantineCount = 2;
  config.inputs = {0, 1};
  config.seed = 7;
  config.maxRounds = 300;
  config.maxTicks = 100000;
  return scenario;
}

Scenario raftScenario() {
  Scenario scenario;
  scenario.family = Family::kRaft;
  auto& config = scenario.raft;
  config.n = 5;
  config.seed = 11;
  config.crashes = {{0, 500}};
  config.partitions.push_back({200, {0, 0, 0, 1, 1}});
  config.partitions.push_back({800, {}});
  return scenario;
}

void expectBitIdenticalReplay(const Scenario& scenario) {
  const RecordedRun recorded = recordRun(scenario);
  ASSERT_FALSE(recorded.trace.events.empty());

  const ReplayResult replay = replayRun(scenario, recorded.trace);
  EXPECT_TRUE(replay.identical)
      << replay.divergence.value_or("(no divergence reported)");

  // The replayed run reproduces the recorded outcome exactly.
  EXPECT_EQ(replay.report.allDecided, recorded.report.allDecided);
  EXPECT_EQ(replay.report.decidedValue, recorded.report.decidedValue);
  EXPECT_EQ(replay.report.messages, recorded.report.messages);

  // And the re-derived trace counters match too.
  const RecordedRun again = recordRun(scenario);
  EXPECT_EQ(again.trace, recorded.trace);
}

TEST(Replay, BenOrRunReplaysBitIdentically) {
  expectBitIdenticalReplay(benOrScenario());
}

TEST(Replay, PhaseKingRunReplaysBitIdentically) {
  expectBitIdenticalReplay(phaseKingScenario());
}

TEST(Replay, RaftRunReplaysBitIdentically) {
  expectBitIdenticalReplay(raftScenario());
}

TEST(Replay, DecisionsAppearInTrace) {
  const RecordedRun recorded = recordRun(benOrScenario());
  std::size_t decisions = 0;
  for (const TraceEvent& event : recorded.trace.events)
    if (event.kind == TraceEvent::Kind::kDecision) ++decisions;
  // Process 2 crashes at tick 30; the other four must decide (2 itself may
  // or may not squeeze its decision in before the crash).
  EXPECT_GE(decisions, 4u);
  EXPECT_LE(decisions, 5u);
}

TEST(Replay, TamperedTraceReportsDivergence) {
  const Scenario scenario = benOrScenario();
  RecordedRun recorded = recordRun(scenario);
  ASSERT_GT(recorded.trace.events.size(), 10u);
  recorded.trace.events[10].a ^= 1;  // flip one participant id

  const ReplayResult replay = replayRun(scenario, recorded.trace);
  EXPECT_FALSE(replay.identical);
  ASSERT_TRUE(replay.divergence.has_value());
  EXPECT_NE(replay.divergence->find("event"), std::string::npos);
}

TEST(Replay, TruncatedTraceReportsDivergence) {
  const Scenario scenario = benOrScenario();
  RecordedRun recorded = recordRun(scenario);
  recorded.trace.events.resize(recorded.trace.events.size() / 2);

  const ReplayResult replay = replayRun(scenario, recorded.trace);
  EXPECT_FALSE(replay.identical);
  EXPECT_TRUE(replay.divergence.has_value());
}

TEST(Replay, TraceSerializationRoundTrips) {
  const RecordedRun recorded = recordRun(benOrScenario());
  std::ostringstream out;
  serializeTrace(recorded.trace, out);
  std::istringstream in(out.str());
  const Trace parsed = parseTrace(in);
  EXPECT_EQ(parsed, recorded.trace);
}

TEST(Replay, ScenarioSerializationRoundTrips) {
  for (const Scenario& scenario :
       {benOrScenario(), phaseKingScenario(), raftScenario()}) {
    const std::string text = serialize(scenario);
    const Scenario parsed = parseScenario(text);
    // Configs don't define operator==; equality via re-serialization.
    EXPECT_EQ(serialize(parsed), text);
    // A parsed config drives the exact same schedule.
    const RecordedRun original = recordRun(scenario);
    EXPECT_TRUE(replayRun(parsed, original.trace).identical);
  }
}

TEST(Replay, CounterexampleFileRoundTrips) {
  const Scenario scenario = raftScenario();
  CounterexampleFile file;
  file.scenario = scenario;
  file.invariant = "agreement";
  file.detail = "two correct processes decided different values";
  file.trace = recordRun(scenario).trace;

  const std::string text = serializeCounterexample(file);
  const CounterexampleFile parsed = parseCounterexample(text);
  EXPECT_EQ(parsed.invariant, file.invariant);
  EXPECT_EQ(parsed.detail, file.detail);
  EXPECT_EQ(parsed.trace, file.trace);
  EXPECT_EQ(serialize(parsed.scenario), serialize(file.scenario));
}

// Fault-schedule entries are parsed field by field: a non-numeric field or
// trailing characters reject the whole entry, and the diagnostic names it.
void expectRejectedEntry(const std::function<void()>& parse,
                         const std::string& entry) {
  try {
    parse();
    ADD_FAILURE() << "accepted malformed entry '" << entry << "'";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("'" + entry + "'"),
              std::string::npos)
        << error.what();
  }
}

TEST(Replay, MalformedCounterexampleThrows) {
  EXPECT_THROW(parseCounterexample("nonsense"), std::runtime_error);
  EXPECT_THROW(parseCounterexample("ooc-counterexample v1\ninvariant=x\n"),
               std::runtime_error);
  EXPECT_EQ(compose::parseCrash("1@5"), (std::pair<ProcessId, Tick>{1, 5}));
  for (const std::string crash : {"1x@5", "1@5junk", "x@5", "2@"})
    expectRejectedEntry([&] { (void)compose::parseCrash(crash); }, crash);
  const std::string svcBody = svc::serializeSvcConfig(svc::SvcConfig{});
  EXPECT_EQ(svc::parseSvcConfig(svcBody + "restart=1@5+50").restarts.size(),
            1u);
  for (const std::string restart :
       {"1x@5+50", "1@5junk+50", "x@5+50", "2@+50", "2@5+", "1@007+5",
        "01@5+50", "1@5+050"}) {
    expectRejectedEntry(
        [&] { (void)svc::parseSvcConfig(svcBody + "restart=" + restart); },
        restart);
  }
  // A non-canonical integer would load, then re-serialize differently and
  // change the run-id, so it is rejected like any other malformed field.
  const auto respell = [](std::string body, const std::string& from,
                          const std::string& to) {
    const auto at = body.find(from);
    EXPECT_NE(at, std::string::npos) << from;
    return at == std::string::npos ? body : body.replace(at, from.size(), to);
  };
  expectRejectedEntry(
      [&] {
        (void)svc::parseSvcConfig(respell(svcBody, "\nn=5\n", "\nn=05\n"));
      },
      "05");
  compose::Composition twoInputs;
  twoInputs.inputs = {0, 1};
  expectRejectedEntry(
      [&] {
        (void)compose::parseComposition(respell(
            compose::serialize(twoInputs), "inputs=0,1", "inputs=-0,1"));
      },
      "-0,1");

  // Well-formed entries naming a process id >= n are rejected too, on
  // every parse path (n = 5 throughout).
  expectRejectedEntry(
      [&] { (void)svc::parseSvcConfig(svcBody + "crash=9@5"); }, "9@5");
  expectRejectedEntry(
      [&] { (void)svc::parseSvcConfig(svcBody + "restart=5@5+50"); },
      "5@5+50");
  Scenario benOr = benOrScenario();
  benOr.compose.crashes = {{9, 5}};
  Scenario raftCrash = raftScenario();
  raftCrash.raft.crashes = {{9, 5}};
  for (const Scenario& scenario : {benOr, raftCrash})
    expectRejectedEntry([&] { (void)parseScenario(serialize(scenario)); },
                        "9@5");
  Scenario raftRestart = raftScenario();
  raftRestart.raft.restarts = {{5, 5, 50}};
  expectRejectedEntry([&] { (void)parseScenario(serialize(raftRestart)); },
                      "5@5+50");
  compose::Composition unknownCrash;
  unknownCrash.crashes = {{9, 5}};
  compose::Composition unknownCrashOracle = unknownCrash;
  unknownCrashOracle.driver = "ct-coordinator";
  unknownCrashOracle.oracle = "omega";
  for (const compose::Composition& composition :
       {unknownCrash, unknownCrashOracle}) {
    expectRejectedEntry(
        [&] {
          (void)compose::parseComposition(compose::serialize(composition));
        },
        "9@5");
    CounterexampleFile file;
    file.scenario.family = Family::kCompose;
    file.scenario.compose = composition;
    file.invariant = "agreement";
    expectRejectedEntry(
        [&] { (void)parseCounterexample(serializeCounterexample(file)); },
        "9@5");
  }

  // Numeric fields are read whole: a sign, trailing junk or a non-number
  // rejects the value, and the diagnostic names both key and value.
  const std::string raftBody = serialize(raftScenario());
  for (const auto& [key, value] : std::vector<std::pair<std::string,
                                                        std::string>>{
           {"n", "5x"}, {"seed", "23junk"}, {"n", "-1"}, {"bias", "0.5abc"},
           {"inputs", "0,1x,0"}, {"n", "abc"}, {"inputs", "0,1,"}}) {
    const std::string line = key + "=" + value + "\n";
    try {
      (void)compose::parseComposition(line);
      ADD_FAILURE() << "accepted " << line;
    } catch (const std::runtime_error& error) {
      const std::string what = error.what();
      EXPECT_NE(what.find(key), std::string::npos) << what;
      EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
    }
  }
  EXPECT_EQ(compose::parseComposition("n=7\ninputs=-3,4\nbias=0.25\n")
                .inputs,
            (std::vector<Value>{-3, 4}));
  // Raft restart and partition entries go through the same whole-field
  // reader as crash entries.
  for (const std::string restart : {"0x@250+1", "0@25x0+1", "0@250+1y"})
    expectRejectedEntry(
        [&] { (void)parseScenario(raftBody + "restart=" + restart + "\n"); },
        restart);
  for (const std::string partition :
       {"2x0:0,1", "200:0,1x", "200:0,,1", "200:0,1,"})
    expectRejectedEntry(
        [&] {
          (void)parseScenario(raftBody + "partition=" + partition + "\n");
        },
        partition);
}

// Every family's parser reads a fixed field list: a key outside it (a
// typo, a retired field) fails the load instead of leaving its field at
// the default, and so does a second value for a singular key. List keys
// (crash, restart, partition) repeat freely.
TEST(Replay, UnknownAndRepeatedKeysAreRejected) {
  Scenario svcScenario;
  svcScenario.family = Family::kSvc;
  svcScenario.svc.restarts = {{1, 90, 40}};
  const auto expectRejected = [](const std::string& text,
                                 const std::string& expected) {
    try {
      (void)parseScenario(text);
      ADD_FAILURE() << "accepted:\n" << text;
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find(expected), std::string::npos)
          << error.what();
    }
  };
  for (const Scenario& scenario :
       {benOrScenario(), raftScenario(), svcScenario}) {
    const std::string text = serialize(scenario);
    expectRejected(text + "max-delya=3\n", "unknown key 'max-delya'");
    expectRejected(text + "n=7\n", "repeated key 'n'");
    EXPECT_EQ(parseScenario(text + "crash=1@600\n").processCount(), 5u)
        << toString(scenario.family);
  }
  EXPECT_EQ(
      parseScenario(serialize(svcScenario) + "restart=2@30+5\n")
          .svc.restarts.size(),
      2u);
  // The svc writer emits the pairing keys only for composed engines, so a
  // raft-engine file naming a driver carries a key nothing reads.
  svcScenario.svc.engine = "raft";
  expectRejected(serialize(svcScenario) + "driver=lottery\n",
                 "unknown key 'driver'");
}

TEST(Replay, RetiredFamiliesPointAtTheCompositionSpelling) {
  for (const std::string family : {"benor", "phaseking"}) {
    try {
      (void)parseScenario("family=" + family + "\nn=5\n");
      ADD_FAILURE() << "family=" << family << " still parses";
    } catch (const std::runtime_error& error) {
      EXPECT_NE(std::string(error.what()).find("family=compose"),
                std::string::npos)
          << error.what();
    }
  }
}

TEST(Replay, AdversaryScheduleIsPartOfTheConfig) {
  Scenario scenario = benOrScenario();
  scenario.compose.adversary.extraDelayMax = 8;
  scenario.compose.adversary.seed = 3;
  const RecordedRun recorded = recordRun(scenario);

  // Same adversary: bit-identical. Different adversary seed: diverges.
  EXPECT_TRUE(replayRun(scenario, recorded.trace).identical);
  Scenario other = scenario;
  other.compose.adversary.seed = 4;
  EXPECT_FALSE(replayRun(other, recorded.trace).identical);
}

}  // namespace
}  // namespace ooc::check
