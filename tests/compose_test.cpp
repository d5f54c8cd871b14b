// The composition engine: registry semantics (lookup, open registration,
// duplicate rejection), capability validation with the paper's §5
// diagnostics, the two Composition interchange forms (spec string and
// key=value) with the strict key=value reader beneath them, and the
// classic monolithic baselines that run the same spec value.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "benor/reconciliators.hpp"
#include "check/replay.hpp"
#include "check/scenario.hpp"
#include "compose/composition.hpp"
#include "compose/kv.hpp"
#include "compose/matrix.hpp"
#include "compose/registry.hpp"
#include "compose/run.hpp"
#include "core/scheduling.hpp"
#include "fd/oracle.hpp"
#include "harness/scenarios.hpp"
#include "sim/trace.hpp"

namespace ooc {
namespace {

using compose::Composition;
using compose::CompositionResult;
using compose::registry;

std::string throwText(const std::function<void()>& f) {
  try {
    f();
  } catch (const std::exception& error) {
    return error.what();
  }
  return "";
}

// ---------------------------------------------------------------------------
// Registry

TEST(ComposeRegistry, BuiltinsAreRegistered) {
  auto& reg = registry();
  for (const char* name :
       {"benor-vac", "byzantine-benor-vac", "vac-from-two-ac",
        "decentralized-vac", "phaseking-ac", "phasequeen-ac"}) {
    EXPECT_TRUE(reg.hasDetector(name)) << name;
    EXPECT_EQ(reg.detector(name).name, name);
  }
  for (const char* name :
       {"local-coin", "common-coin", "biased-coin", "keep-value", "lottery",
        "timer", "king-conciliator", "queen-conciliator"}) {
    EXPECT_TRUE(reg.hasDriver(name)) << name;
    EXPECT_EQ(reg.driver(name).name, name);
  }
}

TEST(ComposeRegistry, UnknownNamesThrowListingKnownOnes) {
  const std::string detectorError =
      throwText([] { registry().detector("no-such-detector"); });
  EXPECT_NE(detectorError.find("unknown detector 'no-such-detector'"),
            std::string::npos)
      << detectorError;
  EXPECT_NE(detectorError.find("benor-vac"), std::string::npos)
      << "diagnostic should list the known names: " << detectorError;

  const std::string driverError =
      throwText([] { registry().driver("no-such-driver"); });
  EXPECT_NE(driverError.find("unknown driver 'no-such-driver'"),
            std::string::npos)
      << driverError;
  EXPECT_NE(driverError.find("local-coin"), std::string::npos)
      << driverError;
}

TEST(ComposeRegistry, DuplicateRegistrationIsRejected) {
  compose::DetectorEntry detector;
  detector.name = "benor-vac";  // collides with the builtin
  EXPECT_THROW(registry().registerDetector(std::move(detector)),
               std::invalid_argument);

  compose::DriverEntry driver;
  driver.name = "local-coin";
  EXPECT_THROW(registry().registerDriver(std::move(driver)),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Capability validation (the paper's §5 asymmetry)

TEST(ComposeCapability, AcUnderReconciliatorCitesTheInsufficiencyArgument) {
  const auto diagnostic =
      registry().validatePairing("phaseking-ac", "local-coin");
  ASSERT_TRUE(diagnostic.has_value());
  EXPECT_NE(diagnostic->find("§5"), std::string::npos) << *diagnostic;
  EXPECT_NE(diagnostic->find("break agreement"), std::string::npos)
      << *diagnostic;
  // resolve(), parseSpec() and every file-parse path surface the identical
  // text — the same gate, not a re-implementation.
  Composition composition;
  composition.detector = "phaseking-ac";
  composition.driver = "local-coin";
  EXPECT_EQ(throwText([&] { compose::resolve(composition); }), *diagnostic);
  EXPECT_EQ(throwText([] { compose::parseSpec("phaseking-ac+local-coin"); }),
            *diagnostic);
}

TEST(ComposeCapability, VacUnderConciliatorSuggestsTheDowngrade) {
  const auto diagnostic =
      registry().validatePairing("benor-vac", "king-conciliator");
  ASSERT_TRUE(diagnostic.has_value());
  EXPECT_NE(diagnostic->find("vacillate"), std::string::npos) << *diagnostic;
  EXPECT_NE(diagnostic->find("AcFromVac"), std::string::npos) << *diagnostic;
}

TEST(ComposeCapability, ByzantineDetectorRejectsCrashOnlyDrivers) {
  for (const char* driver : {"lottery", "timer"}) {
    const auto diagnostic =
        registry().validatePairing("byzantine-benor-vac", driver);
    ASSERT_TRUE(diagnostic.has_value()) << driver;
    EXPECT_NE(diagnostic->find("crash-only"), std::string::npos)
        << *diagnostic;
  }
}

TEST(ComposeCapability, ValidPairingsResolve) {
  EXPECT_FALSE(registry().validatePairing("benor-vac", "local-coin"));
  EXPECT_FALSE(registry().validatePairing("phaseking-ac", "king-conciliator"));
  EXPECT_FALSE(registry().validatePairing("byzantine-benor-vac",
                                          "common-coin"));
  const auto resolved = compose::resolve(Composition{});  // the defaults
  EXPECT_EQ(resolved.t, 2u);  // (5-1)/2
  EXPECT_FALSE(resolved.lockstep);
}

TEST(ComposeCapability, ResolveChecksRunParameters) {
  Composition crashWithPlants;  // crash-model detector, planted Byzantines
  crashWithPlants.byzantineCount = 1;
  EXPECT_NE(throwText([&] { compose::resolve(crashWithPlants); })
                .find("crash-model"),
            std::string::npos);

  Composition lockstepWithCrashes;
  lockstepWithCrashes.detector = "phaseking-ac";
  lockstepWithCrashes.driver = "king-conciliator";
  lockstepWithCrashes.n = 7;
  lockstepWithCrashes.crashes = {{1, 10}};
  EXPECT_NE(throwText([&] { compose::resolve(lockstepWithCrashes); })
                .find("lockstep"),
            std::string::npos);

  // A crash entry naming no process is rejected before any run starts,
  // with or without an oracle built from the crash schedule.
  Composition unknownCrash;
  unknownCrash.n = 5;
  unknownCrash.crashes = {{1, 3}, {9, 5}};
  Composition unknownCrashOracle = unknownCrash;
  unknownCrashOracle.driver = "ct-coordinator";
  unknownCrashOracle.oracle = "omega";
  for (const Composition& composition : {unknownCrash, unknownCrashOracle}) {
    EXPECT_THROW(compose::runComposition(composition), std::invalid_argument);
    EXPECT_NE(throwText([&] { compose::runComposition(composition); })
                  .find("crash '9@5' names process 9, but n=5"),
              std::string::npos);
  }
}

// A biased-coin probability outside [0,1] (NaN included) is a run
// parameter like any other: resolve() rejects it, so the runner and every
// parse path fail with the same text naming the value.
TEST(ComposeCapability, BiasOutsideTheUnitIntervalIsRejected) {
  for (const auto& [bias, named] :
       std::vector<std::pair<double, std::string>>{
           {std::numeric_limits<double>::quiet_NaN(), "bias nan "},
           {7.0, "bias 7 "},
           {-2.0, "bias -2 "}}) {
    Composition composition;
    composition.driver = "biased-coin";
    composition.bias = bias;
    const std::optional<std::string> diagnostic = compose::invalidBias(bias);
    ASSERT_TRUE(diagnostic.has_value()) << named;
    EXPECT_EQ(diagnostic->rfind(named, 0), 0u) << *diagnostic;
    EXPECT_THROW(compose::resolve(composition), std::invalid_argument);
    EXPECT_EQ(throwText([&] { compose::resolve(composition); }), *diagnostic);
    EXPECT_EQ(throwText([&] { compose::runComposition(composition); }),
              *diagnostic);
    EXPECT_EQ(throwText([&] {
                compose::parseComposition(compose::serialize(composition));
              }),
              *diagnostic);
  }
  for (const double bias : {0.0, 1.0}) {
    Composition composition;
    composition.driver = "biased-coin";
    composition.bias = bias;
    EXPECT_FALSE(compose::invalidBias(bias).has_value());
    EXPECT_TRUE(compose::runComposition(composition).allDecided) << bias;
  }
}

// ---------------------------------------------------------------------------
// Interchange forms

TEST(ComposeSpec, ParsesAndTrims) {
  const Composition composition =
      compose::parseSpec("  benor-vac +  timer ");
  EXPECT_EQ(composition.detector, "benor-vac");
  EXPECT_EQ(composition.driver, "timer");
  EXPECT_THROW(compose::parseSpec("benor-vac"), std::invalid_argument);
  EXPECT_THROW(compose::parseSpec("+local-coin"), std::invalid_argument);
}

Composition sampleComposition() {
  Composition composition;
  composition.detector = "benor-vac";
  composition.driver = "biased-coin";
  composition.n = 9;
  composition.t = 3;
  composition.inputs = {1, 0, 1};
  composition.seed = 42;
  composition.bias = 0.75;
  composition.crashes = {{0, 50}, {3, 120}};
  composition.minDelay = 2;
  composition.maxDelay = 7;
  composition.adversary.extraDelayMax = 4;
  composition.adversary.perturbProbability = 0.5;
  composition.adversary.seed = 9;
  composition.maxRounds = 80;
  composition.maxTicks = 60'000;
  return composition;
}

TEST(ComposeSerialize, KeyValueRoundTrips) {
  const Composition original = sampleComposition();
  const std::string text = compose::serialize(original);
  const Composition parsed = compose::parseComposition(text);
  EXPECT_EQ(compose::serialize(parsed), text);
  EXPECT_EQ(parsed.detector, original.detector);
  EXPECT_EQ(parsed.driver, original.driver);
  EXPECT_EQ(parsed.n, original.n);
  EXPECT_EQ(parsed.t, original.t);
  EXPECT_EQ(parsed.inputs, original.inputs);
  EXPECT_EQ(parsed.crashes, original.crashes);
  EXPECT_EQ(parsed.adversary.extraDelayMax, original.adversary.extraDelayMax);
  EXPECT_EQ(parsed.bias, original.bias);
}

TEST(ComposeSerialize, ParsePathsRejectInvalidPairingsWithTheSameText) {
  Composition invalid;
  invalid.detector = "phasequeen-ac";
  invalid.driver = "keep-value";
  const std::string expected =
      *registry().validatePairing("phasequeen-ac", "keep-value");
  // serialize() itself does not validate (it never runs anything), so the
  // invalid pairing reaches the wire — and every reader rejects it there.
  EXPECT_EQ(throwText([&] {
              compose::parseComposition(compose::serialize(invalid));
            }),
            expected);
}

// ---------------------------------------------------------------------------
// The oracle role (PR 6): rejection gates, interchange, the E22 matrix

TEST(ComposeOracle, BuiltinOraclesAreRegistered) {
  auto& reg = registry();
  for (const char* name : {"perfect-p", "diamond-s", "omega"}) {
    EXPECT_TRUE(reg.hasOracle(name)) << name;
    EXPECT_EQ(reg.oracle(name).name, name);
  }
  const std::string error =
      throwText([] { registry().oracle("no-such-oracle"); });
  EXPECT_NE(error.find("unknown oracle 'no-such-oracle'"), std::string::npos)
      << error;
  EXPECT_NE(error.find("omega"), std::string::npos)
      << "diagnostic should list the known names: " << error;
}

TEST(ComposeOracle, MissingOracleDiagnosticIsIdenticalAcrossParsePaths) {
  // ct-coordinator consumes Ω; with no oracle attached, resolve() and every
  // file-parse path must reject with the same registry text.
  const auto diagnostic =
      registry().validateOracle("ct-coordinator", "", fd::OracleKnobs{});
  ASSERT_TRUE(diagnostic.has_value());
  EXPECT_NE(diagnostic->find("consumes a failure-detector oracle"),
            std::string::npos)
      << *diagnostic;
  Composition composition;
  composition.detector = "benor-vac";
  composition.driver = "ct-coordinator";
  EXPECT_EQ(throwText([&] { compose::resolve(composition); }), *diagnostic);
  EXPECT_EQ(
      throwText([] { compose::parseSpec("benor-vac+ct-coordinator"); }),
      *diagnostic);
  EXPECT_EQ(throwText([&] {
              compose::parseComposition(compose::serialize(composition));
            }),
            *diagnostic);
}

TEST(ComposeOracle, TooWeakAnOracleCitesTheClassGap) {
  // p-coordinator demands P; ◇S only promises eventual accuracy.
  const auto diagnostic =
      registry().validateOracle("p-coordinator", "diamond-s",
                                fd::OracleKnobs{});
  ASSERT_TRUE(diagnostic.has_value());
  EXPECT_NE(diagnostic->find("perfect"), std::string::npos) << *diagnostic;
  Composition composition;
  composition.detector = "benor-vac";
  composition.driver = "p-coordinator";
  composition.oracle = "diamond-s";
  EXPECT_EQ(throwText([&] { compose::resolve(composition); }), *diagnostic);
}

TEST(ComposeOracle, NoisyPerfectOracleIsIncoherent) {
  // Strong accuracy forbids false suspicion: perfect-p with noise (or an
  // accuracy stabilization delay) is a contradiction in terms.
  fd::OracleKnobs noisy;
  noisy.noise = 0.25;
  const auto diagnostic =
      registry().validateOracle("p-coordinator", "perfect-p", noisy);
  ASSERT_TRUE(diagnostic.has_value());
  EXPECT_NE(diagnostic->find("strong accuracy"), std::string::npos)
      << *diagnostic;
  Composition composition;
  composition.detector = "benor-vac";
  composition.driver = "p-coordinator";
  composition.oracle = "perfect-p";
  composition.oracleKnobs.noise = 0.25;
  EXPECT_EQ(throwText([&] { compose::resolve(composition); }), *diagnostic);
}

TEST(ComposeOracle, OracleOnAnOracleFreeDriverIsRejected) {
  const auto diagnostic =
      registry().validateOracle("timer", "omega", fd::OracleKnobs{});
  ASSERT_TRUE(diagnostic.has_value());
  Composition composition;
  composition.detector = "benor-vac";
  composition.driver = "timer";
  composition.oracle = "omega";
  EXPECT_EQ(throwText([&] { compose::resolve(composition); }), *diagnostic);
}

TEST(ComposeOracle, SerializationRoundTripsTheOracleAndItsKnobs) {
  Composition original = sampleComposition();
  original.driver = "ct-coordinator";
  original.oracle = "omega";
  original.oracleKnobs.completenessLag = 6;
  original.oracleKnobs.stabilizeAt = 90;
  original.oracleKnobs.noise = 0.375;
  original.oracleKnobs.noiseEpoch = 12;

  const std::string text = compose::serialize(original);
  const Composition parsed = compose::parseComposition(text);
  EXPECT_EQ(compose::serialize(parsed), text);
  EXPECT_EQ(parsed.oracle, "omega");
  EXPECT_EQ(parsed.oracleKnobs.completenessLag, Tick{6});
  EXPECT_EQ(parsed.oracleKnobs.stabilizeAt, Tick{90});
  EXPECT_EQ(parsed.oracleKnobs.noise, 0.375);
  EXPECT_EQ(parsed.oracleKnobs.noiseEpoch, Tick{12});
}

TEST(ComposeOracle, OracleFreeCompositionsSerializeWithoutOracleKeys) {
  // Satellite guarantee: the oracle role is zero-cost for existing
  // pairings — their wire forms gain no keys, so pre-PR-6 files and
  // goldens stay byte-identical.
  const Composition original = sampleComposition();
  EXPECT_EQ(compose::serialize(original).find("oracle"), std::string::npos);
}

TEST(ComposeOracle, E22MatrixReportsRejectedCellsWithDiagnostics) {
  compose::OracleMatrixOptions options;
  options.runsPerCell = 1;  // quick=false: quick mode would force 3
  const auto report = compose::runOracleMatrix(options);
  EXPECT_TRUE(report.safetyOk);
  EXPECT_GT(report.validCells, 0u);
  EXPECT_GT(report.rejectedCells, 0u);
  EXPECT_EQ(report.validCells + report.rejectedCells, report.cells.size());

  bool sawMissingOracle = false, sawWeakOracle = false, sawNoisyPerfect = false;
  for (const auto& cell : report.cells) {
    if (cell.valid) {
      EXPECT_TRUE(cell.diagnostic.empty());
      EXPECT_EQ(cell.runs, 1);
      EXPECT_TRUE(cell.fdAxiomsOk) << cell.driver << "+" << cell.oracle;
      EXPECT_TRUE(cell.agreementOk && cell.validityOk && cell.auditsOk);
    } else {
      EXPECT_FALSE(cell.diagnostic.empty()) << cell.driver << "+" << cell.oracle;
      EXPECT_EQ(cell.runs, 0);
      if (cell.oracle.empty()) sawMissingOracle = true;
      if (cell.driver == "p-coordinator" && cell.oracle == "diamond-s")
        sawWeakOracle = true;
      if (cell.oracle == "perfect-p" && cell.noise > 0) sawNoisyPerfect = true;
    }
  }
  EXPECT_TRUE(sawMissingOracle);
  EXPECT_TRUE(sawWeakOracle);
  EXPECT_TRUE(sawNoisyPerfect);

  // The JSON form carries the rejected cells too, diagnostic included.
  const std::string json = compose::oracleMatrixToJson(report, options);
  EXPECT_NE(json.find("\"schema\":\"ooc.fd-matrix.v1\""), std::string::npos);
  EXPECT_NE(json.find("\"valid\":false"), std::string::npos);
  EXPECT_NE(json.find("\"diagnostic\""), std::string::npos);
  EXPECT_NE(json.find("\"fd_axioms_ok\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Monolithic baselines: the same spec value, the classic implementation

TEST(ComposeMonolithic, RunsTheClassicPairingsAndRejectsTheRest) {
  Composition benOr;
  benOr.n = 5;
  benOr.inputs = {0, 1, 0, 1, 1};
  benOr.seed = 33;
  const CompositionResult classicBenOr = harness::runMonolithic(benOr);
  EXPECT_TRUE(classicBenOr.allDecided);
  EXPECT_FALSE(classicBenOr.agreementViolated);
  EXPECT_GE(classicBenOr.maxDecisionRound, 1u);

  Composition phaseKing;
  phaseKing.detector = "phaseking-ac";
  phaseKing.driver = "king-conciliator";
  phaseKing.n = 7;
  phaseKing.byzantineCount = 2;
  const CompositionResult classicKing = harness::runMonolithic(phaseKing);
  EXPECT_TRUE(classicKing.allDecided);
  EXPECT_FALSE(classicKing.agreementViolated);
  EXPECT_EQ(classicKing.maxDecisionRound, 3u);  // t + 1 phases

  // No classic form: the diagnostic names the pairing.
  for (const auto& [detector, driver] :
       {std::pair<const char*, const char*>{"benor-vac", "timer"},
        {"phasequeen-ac", "queen-conciliator"}}) {
    Composition other;
    other.detector = detector;
    other.driver = driver;
    const std::string pairing = std::string(detector) + "+" + driver;
    try {
      harness::runMonolithic(other);
      ADD_FAILURE() << pairing << " ran without a classic form";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(pairing), std::string::npos)
          << error.what();
    }
  }
}

TEST(ComposeMonolithic, RejectsKnobsTheClassicCodeHasNoPlaceFor) {
  Composition planted;
  planted.fault = compose::PlantedFault::kVacAdoptFlip;
  Composition eventDriven;
  eventDriven.scheduler = SchedulingPolicy::kEventDriven;
  Composition earlyCommit;
  earlyCommit.detector = "phaseking-ac";
  earlyCommit.driver = "king-conciliator";
  earlyCommit.n = 7;
  earlyCommit.byzantineCount = 2;
  earlyCommit.earlyCommitDecision = true;
  for (const Composition& composition : {planted, eventDriven, earlyCommit}) {
    const std::string pairing = composition.detector + "+" + composition.driver;
    try {
      harness::runMonolithic(composition);
      ADD_FAILURE() << pairing << " ran a knob the classic code lacks";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find(pairing), std::string::npos)
          << error.what();
    }
  }
}

TEST(ComposeMonolithic, UnanimousInputsDecideThatInputLikeTheComposition) {
  Composition benOr;
  benOr.inputs = {1};
  benOr.seed = 5;
  Composition phaseKing;
  phaseKing.detector = "phaseking-ac";
  phaseKing.driver = "king-conciliator";
  phaseKing.n = 7;
  phaseKing.byzantineCount = 2;
  phaseKing.inputs = {1};
  for (const Composition& composition : {benOr, phaseKing}) {
    const CompositionResult classic = harness::runMonolithic(composition);
    const CompositionResult composed = compose::runComposition(composition);
    for (const CompositionResult& result : {classic, composed}) {
      EXPECT_TRUE(result.allDecided) << composition.detector;
      EXPECT_FALSE(result.validityViolated) << composition.detector;
      EXPECT_EQ(result.decidedValue, 1) << composition.detector;
    }
  }
}

TEST(ComposeMonolithic, IsDeterministicInSpecAndSeed) {
  Composition phaseKing;
  phaseKing.detector = "phaseking-ac";
  phaseKing.driver = "king-conciliator";
  phaseKing.n = 7;
  phaseKing.byzantineCount = 2;
  phaseKing.byzantineStrategy = "random";
  phaseKing.seed = 9;
  Composition benOr;
  benOr.n = 7;
  benOr.seed = 9;
  for (const Composition& composition : {benOr, phaseKing}) {
    const CompositionResult first = harness::runMonolithic(composition);
    const CompositionResult second = harness::runMonolithic(composition);
    EXPECT_EQ(first.allDecided, second.allDecided);
    EXPECT_EQ(first.decidedValue, second.decidedValue);
    EXPECT_EQ(first.maxDecisionRound, second.maxDecisionRound);
    EXPECT_EQ(first.lastDecisionTick, second.lastDecisionTick);
    EXPECT_EQ(first.messagesByCorrect, second.messagesByCorrect);
    EXPECT_EQ(first.eventsProcessed, second.eventsProcessed);
  }
}

TEST(ComposeMonolithic, HonoursTheSpecsCrashSchedule) {
  // Classic Ben-Or waits for n - t messages a phase: t = 2 crashes on
  // n = 5 leave it live, a third leaves the survivors waiting for good.
  Composition tolerable;
  tolerable.seed = 4;
  tolerable.crashes = {{0, 0}, {3, 0}};
  const CompositionResult live = harness::runMonolithic(tolerable);
  EXPECT_TRUE(live.allDecided);
  EXPECT_FALSE(live.agreementViolated);

  Composition tooMany = tolerable;
  tooMany.crashes.push_back({4, 0});
  const CompositionResult stuck = harness::runMonolithic(tooMany);
  EXPECT_FALSE(stuck.allDecided);
  EXPECT_EQ(stuck.maxDecisionRound, 0u);
}

// ---------------------------------------------------------------------------
// The key=value reader: numeric getters and entry fields read whole

void expectMalformed(
    const std::string& key, const std::string& value,
    const std::function<void(const compose::KvReader&)>& read) {
  const compose::KvReader kv(key + "=" + value + "\n");
  try {
    read(kv);
    ADD_FAILURE() << "accepted " << key << "=" << value;
  } catch (const std::runtime_error& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(key), std::string::npos) << what;
    EXPECT_NE(what.find("'" + value + "'"), std::string::npos) << what;
  }
}

TEST(ComposeKv, GetU64ReadsAnUnsignedDecimal) {
  const compose::KvReader kv("n=0\nseed=18446744073709551615\n");
  EXPECT_EQ(kv.getU64("n", 9), 0u);
  EXPECT_EQ(kv.getU64("seed", 9), std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(kv.getU64("max-rounds", 9), 9u);
}

TEST(ComposeKv, GetU64RejectsSignsJunkAndOverflow) {
  for (const std::string value :
       {"5x", "-1", "+5", "abc", " 5", "5 ", "", "0x10",
        "18446744073709551616", "05", "007", "00"})
    expectMalformed("n", value,
                    [](const compose::KvReader& kv) { kv.getU64("n", 0); });
}

TEST(ComposeKv, GetDoubleReadsTheWholeField) {
  const compose::KvReader kv("bias=0.25\nprob=1e-3\n");
  EXPECT_EQ(kv.getDouble("bias", 0.5), 0.25);
  EXPECT_EQ(kv.getDouble("prob", 0.5), 1e-3);
  EXPECT_EQ(kv.getDouble("missing", 0.5), 0.5);
  for (const std::string value : {"0.5abc", "abc", "", "0.5 ", "0,5"})
    expectMalformed("bias", value, [](const compose::KvReader& kv) {
      kv.getDouble("bias", 0.5);
    });
}

TEST(ComposeKv, GetValuesReadsSignedCommaSeparatedIntegers) {
  const compose::KvReader kv("inputs=-3,4,0\nempty=\n");
  EXPECT_EQ(kv.getValues("inputs"), (std::vector<Value>{-3, 4, 0}));
  EXPECT_TRUE(kv.getValues("empty").empty());
  EXPECT_TRUE(kv.getValues("missing").empty());
  // Only the writer's spelling is read: from_chars alone would also take
  // "-0" and leading zeros, which re-serialize differently.
  for (const std::string value :
       {"0,1x,0", "0,,1", "0,1,", ",0", "1.5", "0, 1", "-0,1", "007",
        "0,05", "-01", "-"})
    expectMalformed("inputs", value, [](const compose::KvReader& kv) {
      kv.getValues("inputs");
    });
}

TEST(ComposeKv, CrashEntriesReadWholeFields) {
  EXPECT_EQ(compose::parseEntryU64("250"), std::optional<std::uint64_t>(250));
  EXPECT_EQ(compose::parseEntryU64("0"), std::optional<std::uint64_t>(0));
  for (const std::string field :
       {"", "0x", "+1", "-1", "25 0", "007", "00", "-0"})
    EXPECT_FALSE(compose::parseEntryU64(field).has_value()) << field;

  const std::pair<ProcessId, Tick> crash{3, 40};
  EXPECT_EQ(compose::parseCrash(compose::crashEntry(crash)), crash);
  for (const std::string entry :
       {"3@40x", "3x@40", "3", "@40", "3@", "4294967296@1", "03@40",
        "3@040"})
    EXPECT_NE(throwText([&] { compose::parseCrash(entry); })
                  .find("'" + entry + "'"),
              std::string::npos)
        << entry;
}

// ---------------------------------------------------------------------------
// Open registration (extensions can add objects at startup)

TEST(ComposeRegistry, OpenRegistrationComposesWithBuiltins) {
  auto& reg = registry();
  if (!reg.hasDriver("test-always-one")) {
    compose::DriverEntry driver;
    driver.name = "test-always-one";
    driver.capability = {compose::DriverClass::kReconciliator,
                         compose::InvocationMode::kAny,
                         /*toleratesByzantine=*/true,
                         /*requiresEveryProcess=*/false};
    driver.make = [](const compose::ObjectParams&) {
      return benor::KeepValueReconciliator::factory();
    };
    reg.registerDriver(std::move(driver));
  }
  ASSERT_TRUE(reg.hasDriver("test-always-one"));
  EXPECT_FALSE(reg.validatePairing("benor-vac", "test-always-one"));

  Composition composition;
  composition.driver = "test-always-one";
  composition.inputs = {1, 1, 1, 1, 1};  // unanimous: decides in round 1
  const auto result = compose::runComposition(composition);
  EXPECT_TRUE(result.allDecided);
  EXPECT_FALSE(result.agreementViolated);
}

}  // namespace
}  // namespace ooc
