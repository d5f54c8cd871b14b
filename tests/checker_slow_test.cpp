// Large-scale model-checking sweeps. Labeled `slow` in ctest and skipped
// unless OOC_RUN_SLOW=1, so tier-1 runs stay fast; CI's scheduled job and
// scripts/check.sh cover this ground. OOC_CHECK_SEEDS overrides the sweep
// size (default 10000 random-walk configurations per family).
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "check/checker.hpp"
#include "check/invariant.hpp"
#include "check/scenario.hpp"
#include "check/strategy.hpp"

namespace ooc::check {
namespace {

std::size_t sweepSize() {
  if (const char* env = std::getenv("OOC_CHECK_SEEDS"))
    return static_cast<std::size_t>(std::stoull(env));
  return 10000;
}

#define OOC_REQUIRE_SLOW()                                       \
  do {                                                           \
    if (std::getenv("OOC_RUN_SLOW") == nullptr)                  \
      GTEST_SKIP() << "set OOC_RUN_SLOW=1 to run big sweeps";    \
  } while (0)

/// Ben-Or (benor-vac+local-coin) on n = 5 with split inputs.
Scenario benOrBase() {
  Scenario scenario;
  scenario.compose.inputs = {0, 1, 0, 1, 0};
  return scenario;
}

/// Phase-King: n = 7 with f = 2 equivocators, short budgets.
Scenario phaseKingBase() {
  Scenario scenario;
  auto& config = scenario.compose;
  config.detector = "phaseking-ac";
  config.driver = "king-conciliator";
  config.n = 7;
  config.byzantineCount = 2;
  config.inputs = {0, 1};
  config.maxRounds = 300;
  config.maxTicks = 100000;
  return scenario;
}

Scenario raftBase() {
  Scenario scenario;
  scenario.family = Family::kRaft;
  return scenario;
}

void sweep(const Scenario& base) {
  RandomWalkStrategy::Options options;
  options.runs = sweepSize();
  const RandomWalkStrategy strategy(base, options);
  const auto suite = safetySuite();
  const CheckReport report = explore(strategy, view(suite), {});
  EXPECT_EQ(report.configsExplored, options.runs);
  EXPECT_TRUE(report.ok())
      << report.findings.front().violation.invariant << " at index "
      << report.findings.front().configIndex << ": "
      << report.findings.front().violation.detail;
}

TEST(SlowSweep, BenOrTenThousandSeedsClean) {
  OOC_REQUIRE_SLOW();
  sweep(benOrBase());
}

TEST(SlowSweep, PhaseKingTenThousandSeedsClean) {
  OOC_REQUIRE_SLOW();
  sweep(phaseKingBase());
}

TEST(SlowSweep, RaftTenThousandSeedsClean) {
  OOC_REQUIRE_SLOW();
  sweep(raftBase());
}

}  // namespace
}  // namespace ooc::check
