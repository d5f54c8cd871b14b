// Total-order broadcast from first principles: every log decree is one run
// of the paper's consensus template. Four branch offices submit ledger
// transactions concurrently; all replicas end with the identical, totally
// ordered ledger — no leader, no terms, just detector + reconciliator
// objects per decree, hosted by the svc replicated-log node.
//
//   $ ./total_order [seed]
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <vector>

#include "sim/simulator.hpp"
#include "svc/run.hpp"
#include "svc/service.hpp"

int main(int argc, char** argv) {
  using namespace ooc;

  const std::uint64_t seed =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 3;
  constexpr std::size_t kBranches = 4;
  constexpr std::uint64_t kTransfersPerBranch = 3;

  SimConfig simConfig;
  simConfig.seed = seed;
  simConfig.maxTicks = 2'000'000;
  UniformDelayNetwork::Options net;
  net.minDelay = 1;
  net.maxDelay = 8;
  Simulator sim(simConfig, std::make_unique<UniformDelayNetwork>(net));

  // One consensus instance per decree: Ben-Or's VAC detector and the
  // lottery reconciliator, the same per-decree engine the service runner
  // builds for engine=compose (whose lottery seed mixes in the decree).
  svc::SvcConfig config;
  config.detector = "benor-vac";
  config.driver = "lottery";
  config.n = kBranches;
  config.seed = seed;
  const svc::EngineFactory engine = svc::composeEngineFactory(config);
  // Each branch's tellers submit their transfers at the start of the run.
  svc::WorkloadOptions workload;
  workload.commandsPerNode = kTransfersPerBranch;
  workload.closedLoop = false;
  workload.arrivalsPerTick = 1.0;

  std::vector<svc::SvcNode*> branches;
  for (ProcessId id = 0; id < kBranches; ++id) {
    auto node = std::make_unique<svc::SvcNode>(engine, workload, kBranches,
                                               seed, svc::SvcNodeOptions{});
    branches.push_back(node.get());
    sim.addProcess(std::move(node));
  }
  // No stop predicate: once every transfer is ordered the branches stop
  // opening decrees and the run quiesces.
  sim.run();

  std::printf("ledger after %llu ticks (%llu messages):\n\n",
              static_cast<unsigned long long>(sim.now()),
              static_cast<unsigned long long>(sim.messagesSent()));
  const auto& ledger = branches[0]->applied();
  for (std::size_t i = 0; i < ledger.size(); ++i) {
    std::printf("  #%02zu transfer %u from branch %u\n", i + 1,
                static_cast<unsigned>(ledger[i] & 0xffffffff),
                svc::commandNode(ledger[i]));
  }

  bool identical = true;
  for (const auto* branch : branches)
    identical = identical && branch->applied() == ledger &&
                branch->decreeLog() == branches[0]->decreeLog();
  const std::size_t decrees = branches[0]->decreeLog().size();
  std::printf("\n%zu transfers in %zu decrees (%llu no-op decrees); all %zu "
              "replica ledgers identical: %s\n",
              ledger.size(), decrees,
              static_cast<unsigned long long>(branches[0]->noopDecrees()),
              kBranches, identical ? "yes" : "NO");
  return identical && !sim.hitCap() &&
                 ledger.size() == kBranches * kTransfersPerBranch
             ? 0
             : 1;
}
