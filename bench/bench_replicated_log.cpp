// E16 — state-machine replication from template instances (extension).
//
// Every log decree is one run of the generic template (Ben-Or VAC + lottery
// reconciliator), hosted by the svc service with window = 1 and
// batchMax = 1: one command per decree, decided strictly in order. Each
// node's clients submit their commands at the start of the run (open loop,
// one arrival per tick). Reported: decrees needed vs commands committed
// (no-op overhead), ticks per committed command, and scaling in n — the
// shape to compare against Raft's purpose-built log (bench_raft): generic
// objects cost more rounds per decree but need no leader, no terms and no
// log-repair machinery.
#include <vector>

#include "bench/bench_common.hpp"
#include "svc/run.hpp"

using namespace ooc;
using namespace ooc::bench;

namespace {

svc::SvcConfig logConfig(std::size_t n, std::uint64_t commandsPerNode,
                         std::uint64_t seed) {
  svc::SvcConfig config;
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
  config.maxTicks = 5'000'000;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  Bench bench(argc, argv, "replicated_log");
  const int kRuns = bench.trials(15);

  bench.banner("E16: replicated log from template instances (Ben-Or VAC + "
         "lottery, svc window=1 batch=1, one command per decree)",
         "All logs identical, every command committed exactly once; "
         "'decree overhead' counts no-op decrees won by drained proposers.");
  Table table({"n", "cmds total", "mean decrees", "decree overhead %",
               "ticks/cmd", "msgs/cmd", "all consistent"});
  struct Case {
    std::size_t n, commandsPerNode;
  };
  for (const Case c : {Case{3, 4}, Case{5, 4}, Case{5, 10}, Case{9, 4}}) {
    const auto results = runTrialsParallel(kRuns, [&c](int run) {
      return svc::runSvc(logConfig(c.n, c.commandsPerNode,
                                   250'000 + static_cast<std::uint64_t>(run)));
    });
    Summary decrees, ticksPer, messagesPer;
    bool consistent = true;
    const std::size_t commands = c.n * c.commandsPerNode;
    const double total = static_cast<double>(commands);
    for (const svc::SvcResult& outcome : results) {
      const bool complete = outcome.allApplied && !outcome.hitCap &&
                            outcome.commandsCommitted == commands;
      const bool agreed = outcome.prefixOk && outcome.exactlyOnce;
      bench.require(complete, "log completeness");
      bench.require(agreed, "log consistency");
      consistent = consistent && agreed;
      decrees.add(static_cast<double>(outcome.decreesCommitted));
      ticksPer.add(static_cast<double>(outcome.lastCommitTick) / total);
      messagesPer.add(static_cast<double>(outcome.messagesByCorrect) / total);
    }
    table.addRow({Table::cell(std::uint64_t{c.n}), Table::cell(total, 0),
                  Table::cell(decrees.mean(), 1),
                  Table::cell(100.0 * (decrees.mean() - total) /
                                  decrees.mean(),
                              1),
                  Table::cell(ticksPer.mean(), 1),
                  Table::cell(messagesPer.mean(), 0),
                  consistent ? "yes" : "NO"});
  }
  bench.emit(table);
  std::printf("comparison point: bench_raft's purpose-built log commits a "
              "command in ~1 round trip once a leader exists; the generic "
              "object log pays per-decree consensus instead of electing — no "
              "leader, no terms, no repair machinery.\n");
  return bench.finish();
}
