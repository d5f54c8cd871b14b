// perfbench: the repository benchmark.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// Runs one workload (consensus-mix, svc-steady, svc-failover, check-sweep)
// built from --seed. With --trace 0 it sets the workload up several times
// (median reported as setup_s), then runs full passes over the workload's
// unit list in a closed loop for --seconds and reports the end-to-end
// metrics. With --trace 1 it measures the per-layer breakdown instead:
// untraced passes with the metrics registry off and on, one traced pass
// (spans around public calls, a simulator observer, registry counts), and
// the layer-specific extras each workload defines.
//
// Every output is checked. Operations that fail are counted in `failed`
// with a repro block on stdout; the exit code stays 0. Harness errors —
// nondeterminism between passes, a traced pass that diverges from the
// untraced one, a sweep whose findings depend on the thread count — exit
// nonzero without printing a result. The last stdout line is the result
// object: {"correct","attempted","failed","metrics"}.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "spans.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string traceOut;
};

constexpr int kSetupReps = 3;

struct HarnessError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

Args parseArgs(int argc, char** argv) {
  Args args;
  bool haveWorkload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) throw HarnessError("missing value for " + arg);
    const std::string value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      args.workload = value;
      haveWorkload = true;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (arg == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
    } else if (arg == "--trace") {
      if (value != "0" && value != "1")
        throw HarnessError("--trace takes 0 or 1");
      args.trace = value == "1";
    } else if (arg == "--trace-out") {
      args.traceOut = value;
    } else {
      throw HarnessError("unknown argument " + arg);
    }
    if (end != nullptr && *end != '\0')
      throw HarnessError("malformed value for " + arg + ": " + value);
  }
  if (!haveWorkload) throw HarnessError("--workload is required");
  if (!(args.seconds > 0.0)) throw HarnessError("--seconds must be positive");
  return args;
}

/// Every per-layer metric with its unit, in BENCHMARK.json order. Layers a
/// workload does not exercise report 0.
std::vector<std::pair<std::string, std::string>> layerCatalog() {
  std::vector<std::pair<std::string, std::string>> c = {
      {"sim.ns_per_event", "ns"},
      {"sim.events_per_op", "count"},
      {"sim.messages_per_op", "count"},
      {"sim.timers_armed_per_op", "count"},
      {"sim.timer_cancel_ratio", "ratio"},
      {"sim.messages_cloned", "count"},
      {"sim.stale_drops", "count"},
      {"sim.deliver_ns", "ns"},
      {"sim.timer_ns", "ns"},
      {"core.rounds_per_decision", "count"},
      {"core.driver_invocations_per_round", "ratio"},
      {"core.deferred_activations", "count"},
      {"core.max_round_skew", "count"},
      {"compose.resolve_us", "us"},
  };
  for (const char* pairing :
       {"benor-local-n5", "benor-common-n25-lockstep", "benor-common-n25-async",
        "phaseking-king-n25", "decentralized-timer-n5", "benor-ct-omega-n5",
        "benor-lottery-evented-n5"}) {
    c.push_back({std::string("compose.") + pairing + ".us_per_decision", "us"});
    c.push_back(
        {std::string("compose.") + pairing + ".events_per_decision", "count"});
  }
  for (const char* engine : {"raft", "paxos", "benor-lottery"}) {
    const std::string p = std::string("svc.") + engine + ".";
    c.push_back({p + "msgs_per_commit", "count"});
    c.push_back({p + "msgs_per_commit_overload", "count"});
    c.push_back({p + "events_per_commit", "count"});
    c.push_back({p + "us_per_commit", "us"});
    c.push_back({p + "batch_mean", "count"});
    c.push_back({p + "noop_ratio", "ratio"});
    c.push_back({p + "dupes_suppressed", "count"});
    c.push_back({p + "capacity_cmds_per_ktick", "1/ktick"});
    c.push_back({p + "commit_p50_ticks", "ticks"});
    c.push_back({p + "commit_p99_ticks", "ticks"});
    c.push_back({p + "blackout_ticks", "ticks"});
  }
  for (const auto& extra : std::vector<std::pair<std::string, std::string>>{
           {"svc.capacity_cmds_per_ktick", "1/ktick"},
           {"svc.workload_init_us", "us"},
           {"store.durable_overhead_ratio", "ratio"},
           {"store.append_ns", "ns"},
           {"store.sync_ns", "ns"},
           {"store.recover_ns_per_record", "ns"},
           {"check.generate_us", "us"},
           {"check.run_us_per_config", "us"},
           {"check.invariants_us_per_config", "us"}})
    c.push_back(extra);
  for (const char* invariant :
       {"agreement", "validity", "coherence-audit", "raft-confidence",
        "no-vote-amnesia", "no-commit-regression", "fd-completeness",
        "fd-accuracy", "svc-prefix-agreement", "svc-exactly-once",
        "scheduler-coherence", "fd-convergence", "termination"})
    c.push_back({std::string("check.") + invariant + ".us", "us"});
  for (const auto& extra : std::vector<std::pair<std::string, std::string>>{
           {"sweep.busy_ratio", "ratio"},
           {"sweep.imbalance", "ratio"},
           {"sweep.steals", "count"},
           {"sweep.scaling_efficiency", "ratio"},
           {"obs.registry_overhead_ratio", "ratio"},
           {"obs.tracing_overhead_ratio", "ratio"}})
    c.push_back(extra);
  return c;
}

double peakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double secondsSince(std::int64_t startNs) {
  return static_cast<double>(nowNs() - startNs) / 1e9;
}

void printResult(const PassOutput& accounting,
                 const std::vector<std::pair<std::string, std::pair<double,
                                                std::string>>>& metrics) {
  ooc::obs::JsonWriter json;
  json.beginObject();
  json.key("correct").value(true);
  json.key("attempted").value(accounting.attempted);
  json.key("failed").value(accounting.failed);
  json.key("metrics").beginObject();
  for (const auto& [name, valueUnit] : metrics) {
    json.key(name).beginObject();
    json.key("value").value(valueUnit.first);
    json.key("unit").value(valueUnit.second);
    json.endObject();
  }
  json.endObject();
  json.endObject();
  std::printf("%s\n", json.str().c_str());
}

void printFailures(const std::string& workload, const PassOutput& out) {
  std::printf("%s: %llu of %llu operations failed\n", workload.c_str(),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const std::string& repro : out.failures)
    std::printf("--- failed operation repro\n%s\n--- end repro\n",
                repro.c_str());
}

std::vector<double> setUp(const Args& args, std::unique_ptr<Workload>& kept,
                          const Tracing& lastTracing) {
  std::vector<double> seconds;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    auto workload = makeWorkload(args.workload);
    const std::int64_t start = nowNs();
    workload->setup(args.seed,
                    rep + 1 == kSetupReps ? lastTracing : Tracing{});
    seconds.push_back(secondsSince(start));
    kept = std::move(workload);
  }
  return seconds;
}

/// The timed run: end-to-end metrics with tracing and the registry off.
int timedRun(const Args& args) {
  std::unique_ptr<Workload> workload;
  const std::vector<double> setupSeconds = setUp(args, workload, {});

  // Throughput is total operations over total timed seconds. On a shared
  // host, speed drifts between regimes lasting tens of seconds; the
  // whole-loop mean averages over them where a median of passes would
  // snap to whichever regime held most passes.
  std::vector<double> rates;
  double timedSeconds = 0;
  std::uint64_t timedOps = 0;
  PassOutput first;
  const std::int64_t loopStart = nowNs();
  do {
    const std::int64_t start = nowNs();
    PassOutput pass = workload->runPass({});
    const double seconds = secondsSince(start);
    timedSeconds += seconds;
    timedOps += pass.ops;
    rates.push_back(static_cast<double>(pass.ops) / seconds);
    if (rates.size() == 1) {
      first = std::move(pass);
    } else if (pass.digest != first.digest) {
      throw HarnessError("pass " + std::to_string(rates.size()) +
                         " produced different outputs than pass 1");
    }
  } while (secondsSince(loopStart) < args.seconds);
  if (const std::string error = workload->verify(first); !error.empty())
    throw HarnessError(error);
  if (first.opTicks.empty()) throw HarnessError("no operation completed");

  double tickTotal = 0;
  for (const double t : first.opTicks) tickTotal += t;
  const double meanTicks =
      tickTotal / static_cast<double>(first.opTicks.size());
  const double p90Ticks = percentile(first.opTicks, 0.90);
  const double opsPerSecond = static_cast<double>(timedOps) / timedSeconds;

  static const std::map<std::string, std::string> kOpName = {
      {"consensus-mix", "decisions_per_s"},
      {"svc-steady", "commits_per_s"},
      {"svc-failover", "commits_per_s"},
      {"check-sweep", "configs_per_s"}};
  std::printf("workload %s seed %llu: %zu passes, %llu ops per pass\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), rates.size(),
              static_cast<unsigned long long>(first.ops));
  std::printf("  %s %.6g 1/s\n", kOpName.at(args.workload).c_str(),
              opsPerSecond);
  std::printf("  per-pass rates:");
  for (const double rate : rates) std::printf(" %.6g", rate);
  std::printf("\n");
  LayerValues figures;
  workload->summary(figures);
  for (const auto& [name, value] : figures)
    std::printf("  %s %.6g\n", name.c_str(), value);
  std::printf("  op ticks: mean %.6g p50 %.6g p90 %.6g p99 %.6g over %zu ops\n",
              meanTicks, percentile(first.opTicks, 0.5), p90Ticks,
              percentile(first.opTicks, 0.99), first.opTicks.size());
  printFailures(args.workload, first);

  printResult(first, {{"setup_s", {median(setupSeconds), "s"}},
                      {"peak_rss_mb", {peakRssMb(), "MB"}},
                      {"ops_per_s", {opsPerSecond, "1/s"}},
                      {"op_mean_ticks", {meanTicks, "ticks"}},
                      {"op_p90_ticks", {p90Ticks, "ticks"}}});
  return 0;
}

/// The traced run: per-layer metrics.
int tracedRun(const Args& args) {
  SpanRecorder spans;
  SimProbe probe;
  std::unique_ptr<Workload> workload;
  setUp(args, workload, Tracing{&spans, nullptr});
  auto& registry = ooc::obs::metrics();

  // Untraced passes, registry on and off, alternated so drift hits both.
  // Registry-off goes last: the workloads' per-unit wall times come from
  // the most recent untraced pass.
  std::vector<double> off, on;
  PassOutput reference;
  std::string onSnapshot;
  const std::int64_t loopStart = nowNs();
  do {
    for (const bool enabled : {true, false}) {
      registry.reset();
      registry.enable(enabled);
      const std::int64_t start = nowNs();
      PassOutput pass = workload->runPass({});
      (enabled ? on : off).push_back(secondsSince(start));
      registry.enable(false);
      if (enabled) onSnapshot = registry.toJson();
      if (on.size() == 1 && enabled) {
        reference = std::move(pass);
      } else if (pass.digest != reference.digest) {
        throw HarnessError("untraced passes disagree (registry " +
                           std::string(enabled ? "on" : "off") + ")");
      }
    }
  } while (off.size() < 2 || secondsSince(loopStart) < args.seconds / 2);

  // The traced pass: spans, simulator observer, registry on.
  registry.reset();
  registry.enable(true);
  const std::int64_t start = nowNs();
  const PassOutput traced = workload->runPass(Tracing{&spans, &probe});
  const double tracedSeconds = secondsSince(start);
  registry.enable(false);
  const std::string tracedSnapshot = registry.toJson();
  if (traced.digest != reference.digest)
    throw HarnessError("the traced pass diverged from the untraced passes");
  if (probe.desyncs() != 0)
    throw HarnessError("simulator observer lost sync with the event stream");
  if (reference.events != 0 && probe.events() != reference.events)
    throw HarnessError("observer counted " + std::to_string(probe.events()) +
                       " events, the runs reported " +
                       std::to_string(reference.events));
  RegistryTotals counts = parseRegistry(tracedSnapshot);
  {
    // The sweep driver adds its own configs counter, which the traced
    // (serial, hand-driven) check pass does not go through.
    RegistryTotals untraced = parseRegistry(onSnapshot);
    untraced.counters.erase("check_sweep_configs");
    if (untraced.counters != counts.counters ||
        untraced.histograms != counts.histograms)
      throw HarnessError("registry counts differ between traced and "
                         "untraced passes");
  }

  LayerValues values;
  const double ops = static_cast<double>(reference.ops);
  const double events = static_cast<double>(probe.events());
  using Kind = ooc::TraceEvent::Kind;
  const double timerEvents = static_cast<double>(probe.count(Kind::kTimer));
  values["sim.events_per_op"] = events / ops;
  values["sim.messages_per_op"] =
      static_cast<double>(probe.count(Kind::kDeliver)) / ops;
  values["sim.timers_armed_per_op"] = timerEvents / ops;
  values["sim.timer_cancel_ratio"] =
      timerEvents == 0
          ? 0.0
          : static_cast<double>(probe.cancelledTimers()) / timerEvents;
  values["sim.messages_cloned"] = counts.counter("messages_cloned");
  values["sim.stale_drops"] = static_cast<double>(probe.staleDeliveries());
  values["sim.deliver_ns"] = probe.meanIntervalNs(Kind::kDeliver);
  values["sim.timer_ns"] = probe.meanIntervalNs(Kind::kTimer);
  const double decisions = counts.histogramCount("rounds_to_decide");
  values["core.rounds_per_decision"] =
      decisions == 0 ? 0.0 : counts.histogramSum("rounds_to_decide") / decisions;
  const double rounds = counts.counter("confidence_transitions");
  values["core.driver_invocations_per_round"] =
      rounds == 0 ? 0.0 : counts.counter("driver_invocations") / rounds;
  if (const std::string error =
          workload->layerMetrics(values, spans, args.seconds / 4);
      !error.empty())
    throw HarnessError(error);
  // The traced pass runs on one thread; compare it with a single-thread
  // untraced pass scaled by the registry's own overhead.
  const double registryOverhead = median(on) / median(off);
  const double serialSeconds = workload->serialPassSeconds(median(off));
  values["obs.registry_overhead_ratio"] = registryOverhead;
  values["obs.tracing_overhead_ratio"] =
      tracedSeconds / (serialSeconds * registryOverhead);
  values["sim.ns_per_event"] = serialSeconds * 1e9 / events;

  if (!args.traceOut.empty()) {
    std::ofstream file(args.traceOut, std::ios::binary);
    if (!file) throw HarnessError("cannot write " + args.traceOut);
    file << spans.toPerfettoJson() << '\n';
  }

  const auto catalog = layerCatalog();
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;
  for (const auto& [name, unit] : catalog) {
    const auto it = values.find(name);
    metrics.push_back({name, {it == values.end() ? 0.0 : it->second, unit}});
    if (it != values.end()) values.erase(it);
  }
  if (!values.empty())
    throw HarnessError("metric '" + values.begin()->first +
                       "' is missing from the per-layer catalog");
  std::printf("workload %s seed %llu: traced pass %.3fs, %zu spans\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), tracedSeconds,
              spans.size());
  printResult(reference, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parseArgs(argc, argv);
    makeWorkload(args.workload);  // rejects unknown names up front
    return args.trace ? tracedRun(args) : timedRun(args);
  } catch (const HarnessError& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: harness error: %s\n", error.what());
    return 3;
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 2;
  }
}
