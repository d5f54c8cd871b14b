// The benchmark's four workloads. Each one turns --seed into a fixed list
// of units (single-shot instances, service runs, or a checker sweep), runs
// the whole list per pass in a closed loop, checks every output, and
// reports what it observed through the structures below.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "spans.hpp"

namespace perfbench {

/// What one pass over a workload's unit list produced. Everything except
/// the wall-clock fields is a pure function of the seed; `digest`
/// fingerprints it so repeated, traced and re-threaded passes can be
/// compared for identity.
struct PassOutput {
  /// Operations completed: decisions (consensus-mix), committed client
  /// commands (svc-*), explored configurations (check-sweep).
  std::uint64_t ops = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// One repro block per failing unit: seed plus serialized config.
  std::vector<std::string> failures;
  /// Simulated ticks per operation (decide time, arrival-to-commit
  /// latency, or a checked configuration's run length).
  std::vector<double> opTicks;
  std::uint64_t digest = 0;
  /// Scheduler events executed, where the layer reports them (0 when not).
  std::uint64_t events = 0;
};

/// Instrumentation attached to a traced pass (or a traced setup).
struct Tracing {
  SpanRecorder* spans = nullptr;
  SimProbe* probe = nullptr;
};

/// Per-layer metric values by name; absent names read as 0.
using LayerValues = std::map<std::string, double>;

class Workload {
 public:
  Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;
  virtual ~Workload() = default;

  /// Builds the unit list from `seed` and warms the caches the timed
  /// passes rely on (registry catalog, thread-local run arenas, and for
  /// check-sweep the worker pool).
  virtual void setup(std::uint64_t seed, const Tracing& tracing) = 0;

  /// Runs every unit once. `tracing` (nullable members) attaches spans and
  /// the simulator probe. Checks each output and accounts failures.
  virtual PassOutput runPass(const Tracing& tracing) = 0;

  /// Extra deterministic work done once after the timed passes: fills
  /// `first.opTicks` where the timed pass cannot observe ticks, and checks
  /// any cross-configuration identity the workload promises. Returns an
  /// empty string on success, otherwise the harness-error diagnostic.
  virtual std::string verify(PassOutput& first) {
    (void)first;
    return {};
  }

  /// Wall seconds one pass costs on a single thread; the timed pass time
  /// unless the workload runs its passes in parallel.
  virtual double serialPassSeconds(double passSeconds) {
    return passSeconds;
  }

  /// Per-layer figures of the last untraced pass, printed by the timed run
  /// as a human-readable report (the traced run reports them as metrics).
  virtual void summary(LayerValues& out) const { (void)out; }

  /// Workload-specific per-layer metrics for the traced run, computed from
  /// the last untraced pass (wall clock), the traced pass's spans, and any
  /// extra measurements the layer needs. `budgetSeconds` bounds extra work.
  virtual std::string layerMetrics(LayerValues& out,
                                   const SpanRecorder& spans,
                                   double budgetSeconds) = 0;
};

/// Names of the workloads, in BENCHMARK.json order.
const std::vector<std::string>& workloadNames();
/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> makeWorkload(const std::string& name);

/// Mixes a seed with a stream index (splitmix64 finalizer).
std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream);

/// Nearest-rank percentile of `values` (sorted copy), q in [0, 1].
double percentile(std::vector<double> values, double q);
double median(std::vector<double> values);

/// FNV-1a accumulation over 64-bit words.
struct Digest {
  std::uint64_t value = 1469598103934665603ull;
  void add(std::uint64_t word);
  void add(const std::string& text);
};

}  // namespace perfbench
