#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "check/checker.hpp"
#include "check/invariant.hpp"
#include "check/strategy.hpp"
#include "compose/composition.hpp"
#include "compose/run.hpp"
#include "obs/metrics.hpp"
#include "store/wal.hpp"
#include "svc/run.hpp"
#include "svc/workload.hpp"

namespace perfbench {

std::uint64_t mixSeed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

void Digest::add(std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    value ^= (word >> (8 * i)) & 0xFF;
    value *= 1099511628211ull;
  }
}

void Digest::add(const std::string& text) {
  for (const char c : text) {
    value ^= static_cast<unsigned char>(c);
    value *= 1099511628211ull;
  }
  add(text.size());
}

namespace {

using ooc::Tick;

double mean(double total, double count) {
  return count == 0.0 ? 0.0 : total / count;
}

double meanSpanUs(const std::map<std::string, SpanRecorder::Total>& totals,
                  const std::string& name) {
  const auto it = totals.find(name);
  if (it == totals.end() || it->second.count == 0) return 0.0;
  return static_cast<double>(it->second.totalNs) / 1000.0 /
         static_cast<double>(it->second.count);
}

// --- consensus-mix -----------------------------------------------------------

/// Single-shot consensus over a fixed mix of registry pairings. The unit
/// counts balance wall time across pairings (a Phase-King n=25 instance
/// costs ~40 n=5 instances), so no pairing dominates the pass.
class ConsensusMix final : public Workload {
 public:
  void setup(std::uint64_t seed, const Tracing& tracing) override {
    struct Pairing {
      const char* key;
      ooc::compose::Composition base;
      int count;
    };
    const auto make = [](const char* detector, const char* driver,
                         std::size_t n, Tick maxDelay) {
      ooc::compose::Composition c;
      c.detector = detector;
      c.driver = driver;
      c.n = n;
      c.minDelay = 1;
      c.maxDelay = maxDelay;
      return c;
    };
    std::vector<Pairing> pairings;
    pairings.push_back(
        {"benor-local-n5", make("benor-vac", "local-coin", 5, 10), 1500});
    // Unit delays make every exchange a synchronous wave (E19's lockstep
    // cell); the 1..10 twin is the asynchronous schedule of the same
    // pairing.
    pairings.push_back({"benor-common-n25-lockstep",
                        make("benor-vac", "common-coin", 25, 1), 300});
    pairings.push_back({"benor-common-n25-async",
                        make("benor-vac", "common-coin", 25, 10), 300});
    {
      auto c = make("phaseking-ac", "king-conciliator", 25, 1);
      c.byzantineCount = (25 - 1) / 3;  // t equivocators
      c.byzantineStrategy = "equivocate";
      pairings.push_back({"phaseking-king-n25", c, 100});
    }
    pairings.push_back({"decentralized-timer-n5",
                        make("decentralized-vac", "timer", 5, 10), 1500});
    {
      auto c = make("benor-vac", "ct-coordinator", 5, 10);
      c.oracle = "omega";
      c.oracleKnobs.completenessLag = 8;
      c.oracleKnobs.stabilizeAt = 40;
      c.oracleKnobs.noise = 0.25;
      pairings.push_back({"benor-ct-omega-n5", c, 1500});
    }
    {
      auto c = make("benor-vac", "lottery", 5, 10);
      c.scheduler = ooc::SchedulingPolicy::kEventDriven;
      pairings.push_back({"benor-lottery-evented-n5", c, 1500});
    }

    keys_.clear();
    units_.clear();
    for (const Pairing& p : pairings) {
      ScopedSpan span(tracing.spans, "compose::resolve", 0);
      ooc::compose::resolve(p.base);
      keys_.push_back(p.key);
    }
    // Round-robin interleave so every stretch of the pass mixes pairings.
    int longest = 0;
    for (const Pairing& p : pairings) longest = std::max(longest, p.count);
    for (int i = 0; i < longest; ++i) {
      for (std::size_t k = 0; k < pairings.size(); ++k) {
        if (i >= pairings[k].count) continue;
        Unit unit{k, pairings[k].base};
        unit.composition.seed = mixSeed(seed, units_.size());
        units_.push_back(std::move(unit));
      }
    }
    for (std::size_t k = 0; k < pairings.size(); ++k)
      ooc::compose::runComposition(units_[k].composition);
  }

  PassOutput runPass(const Tracing& tracing) override {
    PassOutput out;
    Digest digest;
    const bool timed = tracing.spans == nullptr && tracing.probe == nullptr;
    if (timed) unitNs_.assign(units_.size(), 0);
    unitEvents_.assign(units_.size(), 0);
    deferred_ = 0;
    maxSkew_ = 0;
    ooc::compose::RunHooks hooks;
    hooks.observer = tracing.probe;
    for (std::size_t i = 0; i < units_.size(); ++i) {
      const Unit& unit = units_[i];
      ScopedSpan opSpan(tracing.spans, "op", i);
      if (tracing.probe) tracing.probe->beginRun();
      const std::int64_t start = nowNs();
      ooc::compose::CompositionResult r;
      {
        ScopedSpan span(tracing.spans, "compose::runComposition", i);
        r = ooc::compose::runComposition(unit.composition, hooks);
      }
      if (timed) unitNs_[i] = nowNs() - start;
      if (tracing.probe) tracing.probe->endRun();

      const bool ok = r.allDecided && !r.agreementViolated &&
                      !r.validityViolated && r.allAuditsOk &&
                      (!r.oracleAudit || r.oracleAudit->ok());
      ++out.attempted;
      if (ok) {
        ++out.ops;
      } else {
        ++out.failed;
        out.failures.push_back(
            "workload=consensus-mix pairing=" + keys_[unit.pairing] +
            " seed=" + std::to_string(unit.composition.seed) + "\n" +
            ooc::compose::serialize(unit.composition));
      }
      out.opTicks.push_back(static_cast<double>(r.lastDecisionTick));
      out.events += r.eventsProcessed;
      unitEvents_[i] = r.eventsProcessed;
      deferred_ += r.deferredActivations;
      maxSkew_ = std::max<std::uint64_t>(maxSkew_, r.maxRoundSkew);
      for (const std::uint64_t word :
           {static_cast<std::uint64_t>(r.decidedValue),
            static_cast<std::uint64_t>(r.lastDecisionTick),
            r.eventsProcessed, r.messagesByCorrect,
            static_cast<std::uint64_t>(r.maxDecisionRound),
            r.deferredActivations, r.overlapWitnesses,
            static_cast<std::uint64_t>(r.maxRoundSkew), r.messagesCloned,
            static_cast<std::uint64_t>(ok)})
        digest.add(word);
    }
    out.digest = digest.value;
    return out;
  }

  std::string layerMetrics(LayerValues& out, const SpanRecorder& spans,
                           double) override {
    const auto totals = spans.totals();
    out["compose.resolve_us"] = meanSpanUs(totals, "compose::resolve");
    summary(out);
    return {};
  }

  void summary(LayerValues& out) const override {
    out["core.deferred_activations"] = static_cast<double>(deferred_);
    out["core.max_round_skew"] = static_cast<double>(maxSkew_);
    std::vector<double> ns(keys_.size(), 0.0), events(keys_.size(), 0.0),
        count(keys_.size(), 0.0);
    for (std::size_t i = 0; i < units_.size(); ++i) {
      const std::size_t k = units_[i].pairing;
      ns[k] += static_cast<double>(unitNs_[i]);
      events[k] += static_cast<double>(unitEvents_[i]);
      count[k] += 1.0;
    }
    for (std::size_t k = 0; k < keys_.size(); ++k) {
      out["compose." + keys_[k] + ".us_per_decision"] =
          mean(ns[k], count[k]) / 1000.0;
      out["compose." + keys_[k] + ".events_per_decision"] =
          mean(events[k], count[k]);
    }
  }

 private:
  struct Unit {
    std::size_t pairing = 0;
    ooc::compose::Composition composition;
  };
  std::vector<std::string> keys_;
  std::vector<Unit> units_;
  std::vector<std::int64_t> unitNs_;
  std::vector<std::uint64_t> unitEvents_;
  std::uint64_t deferred_ = 0;
  std::uint64_t maxSkew_ = 0;
};

// --- svc-steady / svc-failover -----------------------------------------------

struct Engine {
  const char* label;
  const char* engine;
};
constexpr Engine kEngines[] = {
    {"raft", "raft"}, {"paxos", "paxos"}, {"benor-lottery", "compose"}};
constexpr double kLatencyRate = 0.05;  // arrivals/tick/node, sustainable
constexpr double kOverloadRate = 0.2;  // past every engine's knee
constexpr Tick kCrashAt = 2000;        // mid-emission at the latency rate
constexpr Tick kDowntime = 150;
// Ten seeds per engine and rung keep the pooled tick percentiles within a
// few percent from one --seed to the next; Paxos's rare long stalls make
// fewer seeds swing the tail.
constexpr std::uint64_t kSeedsPerPass = 10;

ooc::svc::SvcConfig serviceConfig(const Engine& engine, std::uint64_t seed,
                                  double rate) {
  ooc::svc::SvcConfig c;
  c.engine = engine.engine;
  c.detector = "benor-vac";
  c.driver = "lottery";
  c.n = 5;
  c.seed = seed;
  c.minDelay = 1;
  c.maxDelay = 6;
  c.service.window = 4;
  c.service.batchMax = 4;
  c.service.durable = true;
  c.workload.clients = 100000;
  c.workload.commandsPerNode = 200;
  c.workload.closedLoop = false;
  c.workload.arrivalsPerTick = rate;
  c.workload.zipfTheta = 0.99;
  return c;
}

/// The replicated-log service under open-loop zipfian load. Steady cycles
/// every engine through the latency and overload rungs; failover runs the
/// latency rung with one coordinator crash-restart mid-emission (Raft's
/// leader at the crash tick, node 0 for the leaderless engines).
class Service final : public Workload {
 public:
  explicit Service(bool failover) : failover_(failover) {}

  void setup(std::uint64_t seed, const Tracing& tracing) override {
    {
      ooc::compose::Composition engine;
      engine.detector = "benor-vac";
      engine.driver = "lottery";
      ScopedSpan span(tracing.spans, "compose::resolve", 0);
      ooc::compose::resolve(engine);
    }
    units_.clear();
    for (std::uint64_t k = 0; k < kSeedsPerPass; ++k) {
      const std::uint64_t unitSeed = mixSeed(seed, k);
      for (std::size_t e = 0; e < std::size(kEngines); ++e) {
        for (const double rate : {kLatencyRate, kOverloadRate}) {
          if (failover_ && rate != kLatencyRate) continue;
          Unit unit{e, rate == kLatencyRate,
                    serviceConfig(kEngines[e], unitSeed, rate)};
          if (failover_) unit.config.restarts.push_back(victim(unit.config));
          ScopedSpan span(tracing.spans, "svc::validateEngine", 0);
          if (const auto rejected = ooc::svc::validateEngine(unit.config))
            throw std::runtime_error("perfbench: " + *rejected);
          units_.push_back(std::move(unit));
        }
      }
    }
    for (std::size_t e = 0; e < std::size(kEngines); ++e)
      ooc::svc::runSvc(units_[e * (failover_ ? 1 : 2)].config);
  }

  PassOutput runPass(const Tracing& tracing) override {
    PassOutput out;
    Digest digest;
    const bool timed = tracing.spans == nullptr && tracing.probe == nullptr;
    if (timed) unitNs_.assign(units_.size(), 0);
    results_.assign(units_.size(), {});
    ooc::compose::RunHooks hooks;
    hooks.observer = tracing.probe;
    for (std::size_t i = 0; i < units_.size(); ++i) {
      const Unit& unit = units_[i];
      ScopedSpan opSpan(tracing.spans, "op", i);
      if (tracing.probe) tracing.probe->beginRun();
      const std::int64_t start = nowNs();
      {
        ScopedSpan span(tracing.spans, "svc::runSvc", i);
        results_[i] = ooc::svc::runSvc(unit.config, hooks);
      }
      if (timed) unitNs_[i] = nowNs() - start;
      if (tracing.probe) tracing.probe->endRun();
      const ooc::svc::SvcResult& r = results_[i];

      // Every emitted command is an attempted operation. One that never
      // commits fails; a run that breaks prefix agreement or exactly-once
      // (or never terminates) fails every command it emitted.
      const bool auditsOk = r.prefixOk && r.exactlyOnce && !r.hitCap;
      const std::uint64_t committed =
          std::min(r.commandsCommitted, r.commandsEmitted);
      const std::uint64_t lost =
          auditsOk ? r.commandsEmitted - committed : r.commandsEmitted;
      out.attempted += r.commandsEmitted;
      out.failed += lost;
      out.ops += r.commandsCommitted;
      out.events += r.eventsProcessed;
      if (lost > 0) {
        std::string why = !r.prefixOk      ? "prefix-agreement"
                          : !r.exactlyOnce ? "exactly-once"
                          : r.hitCap       ? "hit-cap"
                                           : "uncommitted";
        out.failures.push_back(
            "workload=" + std::string(failover_ ? "svc-failover"
                                                : "svc-steady") +
            " engine=" + kEngines[unit.engine].label +
            " seed=" + std::to_string(unit.config.seed) + " failed=" +
            std::to_string(lost) + " reason=" + why + "\n" +
            ooc::svc::serializeSvcConfig(unit.config));
      }
      if (unit.latencyRung)
        for (const Tick t : r.latencies)
          out.opTicks.push_back(static_cast<double>(t));
      std::uint64_t latencySum = 0;
      for (const Tick t : r.latencies) latencySum += t;
      for (const std::uint64_t word :
           {r.commandsCommitted, r.commandsEmitted, r.decreesCommitted,
            r.noopDecrees, static_cast<std::uint64_t>(r.lastCommitTick),
            static_cast<std::uint64_t>(r.maxCommitGap), r.messagesByCorrect,
            r.eventsProcessed, r.duplicatesSuppressed, latencySum,
            static_cast<std::uint64_t>(r.latencies.size()),
            static_cast<std::uint64_t>(r.prefixOk),
            static_cast<std::uint64_t>(r.exactlyOnce),
            static_cast<std::uint64_t>(r.hitCap)})
        digest.add(word);
    }
    out.digest = digest.value;
    return out;
  }

  std::string layerMetrics(LayerValues& out, const SpanRecorder& spans,
                           double budgetSeconds) override {
    const auto totals = spans.totals();
    out["compose.resolve_us"] = meanSpanUs(totals, "compose::resolve");
    summary(out);

    // Client-workload construction (per-node zipf tables), timed directly.
    {
      const ooc::svc::SvcConfig& c = units_.front().config;
      std::vector<double> samples;
      for (int rep = 0; rep < 5; ++rep) {
        const std::int64_t start = nowNs();
        for (ooc::ProcessId node = 0; node < c.n; ++node) {
          ooc::svc::Workload w(c.workload, node, c.n, c.seed);
          if (w.cap() == 0) return "perfbench: empty svc workload";
        }
        samples.push_back(static_cast<double>(nowNs() - start) / 1000.0);
      }
      out["svc.workload_init_us"] = median(samples);
    }

    // store: the same configs with volatile journals, against the last
    // untraced (durable) pass.
    {
      double durable = 0;
      for (const std::int64_t ns : unitNs_) durable += static_cast<double>(ns);
      const std::int64_t start = nowNs();
      for (const Unit& unit : units_) {
        ooc::svc::SvcConfig c = unit.config;
        c.service.durable = false;
        ooc::svc::runSvc(c);
      }
      const double volatileNs = static_cast<double>(nowNs() - start);
      out["store.durable_overhead_ratio"] = mean(durable, volatileNs);
    }
    return walMicrobench(out, budgetSeconds);
  }

  void summary(LayerValues& out) const override {
    std::vector<double> capacities;
    for (std::size_t e = 0; e < std::size(kEngines); ++e) {
      double commits = 0, events = 0, ns = 0, noop = 0, decrees = 0,
             dupes = 0;
      double lowMsgs = 0, lowCommits = 0, highMsgs = 0, highCommits = 0;
      std::vector<double> latencies, batches, gaps, capacity;
      for (std::size_t i = 0; i < units_.size(); ++i) {
        if (units_[i].engine != e) continue;
        const ooc::svc::SvcResult& r = results_[i];
        commits += static_cast<double>(r.commandsCommitted);
        events += static_cast<double>(r.eventsProcessed);
        ns += static_cast<double>(unitNs_[i]);
        noop += static_cast<double>(r.noopDecrees);
        decrees += static_cast<double>(r.decreesCommitted);
        dupes += static_cast<double>(r.duplicatesSuppressed);
        for (const std::uint32_t b : r.batchSizes)
          batches.push_back(static_cast<double>(b));
        if (units_[i].latencyRung) {
          lowMsgs += static_cast<double>(r.messagesByCorrect);
          lowCommits += static_cast<double>(r.commandsCommitted);
          for (const Tick t : r.latencies)
            latencies.push_back(static_cast<double>(t));
          gaps.push_back(static_cast<double>(r.maxCommitGap));
        } else {
          highMsgs += static_cast<double>(r.messagesByCorrect);
          highCommits += static_cast<double>(r.commandsCommitted);
          capacity.push_back(r.commandsPerKtick);
        }
      }
      const std::string p = std::string("svc.") + kEngines[e].label + ".";
      out[p + "msgs_per_commit"] = mean(lowMsgs, lowCommits);
      out[p + "msgs_per_commit_overload"] = mean(highMsgs, highCommits);
      out[p + "events_per_commit"] = mean(events, commits);
      out[p + "us_per_commit"] = mean(ns, commits) / 1000.0;
      double batchTotal = 0;
      for (const double b : batches) batchTotal += b;
      out[p + "batch_mean"] =
          mean(batchTotal, static_cast<double>(batches.size()));
      out[p + "noop_ratio"] = mean(noop, decrees + noop);
      out[p + "dupes_suppressed"] = dupes;
      out[p + "commit_p50_ticks"] = percentile(latencies, 0.50);
      out[p + "commit_p99_ticks"] = percentile(latencies, 0.99);
      out[p + "blackout_ticks"] = median(gaps);
      if (!capacity.empty()) {
        double sum = 0;
        for (const double c : capacity) sum += c;
        out[p + "capacity_cmds_per_ktick"] = sum / capacity.size();
        capacities.push_back(sum / capacity.size());
      }
    }
    if (!capacities.empty()) {
      double sum = 0;
      for (const double c : capacities) sum += c;
      out["svc.capacity_cmds_per_ktick"] = sum / capacities.size();
    }
  }

 private:
  struct Unit {
    std::size_t engine = 0;
    bool latencyRung = true;
    ooc::svc::SvcConfig config;
  };

  /// The coordinator to crash: Raft's leader at the crash tick (found by
  /// running the same seed up to that tick), node 0 otherwise.
  static ooc::svc::RestartEvent victim(const ooc::svc::SvcConfig& config) {
    ooc::svc::RestartEvent restart;
    restart.id = 0;
    restart.at = kCrashAt;
    restart.downtime = kDowntime;
    if (config.engine == "raft") {
      ooc::svc::SvcConfig probe = config;
      probe.maxTicks = kCrashAt;
      const ooc::svc::SvcResult r = ooc::svc::runSvc(probe);
      if (!r.leaderEvents.empty()) restart.id = r.leaderEvents.back().second;
    }
    return restart;
  }

  /// Times store::WriteAheadLog on a record stream shaped like the svc
  /// journal: per batch of four commands, four command records, a batch
  /// record, a decree-open and a decree-commit record, each followed by the
  /// sync the service's persist-before-reply discipline issues.
  std::string walMicrobench(LayerValues& out, double budgetSeconds) {
    std::vector<std::vector<std::uint64_t>> stream;
    std::uint64_t command = 1;
    for (std::uint64_t decree = 1; stream.size() < 14000; ++decree) {
      std::vector<std::uint64_t> batch{2, (1ull << 62) | decree, 4};
      std::vector<std::uint64_t> commit{4, decree, (1ull << 62) | decree, 4};
      for (int c = 0; c < 4; ++c, ++command) {
        stream.push_back({1, command});
        batch.push_back(command);
        commit.push_back(command);
      }
      stream.push_back(batch);
      stream.push_back({3, decree, (1ull << 62) | decree});
      stream.push_back(commit);
    }
    const double records = static_cast<double>(stream.size());
    std::vector<double> append, sync, recover;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(budgetSeconds * 1e9);
    for (int rep = 0; rep < 15 && (rep < 3 || nowNs() < deadline); ++rep) {
      ooc::store::WriteAheadLog appendOnly;
      std::int64_t start = nowNs();
      for (const auto& record : stream) appendOnly.append(record);
      const std::int64_t appendNs = nowNs() - start;

      ooc::store::WriteAheadLog synced;
      start = nowNs();
      for (const auto& record : stream) {
        synced.append(record);
        synced.sync();
      }
      const std::int64_t syncedNs = nowNs() - start;

      ooc::store::RecoveryReport report;
      start = nowNs();
      const auto recovered = synced.recover(&report);
      const std::int64_t recoverNs = nowNs() - start;
      if (recovered.size() != stream.size() || recovered != stream)
        return "perfbench: WAL recovery returned a different record stream";

      append.push_back(static_cast<double>(appendNs) / records);
      sync.push_back(static_cast<double>(syncedNs - appendNs) / records);
      recover.push_back(static_cast<double>(recoverNs) / records);
    }
    out["store.append_ns"] = median(append);
    out["store.sync_ns"] = median(sync);
    out["store.recover_ns_per_record"] = median(recover);
    return {};
  }

  bool failover_;
  std::vector<Unit> units_;
  std::vector<std::int64_t> unitNs_;
  std::vector<ooc::svc::SvcResult> results_;
};

// --- check-sweep -------------------------------------------------------------

/// A strided slice of another strategy: `count` indices starting at
/// `offset`, `stride` apart (mod the base size).
class SliceStrategy final : public ooc::check::ExplorationStrategy {
 public:
  SliceStrategy(std::unique_ptr<ooc::check::ExplorationStrategy> base,
                std::size_t count, std::uint64_t seed)
      : base_(std::move(base)),
        count_(std::min(count, base_->size())),
        stride_(std::max<std::size_t>(
            1, base_->size() / std::max<std::size_t>(1, count_))),
        offset_(static_cast<std::size_t>(seed % stride_)) {}

  const char* name() const noexcept override { return base_->name(); }
  std::size_t size() const noexcept override { return count_; }
  ooc::check::Scenario generate(std::size_t index) const override {
    return base_->generate((offset_ + index * stride_) % base_->size());
  }

 private:
  std::unique_ptr<ooc::check::ExplorationStrategy> base_;
  std::size_t count_;
  std::size_t stride_;
  std::size_t offset_;
};

/// Records only the last simulated tick of a run.
class EndTick final : public ooc::ScheduleObserver {
 public:
  void onEvent(const ooc::TraceEvent& event) override {
    last = std::max(last, event.at);
  }
  Tick last = 0;
};

/// The model checker's safety suite over slices of the compose, fd, skew
/// and svc strategies on two sweep workers. The svc slice is sized to cost
/// about as much wall time as the ~6700 single-shot configs together.
class CheckSweep final : public Workload {
 public:
  static constexpr std::size_t kThreads = 2;

  void setup(std::uint64_t seed, const Tracing& tracing) override {
    using namespace ooc::check;
    suite_ = safetySuite();
    Scenario compose;
    compose.family = Family::kCompose;
    compose.compose.inputs = {0, 1, 0, 1, 0};
    Scenario fd = compose;
    fd.family = Family::kFd;
    fd.compose.driver = "ct-coordinator";
    fd.compose.oracle = "omega";
    fd.compose.oracleKnobs.completenessLag = 8;
    fd.compose.oracleKnobs.stabilizeAt = 40;
    fd.compose.oracleKnobs.noise = 0.25;
    for (const Scenario* base : {&compose, &fd}) {
      ScopedSpan span(tracing.spans, "compose::resolve", 0);
      ooc::compose::resolve(base->compose);
    }
    const std::uint64_t seedBase = 1 + seed % 1000003;

    std::vector<std::unique_ptr<ExplorationStrategy>> parts;
    RandomWalkStrategy::Options rw;
    rw.seedBase = seedBase;
    rw.runs = 6000;
    parts.push_back(std::make_unique<RandomWalkStrategy>(compose, rw));
    DelayBoundStrategy::Options db;
    db.adversarySeedBase = seedBase;
    parts.push_back(std::make_unique<DelayBoundStrategy>(compose, db));
    OracleQualityStrategy::Options oq;
    oq.seedBase = seedBase;
    parts.push_back(std::make_unique<OracleQualityStrategy>(fd, oq));
    RoundSkewStrategy::Options rs;
    rs.seedBase = seedBase;
    parts.push_back(std::make_unique<RoundSkewStrategy>(compose, rs));
    for (const char* engine : {"compose", "paxos", "raft"}) {
      Scenario svc;
      svc.family = Family::kSvc;
      svc.svc.engine = engine;
      svc.svc.workload.clients = 64;
      svc.svc.workload.commandsPerNode = 8;
      svc.svc.workload.thinkMin = 5;
      svc.svc.workload.thinkMax = 40;
      svc.svc.workload.startSpread = 16;
      svc.svc.service.maxDecrees = 400;
      SvcPipelineStrategy::Options sp;
      sp.seedBase = seedBase;
      parts.push_back(std::make_unique<SliceStrategy>(
          std::make_unique<SvcPipelineStrategy>(svc, sp), 12, seed));
    }
    strategy_ = std::make_unique<CompositeStrategy>("check-sweep",
                                                    std::move(parts));
    // Warm the worker pool and its workers' arenas on a short prefix.
    explore(kThreads, 400);
  }

  PassOutput runPass(const Tracing& tracing) override {
    if (tracing.spans || tracing.probe) return manualPass(tracing, nullptr);
    const ooc::check::CheckReport report = explore(kThreads, 0);
    lastStats_ = report.sweep;
    PassOutput out;
    summarize(report, out);
    return out;
  }

  std::string verify(PassOutput& first) override {
    // The same configurations evaluated one by one on this thread must
    // reproduce the two-worker sweep's findings exactly.
    PassOutput serial = manualPass({}, &first.opTicks);
    if (serial.digest != first.digest)
      return "perfbench: check-sweep findings differ between the " +
             std::to_string(kThreads) + "-thread sweep and a serial pass";
    return {};
  }

  double serialPassSeconds(double) override { return serialSeconds_; }

  std::string layerMetrics(LayerValues& out, const SpanRecorder& spans,
                           double budgetSeconds) override {
    const auto totals = spans.totals();
    out["compose.resolve_us"] = meanSpanUs(totals, "compose::resolve");
    const double configs = static_cast<double>(strategy_->size());
    out["check.generate_us"] = meanSpanUs(totals, "check::generate");
    out["check.run_us_per_config"] = meanSpanUs(totals, "check::runScenario");
    double invariantNs = 0;
    for (const auto& invariant : suite_) {
      const std::string name = std::string("Invariant::check:") +
                               invariant->name();
      out[std::string("check.") + invariant->name() + ".us"] =
          meanSpanUs(totals, name);
      if (const auto it = totals.find(name); it != totals.end())
        invariantNs += static_cast<double>(it->second.totalNs);
    }
    out["check.invariants_us_per_config"] = invariantNs / 1000.0 / configs;
    out["core.deferred_activations"] = static_cast<double>(deferred_);
    out["core.max_round_skew"] = static_cast<double>(maxSkew_);

    const ooc::sweep::SweepStats& s = lastStats_;
    double busy = 0, slowest = 0;
    for (const auto& worker : s.perWorker) {
      busy += worker.seconds;
      slowest = std::max(slowest, worker.seconds);
    }
    const double workers = static_cast<double>(s.perWorker.size());
    out["sweep.busy_ratio"] = mean(busy, workers * s.elapsedSeconds);
    out["sweep.imbalance"] = mean(slowest, mean(busy, workers));
    out["sweep.steals"] = static_cast<double>(s.steals);

    // Scaling: alternate one- and two-worker sweeps, compare medians.
    std::vector<double> one, two;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(budgetSeconds * 1e9);
    for (int rep = 0; rep < 7 && (rep < 2 || nowNs() < deadline); ++rep) {
      for (const std::size_t threads : {std::size_t{1}, kThreads}) {
        const std::int64_t start = nowNs();
        const ooc::check::CheckReport report = explore(threads, 0);
        PassOutput check;
        summarize(report, check);
        if (check.digest != digest_)
          return "perfbench: check-sweep findings differ at " +
                 std::to_string(threads) + " thread(s)";
        (threads == 1 ? one : two)
            .push_back(static_cast<double>(nowNs() - start) / 1e9);
      }
    }
    serialSeconds_ = median(one);
    out["sweep.scaling_efficiency"] =
        mean(median(one), static_cast<double>(kThreads) * median(two));
    return {};
  }

 private:
  ooc::check::CheckReport explore(std::size_t threads, std::size_t limit) {
    ooc::check::CheckerOptions options;
    options.threads = threads;
    options.shrink = false;
    options.maxFindings = std::numeric_limits<std::size_t>::max();
    if (limit == 0) return ooc::check::explore(*strategy_, view(), options);
    SliceStrategy prefix(
        std::make_unique<Forward>(*strategy_), limit, 0);
    return ooc::check::explore(prefix, view(), options);
  }

  /// Non-owning forwarder so a slice can borrow the composite.
  class Forward final : public ooc::check::ExplorationStrategy {
   public:
    explicit Forward(const ooc::check::ExplorationStrategy& base)
        : base_(base) {}
    const char* name() const noexcept override { return base_.name(); }
    std::size_t size() const noexcept override { return base_.size(); }
    ooc::check::Scenario generate(std::size_t index) const override {
      return base_.generate(index);
    }

   private:
    const ooc::check::ExplorationStrategy& base_;
  };

  std::vector<const ooc::check::Invariant*> view() const {
    return ooc::check::view(suite_);
  }

  void failure(PassOutput& out, std::size_t index,
               const ooc::check::Violation& violation) const {
    const ooc::check::Scenario scenario = strategy_->generate(index);
    out.failures.push_back("workload=check-sweep config=" +
                           std::to_string(index) +
                           " seed=" + std::to_string(scenario.seed()) +
                           " invariant=" + violation.invariant + "\n" +
                           ooc::check::serialize(scenario));
  }

  void summarize(const ooc::check::CheckReport& report, PassOutput& out) {
    Digest digest;
    out.ops = report.configsExplored;
    out.attempted = report.configsExplored;
    out.failed = report.findings.size();
    digest.add(report.configsExplored);
    for (const ooc::check::Finding& f : report.findings) {
      digest.add(f.configIndex);
      digest.add(f.violation.invariant);
      digest.add(f.violation.detail);
      failure(out, f.configIndex, f.violation);
    }
    out.digest = digest.value;
    if (digest_ == 0) digest_ = out.digest;
  }

  /// Generates, runs and checks every configuration on this thread, in
  /// index order, with the first violation per run reported (explore's
  /// semantics). Traced when `tracing` carries spans/probe.
  PassOutput manualPass(const Tracing& tracing, std::vector<double>* ticks) {
    PassOutput out;
    Digest digest;
    std::size_t explored = 0;
    deferred_ = 0;
    maxSkew_ = 0;
    std::vector<std::pair<std::size_t, ooc::check::Violation>> findings;
    EndTick endTick;
    ooc::compose::RunHooks hooks;
    hooks.observer = tracing.probe;
    if (ticks) hooks.observer = &endTick;
    for (std::size_t i = 0; i < strategy_->size(); ++i) {
      ScopedSpan configSpan(tracing.spans, "config", i);
      ooc::check::Scenario scenario;
      {
        ScopedSpan span(tracing.spans, "check::generate", i);
        scenario = strategy_->generate(i);
      }
      if (tracing.probe) tracing.probe->beginRun();
      endTick.last = 0;
      ooc::check::RunReport report;
      {
        ScopedSpan span(tracing.spans, "check::runScenario", i);
        report = ooc::check::runScenario(scenario, hooks);
      }
      if (tracing.probe) tracing.probe->endRun();
      if (ticks) ticks->push_back(static_cast<double>(endTick.last));
      deferred_ += report.deferredActivations;
      maxSkew_ = std::max<std::uint64_t>(maxSkew_, report.maxRoundSkew);
      ++explored;
      bool found = false;
      for (const auto& invariant : suite_) {
        ScopedSpan span(tracing.spans,
                        std::string("Invariant::check:") + invariant->name(),
                        i);
        const auto violation = invariant->check(scenario, report);
        if (violation && !found) {
          findings.emplace_back(i, *violation);
          found = true;
        }
      }
    }
    out.ops = explored;
    out.attempted = explored;
    out.failed = findings.size();
    digest.add(explored);
    for (const auto& [index, violation] : findings) {
      digest.add(index);
      digest.add(violation.invariant);
      digest.add(violation.detail);
      failure(out, index, violation);
    }
    out.digest = digest.value;
    return out;
  }

  std::vector<std::unique_ptr<ooc::check::Invariant>> suite_;
  std::unique_ptr<ooc::check::ExplorationStrategy> strategy_;
  std::uint64_t digest_ = 0;
  ooc::sweep::SweepStats lastStats_;
  double serialSeconds_ = 0.0;
  std::uint64_t deferred_ = 0;
  std::uint64_t maxSkew_ = 0;
};

}  // namespace

const std::vector<std::string>& workloadNames() {
  static const std::vector<std::string> names = {
      "consensus-mix", "svc-steady", "svc-failover", "check-sweep"};
  return names;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name) {
  if (name == "consensus-mix") return std::make_unique<ConsensusMix>();
  if (name == "svc-steady") return std::make_unique<Service>(false);
  if (name == "svc-failover") return std::make_unique<Service>(true);
  if (name == "check-sweep") return std::make_unique<CheckSweep>();
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
