#include "svc/run.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <unordered_set>
#include <utility>

#include "compose/composition.hpp"
#include "compose/kv.hpp"
#include "compose/registry.hpp"
#include "core/consensus_process.hpp"
#include "fd/oracle.hpp"
#include "obs/metrics.hpp"
#include "paxos/paxos_node.hpp"
#include "sim/simulator.hpp"
#include "svc/raft_log.hpp"
#include "util/flat_value_set.hpp"

namespace ooc::svc {
namespace {

/// Decrees restart the template's rounds at 1, so every per-decree engine
/// seed must mix the decree in (see EngineFactory's livelock note).
std::uint64_t decreeSeed(std::uint64_t seed, std::uint64_t decree) noexcept {
  return seed ^ (0x9E3779B97F4A7C15ull * (decree + 1));
}

bool prefixEqual(const std::vector<Value>& a, const std::vector<Value>& b) {
  const std::size_t common = std::min(a.size(), b.size());
  for (std::size_t i = 0; i < common; ++i)
    if (a[i] != b[i]) return false;
  return true;
}

bool uniqueValues(const std::vector<Value>& values, bool skipNoop) {
  FlatValueSet seen;
  for (Value v : values) {
    if (skipNoop && v == kNoopBatch) continue;
    if (!seen.insert(v)) return false;
  }
  return true;
}

}  // namespace

std::optional<std::string> validateEngine(const SvcConfig& config) {
  if (auto rejected = compose::invalidBias(config.bias)) return rejected;
  if (config.engine == "raft" || config.engine == "paxos") {
    if (config.scheduler != SchedulingPolicy::kLockstep) {
      return "service engine '" + config.engine +
             "' has no round scheduler to swap: the scheduling policy "
             "applies to composed per-decree engines only";
    }
    return std::nullopt;
  }
  if (config.engine != "compose") {
    return "unknown service engine '" + config.engine +
           "' (known: compose, paxos, raft)";
  }
  using compose::DetectorClass;
  using compose::DriverClass;
  using compose::FaultModel;
  using compose::InvocationMode;
  using compose::OracleRequirement;
  // Throws (listing known names) on an unknown name, like the resolver.
  const auto& detector = compose::registry().detector(config.detector);
  const auto& driver = compose::registry().driver(config.driver);
  if (const auto rejected = compose::registry().validatePairing(
          config.detector, config.driver)) {
    return rejected;
  }
  if (detector.capability.detectorClass !=
      DetectorClass::kVacillateAdoptCommit) {
    return "service engine needs a VAC detector: the log decides on commit "
           "under Algorithm 1, and '" +
           config.detector + "' is adopt-commit";
  }
  if (detector.capability.faultModel != FaultModel::kCrash) {
    return "service engine '" + config.detector +
           "' assumes a Byzantine fault model; the service's batching and "
           "catch-up protocols are crash-model only";
  }
  if (detector.capability.mode == InvocationMode::kLockstep) {
    return "service engine '" + config.detector +
           "' is lockstep-only; the service runs under the asynchronous "
           "scheduler (timer-driven client arrivals)";
  }
  if (driver.capability.mode == InvocationMode::kLockstep) {
    return "service driver '" + config.driver + "' is lockstep-only";
  }
  if (driver.capability.driverClass != DriverClass::kReconciliator) {
    return "service driver '" + config.driver +
           "' is a conciliator; the VAC template takes a reconciliator";
  }
  if (!driver.capability.multivalued) {
    return "service driver '" + config.driver +
           "' is not multivalued: a binary coin can never return a client "
           "command, so the log would decide values nobody proposed";
  }
  if (driver.capability.oracle != OracleRequirement::kNone) {
    return "service driver '" + config.driver +
           "' consumes a failure-detector oracle; the service harness "
           "attaches none";
  }
  // Non-lockstep round scheduling rides the same capability gate as the
  // compose layer: async-mode, skew-tolerant objects only.
  if (const auto rejected = compose::registry().validateScheduling(
          config.detector, config.driver, config.scheduler)) {
    return rejected;
  }
  return std::nullopt;
}

EngineFactory composeEngineFactory(const SvcConfig& config) {
  const auto* detector = &compose::registry().detector(config.detector);
  const auto* driver = &compose::registry().driver(config.driver);
  const std::size_t t = config.t.value_or(
      (config.n - 1) /
      std::max<std::size_t>(1, detector->capability.tDivisor));
  compose::ObjectParams params;
  params.n = config.n;
  params.t = t;
  params.seed = config.seed;
  params.bias = config.bias;
  const Round maxRounds = config.maxRoundsPerDecree;
  const SchedulingPolicy scheduling = config.scheduler;
  return [detector, driver, params, maxRounds, scheduling](
             std::uint64_t decree, Value proposal,
             bool /*proposer*/) -> std::unique_ptr<Process> {
    compose::ObjectParams p = params;
    p.seed = decreeSeed(params.seed, decree);
    ConsensusProcess::Options options;
    options.kind = TemplateKind::kVacReconciliator;
    options.scheduling = scheduling;
    options.alwaysRunDriver = true;
    options.participateRoundsAfterDecide = 1;
    options.maxRounds = maxRounds;
    return std::make_unique<ConsensusProcess>(
        proposal, detector->make(p), driver->make(p), options);
  };
}

EngineFactory paxosEngineFactory(const SvcConfig& config) {
  // Ω picks each decree's proposer: value holders forward to the leader
  // the run's own fault schedule implies, and every retry timer runs at
  // the rescue bounds so the leader's retry outlasts a four-delay ballot.
  // Reactive joiners arm that timer only when the run has faults — the
  // rescue for decrees whose proposer (or leader) died mid-ballot.
  fd::FaultSchedule schedule =
      fd::FaultSchedule::fromCrashList(config.n, config.crashes);
  for (const RestartEvent& event : config.restarts)
    schedule.restart(event.id, event.at, event.downtime);
  paxos::PaxosConfig base;
  base.retryMin = config.paxosRetryMin * 8;
  base.retryMax = config.paxosRetryMax * 8;
  base.omega = fd::makeScheduleOracle(fd::OracleClass::kOmega,
                                      fd::OracleKnobs{}, std::move(schedule),
                                      config.seed);
  const bool rescue = !config.crashes.empty() || !config.restarts.empty();
  return [base, rescue](std::uint64_t /*decree*/, Value proposal,
                        bool proposer) -> std::unique_ptr<Process> {
    paxos::PaxosConfig pc = base;
    pc.hasValue = proposer;
    pc.propose = proposer || rescue;
    return std::make_unique<paxos::PaxosNode>(proposal, std::move(pc));
  };
}

SvcResult runSvc(const SvcConfig& config, const compose::RunHooks& hooks) {
  if (const auto rejected = validateEngine(config))
    throw std::invalid_argument(*rejected);
  if (config.n == 0) throw std::invalid_argument("svc: n must be positive");
  if (const auto diagnostic = compose::unknownCrashProcess(
          config.crashes, config.restarts, config.n))
    throw std::invalid_argument(*diagnostic);

  const std::size_t n = config.n;

  SimConfig simConfig;
  simConfig.seed = config.seed;
  simConfig.maxTicks = config.maxTicks;
  simConfig.lockstep = false;
  UniformDelayNetwork::Options net;
  net.minDelay = config.minDelay;
  net.maxDelay = config.maxDelay;
  Simulator sim(simConfig,
                compose::wrapAdversary(
                    std::make_unique<UniformDelayNetwork>(net),
                    config.adversary));
  if (hooks.observer) sim.setScheduleObserver(hooks.observer);

  std::vector<SvcNode*> svcNodes(n, nullptr);
  std::vector<RaftLogNode*> raftNodes(n, nullptr);

  if (config.engine == "raft") {
    RaftLogOptions options;
    options.raft.electionTimeoutMin = config.raftElectionMin;
    options.raft.electionTimeoutMax = config.raftElectionMax;
    options.raft.heartbeatInterval = config.raftHeartbeat;
    options.raft.durable = config.service.durable;
    options.raft.syncBeforeReply = config.service.syncBeforeReply;
    options.raft.storage = config.service.storage;
    options.resubmitEvery = config.resubmitEvery;
    for (ProcessId id = 0; id < n; ++id) {
      auto node = std::make_unique<RaftLogNode>(options, config.workload, n,
                                                config.seed);
      raftNodes[id] = node.get();
      sim.addProcess(std::move(node));
    }
  } else {
    const EngineFactory factory = config.engine == "paxos"
                                      ? paxosEngineFactory(config)
                                      : composeEngineFactory(config);
    for (ProcessId id = 0; id < n; ++id) {
      auto node = std::make_unique<SvcNode>(factory, config.workload, n,
                                            config.seed, config.service);
      svcNodes[id] = node.get();
      sim.addProcess(std::move(node));
    }
  }

  for (const auto& [id, tick] : config.crashes) sim.crashAt(id, tick);
  for (const RestartEvent& event : config.restarts)
    sim.restartAt(event.id, event.at, event.downtime);

  if (config.engine == "raft") {
    // Raft never quiesces — heartbeats and the resubmit bridge re-arm
    // forever — so the run needs an explicit endpoint: every node still up
    // is drained (calendar done, own commands applied) and the applied
    // prefixes have equalized. Permanently crashed nodes are exempt; a
    // node inside its restart downtime just keeps the predicate false
    // until it is back and caught up.
    std::unordered_set<ProcessId> permanentlyDown;
    for (const auto& [id, tick] : config.crashes) permanentlyDown.insert(id);
    sim.setStopPredicate([&raftNodes, permanentlyDown](const Simulator& s) {
      std::size_t reference = raftNodes.size();
      for (ProcessId id = 0; id < raftNodes.size(); ++id) {
        if (s.crashed(id)) {
          if (permanentlyDown.contains(id)) continue;
          return false;  // mid-downtime: wait for the restart
        }
        if (!raftNodes[id]->drained()) return false;
        if (reference == raftNodes.size()) {
          reference = id;
        } else if (raftNodes[id]->applied().size() !=
                   raftNodes[reference]->applied().size()) {
          return false;
        }
      }
      return reference != raftNodes.size();
    });
  }
  // The other engines need no stop predicate: idle detection quiesces the
  // cluster and the event queue drains (maxTicks guards runaways, reported
  // via hitCap).
  sim.run();

  // --- collect ---------------------------------------------------------
  // The audits read every node's logs in place (decree logs stay empty for
  // Raft, which has none).
  const bool raft = config.engine == "raft";
  const std::vector<Value> noDecrees;
  std::vector<const std::vector<Value>*> appliedLogs(n);
  std::vector<const std::vector<Value>*> decreeLogs(n, &noDecrees);
  SvcResult result;
  std::uint64_t emitted = 0;
  for (ProcessId id = 0; id < n; ++id) {
    if (raft) {
      appliedLogs[id] = &raftNodes[id]->applied();
      emitted += raftNodes[id]->workload().emitted();
      result.duplicatesSuppressed += raftNodes[id]->duplicatesSuppressed();
      result.noopDecrees =
          std::max(result.noopDecrees, raftNodes[id]->noopsApplied());
      const auto& lat = raftNodes[id]->latencies();
      result.latencies.insert(result.latencies.end(), lat.begin(), lat.end());
      const auto& batches = raftNodes[id]->batchSizes();
      result.batchSizes.insert(result.batchSizes.end(), batches.begin(),
                               batches.end());
      for (const auto& event : raftNodes[id]->leaderEvents())
        result.leaderEvents.emplace_back(event.at, id);
    } else {
      appliedLogs[id] = &svcNodes[id]->applied();
      decreeLogs[id] = &svcNodes[id]->decreeLog();
      emitted += svcNodes[id]->workload().emitted();
      result.duplicatesSuppressed += svcNodes[id]->duplicatesSuppressed();
      result.noopDecrees =
          std::max(result.noopDecrees, svcNodes[id]->noopDecrees());
      const auto& lat = svcNodes[id]->latencies();
      result.latencies.insert(result.latencies.end(), lat.begin(), lat.end());
      const auto& batches = svcNodes[id]->batchSizes();
      result.batchSizes.insert(result.batchSizes.end(), batches.begin(),
                               batches.end());
    }
  }
  std::sort(result.leaderEvents.begin(), result.leaderEvents.end());
  result.commandsEmitted = emitted;
  result.messagesByCorrect = sim.messagesSentByCorrect();
  result.eventsProcessed = sim.eventsProcessed();
  result.hitCap = sim.hitCap();

  // --- audits ----------------------------------------------------------
  // Prefix agreement over applied command logs (and, for decree-based
  // engines, over the decree logs themselves).
  for (ProcessId a = 0; a < n && result.prefixOk; ++a) {
    for (ProcessId b = a + 1; b < n && result.prefixOk; ++b) {
      if (!prefixEqual(*appliedLogs[a], *appliedLogs[b]))
        result.prefixOk = false;
      if (!raft && !prefixEqual(*decreeLogs[a], *decreeLogs[b]))
        result.prefixOk = false;
    }
  }
  // Exactly-once: no command applied twice at any node, and (decree-based
  // engines) no batch wins two decrees, with zero suppressed duplicates —
  // a suppressed duplicate there means a batch was re-proposed unsafely.
  // Raft legitimately relies on suppression across failovers, so only the
  // applied-log uniqueness is asserted for it.
  for (ProcessId id = 0; id < n && result.exactlyOnce; ++id) {
    if (!uniqueValues(*appliedLogs[id], /*skipNoop=*/false))
      result.exactlyOnce = false;
    if (!raft && !uniqueValues(*decreeLogs[id], /*skipNoop=*/true))
      result.exactlyOnce = false;
  }
  if (!raft && result.duplicatesSuppressed != 0) result.exactlyOnce = false;

  std::size_t longest = 0;
  for (ProcessId id = 0; id < n; ++id) {
    longest = std::max(longest, appliedLogs[id]->size());
    result.decreesCommitted = std::max(
        result.decreesCommitted,
        raft ? appliedLogs[id]->size() : decreeLogs[id]->size());
  }
  result.commandsCommitted = longest;
  result.allApplied = result.prefixOk && emitted > 0;
  for (ProcessId id = 0; id < n; ++id)
    if (appliedLogs[id]->size() != emitted) result.allApplied = false;

  // Reference node for the commit timeline: the first node the fault
  // schedule never touches.
  ProcessId reference = 0;
  for (ProcessId id = 0; id < n; ++id) {
    bool faulted = false;
    for (const auto& [cid, tick] : config.crashes) faulted |= (cid == id);
    for (const RestartEvent& event : config.restarts)
      faulted |= (event.id == id);
    if (!faulted) {
      reference = id;
      break;
    }
  }
  const std::vector<Tick>& ticks = raft ? raftNodes[reference]->commitTicks()
                                        : svcNodes[reference]->commitTicks();
  for (std::size_t i = 0; i < ticks.size(); ++i) {
    result.lastCommitTick = std::max(result.lastCommitTick, ticks[i]);
    if (i > 0 && ticks[i] - ticks[i - 1] > result.maxCommitGap)
      result.maxCommitGap = ticks[i] - ticks[i - 1];
  }
  if (result.lastCommitTick > 0) {
    result.commandsPerKtick =
        static_cast<double>(result.commandsCommitted) * 1000.0 /
        static_cast<double>(result.lastCommitTick);
  }

  if (obs::enabled()) {
    const obs::Labels base =
        hooks.telemetryLabels.empty()
            ? obs::Labels{{"engine", config.engine}, {"family", "svc"}}
            : hooks.telemetryLabels;
    obs::metrics().addCounter("svc_commands_committed",
                              result.commandsCommitted, base);
    obs::metrics().addCounter("svc_decrees_committed",
                              result.decreesCommitted, base);
    obs::metrics().addCounter("svc_noop_decrees", result.noopDecrees, base);
    for (const Tick latency : result.latencies) {
      obs::metrics().observe("svc_decide_latency_ticks",
                             static_cast<double>(latency), base);
    }
    for (const std::uint32_t size : result.batchSizes)
      obs::metrics().observe("svc_batch_size", size, base);
    // No per-run gauges here: a last-writer-wins gauge from inside a run is
    // order-dependent once trials fan across the experiment scheduler.
    // Aggregate gauges (svc_mean_commands_per_ktick, svc_blackout_ticks)
    // are set by the callers' sequential trial-order folds instead.
  }
  return result;
}

// --- wire format -----------------------------------------------------------

std::string serializeSvcConfig(const SvcConfig& config) {
  compose::KvWriter kv;
  kv.put("engine", config.engine);
  if (config.engine == "compose") {
    kv.put("detector", config.detector);
    kv.put("driver", config.driver);
    // Wire purity: the scheduler key exists only when non-lockstep, so
    // every pre-policy scenario file and run-id stays byte-identical.
    if (config.scheduler != SchedulingPolicy::kLockstep)
      kv.put("scheduler", toString(config.scheduler));
  }
  kv.put("n", static_cast<std::uint64_t>(config.n));
  if (config.t) kv.put("t", static_cast<std::uint64_t>(*config.t));
  kv.put("seed", config.seed);
  kv.put("bias", config.bias);
  kv.put("window", config.service.window);
  kv.put("batch-max", static_cast<std::uint64_t>(config.service.batchMax));
  kv.put("max-decrees", config.service.maxDecrees);
  kv.put("fetch-retry", config.service.fetchRetry);
  kv.put("catchup-retry", config.service.catchupRetry);
  kv.put("durable", static_cast<std::uint64_t>(config.service.durable));
  kv.put("sync-before-reply",
         static_cast<std::uint64_t>(config.service.syncBeforeReply));
  kv.put("torn-prob", config.service.storage.tornTailProbability);
  kv.put("corrupt-prob", config.service.storage.corruptProbability);
  kv.put("clients", config.workload.clients);
  kv.put("commands-per-node", config.workload.commandsPerNode);
  kv.put("closed-loop", static_cast<std::uint64_t>(config.workload.closedLoop));
  kv.put("think-min", config.workload.thinkMin);
  kv.put("think-max", config.workload.thinkMax);
  kv.put("start-spread", config.workload.startSpread);
  kv.put("arrivals-per-tick", config.workload.arrivalsPerTick);
  kv.put("burst-every", config.workload.burstEvery);
  kv.put("burst-len", config.workload.burstLen);
  kv.put("burst-factor", config.workload.burstFactor);
  kv.put("zipf-theta", config.workload.zipfTheta);
  kv.put("key-space", static_cast<std::uint64_t>(config.workload.keySpace));
  kv.put("min-delay", config.minDelay);
  kv.put("max-delay", config.maxDelay);
  for (const auto& crash : config.crashes)
    kv.put("crash", compose::crashEntry(crash));
  for (const RestartEvent& event : config.restarts)
    kv.put("restart", compose::restartEntry(event));
  compose::putAdversary(kv, config.adversary);
  kv.put("max-rounds", static_cast<std::uint64_t>(config.maxRoundsPerDecree));
  kv.put("max-ticks", config.maxTicks);
  kv.put("paxos-retry-min", config.paxosRetryMin);
  kv.put("paxos-retry-max", config.paxosRetryMax);
  kv.put("election-min", config.raftElectionMin);
  kv.put("election-max", config.raftElectionMax);
  kv.put("heartbeat", config.raftHeartbeat);
  kv.put("resubmit-every", config.resubmitEvery);
  return compose::stampRunId(kv.str());
}

SvcConfig parseSvcConfig(const std::string& text) {
  const compose::KvReader kv(text);
  SvcConfig config;
  config.engine = kv.get("engine", config.engine);
  // Only composed engines carry a pairing on the wire; for raft and paxos
  // these keys stay unread, so the unknown-key check rejects them.
  if (config.engine == "compose") {
    config.detector = kv.get("detector", config.detector);
    config.driver = kv.get("driver", config.driver);
    config.scheduler = compose::getScheduler(kv);
  }
  config.n = kv.getU64("n", config.n);
  if (kv.has("t")) config.t = kv.getU64("t", 0);
  config.seed = kv.getU64("seed", config.seed);
  config.bias = kv.getDouble("bias", config.bias);
  config.service.window = kv.getU64("window", config.service.window);
  config.service.batchMax = kv.getU64("batch-max", config.service.batchMax);
  config.service.maxDecrees =
      kv.getU64("max-decrees", config.service.maxDecrees);
  config.service.fetchRetry =
      kv.getU64("fetch-retry", config.service.fetchRetry);
  config.service.catchupRetry =
      kv.getU64("catchup-retry", config.service.catchupRetry);
  config.service.durable =
      kv.getU64("durable", config.service.durable ? 1 : 0) != 0;
  config.service.syncBeforeReply =
      kv.getU64("sync-before-reply",
                config.service.syncBeforeReply ? 1 : 0) != 0;
  config.service.storage.tornTailProbability =
      kv.getDouble("torn-prob", config.service.storage.tornTailProbability);
  config.service.storage.corruptProbability =
      kv.getDouble("corrupt-prob", config.service.storage.corruptProbability);
  config.workload.clients = kv.getU64("clients", config.workload.clients);
  config.workload.commandsPerNode =
      kv.getU64("commands-per-node", config.workload.commandsPerNode);
  config.workload.closedLoop =
      kv.getU64("closed-loop", config.workload.closedLoop ? 1 : 0) != 0;
  config.workload.thinkMin = kv.getU64("think-min", config.workload.thinkMin);
  config.workload.thinkMax = kv.getU64("think-max", config.workload.thinkMax);
  config.workload.startSpread =
      kv.getU64("start-spread", config.workload.startSpread);
  config.workload.arrivalsPerTick =
      kv.getDouble("arrivals-per-tick", config.workload.arrivalsPerTick);
  config.workload.burstEvery =
      kv.getU64("burst-every", config.workload.burstEvery);
  config.workload.burstLen = kv.getU64("burst-len", config.workload.burstLen);
  config.workload.burstFactor =
      kv.getDouble("burst-factor", config.workload.burstFactor);
  config.workload.zipfTheta =
      kv.getDouble("zipf-theta", config.workload.zipfTheta);
  config.workload.keySpace = static_cast<std::uint32_t>(
      kv.getU64("key-space", config.workload.keySpace));
  config.minDelay = kv.getU64("min-delay", config.minDelay);
  config.maxDelay = kv.getU64("max-delay", config.maxDelay);
  for (const std::string& entry : kv.getAll("crash"))
    config.crashes.push_back(compose::parseCrash(entry));
  for (const std::string& entry : kv.getAll("restart"))
    config.restarts.push_back(compose::parseRestart(entry));
  config.adversary = compose::getAdversary(kv);
  config.maxRoundsPerDecree = static_cast<Round>(
      kv.getU64("max-rounds", config.maxRoundsPerDecree));
  config.maxTicks = kv.getU64("max-ticks", config.maxTicks);
  config.paxosRetryMin = kv.getU64("paxos-retry-min", config.paxosRetryMin);
  config.paxosRetryMax = kv.getU64("paxos-retry-max", config.paxosRetryMax);
  config.raftElectionMin = kv.getU64("election-min", config.raftElectionMin);
  config.raftElectionMax = kv.getU64("election-max", config.raftElectionMax);
  config.raftHeartbeat = kv.getU64("heartbeat", config.raftHeartbeat);
  config.resubmitEvery = kv.getU64("resubmit-every", config.resubmitEvery);
  kv.rejectUnreadKeys();
  // A fault entry naming no process is malformed input, like a bad field.
  if (const auto diagnostic = compose::unknownCrashProcess(
          config.crashes, config.restarts, config.n))
    throw std::runtime_error(*diagnostic);
  if (const auto rejected = validateEngine(config))
    throw std::invalid_argument(*rejected);
  return config;
}

}  // namespace ooc::svc
