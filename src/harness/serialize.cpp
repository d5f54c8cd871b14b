#include "harness/serialize.hpp"

#include <array>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "compose/kv.hpp"

namespace ooc::harness {
namespace {

// The key=value machinery (writer, reader, run-id stamping, crash/adversary
// entries) now lives in compose/kv.hpp, shared with Composition
// serialization; only the per-config field lists remain here.
using compose::KvReader;
using compose::KvWriter;
using compose::crashEntry;
using compose::getAdversary;
using compose::parseCrash;
using compose::putAdversary;
using compose::stampRunId;

template <typename Enum, std::size_t N>
Enum parseEnum(const std::string& name, const char* what,
               const std::array<std::pair<const char*, Enum>, N>& table) {
  for (const auto& [label, value] : table)
    if (name == label) return value;
  throw std::runtime_error(std::string("unknown ") + what + " '" + name + "'");
}

}  // namespace

// ---------------------------------------------------------------------------
// run identity

std::string configRunId(const std::string& serialized) {
  return compose::configRunId(serialized);
}

// ---------------------------------------------------------------------------
// enums

const char* toString(BenOrConfig::Mode mode) noexcept {
  switch (mode) {
    case BenOrConfig::Mode::kDecomposed: return "decomposed";
    case BenOrConfig::Mode::kMonolithic: return "monolithic";
    case BenOrConfig::Mode::kVacFromTwoAc: return "vac-from-two-ac";
    case BenOrConfig::Mode::kDecentralizedVac: return "decentralized-vac";
  }
  return "?";
}

const char* toString(BenOrConfig::Reconciliator reconciliator) noexcept {
  switch (reconciliator) {
    case BenOrConfig::Reconciliator::kLocalCoin: return "local-coin";
    case BenOrConfig::Reconciliator::kCommonCoin: return "common-coin";
    case BenOrConfig::Reconciliator::kBiasedCoin: return "biased-coin";
    case BenOrConfig::Reconciliator::kKeepValue: return "keep-value";
    case BenOrConfig::Reconciliator::kLottery: return "lottery";
  }
  return "?";
}

const char* toString(BenOrConfig::Fault fault) noexcept {
  switch (fault) {
    case BenOrConfig::Fault::kNone: return "none";
    case BenOrConfig::Fault::kVacAdoptFlip: return "vac-adopt-flip";
  }
  return "?";
}

const char* toString(PhaseKingConfig::Algorithm algorithm) noexcept {
  switch (algorithm) {
    case PhaseKingConfig::Algorithm::kKing: return "king";
    case PhaseKingConfig::Algorithm::kQueen: return "queen";
  }
  return "?";
}

BenOrConfig::Mode parseBenOrMode(const std::string& name) {
  return parseEnum(
      name, "mode",
      std::array<std::pair<const char*, BenOrConfig::Mode>, 4>{{
          {"decomposed", BenOrConfig::Mode::kDecomposed},
          {"monolithic", BenOrConfig::Mode::kMonolithic},
          {"vac-from-two-ac", BenOrConfig::Mode::kVacFromTwoAc},
          {"decentralized-vac", BenOrConfig::Mode::kDecentralizedVac},
      }});
}

BenOrConfig::Reconciliator parseReconciliator(const std::string& name) {
  return parseEnum(
      name, "reconciliator",
      std::array<std::pair<const char*, BenOrConfig::Reconciliator>, 5>{{
          {"local-coin", BenOrConfig::Reconciliator::kLocalCoin},
          {"common-coin", BenOrConfig::Reconciliator::kCommonCoin},
          {"biased-coin", BenOrConfig::Reconciliator::kBiasedCoin},
          {"keep-value", BenOrConfig::Reconciliator::kKeepValue},
          {"lottery", BenOrConfig::Reconciliator::kLottery},
      }});
}

BenOrConfig::Fault parseFault(const std::string& name) {
  return parseEnum(name, "fault",
                   std::array<std::pair<const char*, BenOrConfig::Fault>, 2>{{
                       {"none", BenOrConfig::Fault::kNone},
                       {"vac-adopt-flip", BenOrConfig::Fault::kVacAdoptFlip},
                   }});
}

PhaseKingConfig::Algorithm parseAlgorithm(const std::string& name) {
  return parseEnum(
      name, "algorithm",
      std::array<std::pair<const char*, PhaseKingConfig::Algorithm>, 2>{{
          {"king", PhaseKingConfig::Algorithm::kKing},
          {"queen", PhaseKingConfig::Algorithm::kQueen},
      }});
}

phaseking::ByzantineStrategy parseByzantineStrategy(const std::string& name) {
  using S = phaseking::ByzantineStrategy;
  return parseEnum(name, "byzantine strategy",
                   std::array<std::pair<const char*, S>, 5>{{
                       {"silent", S::kSilent},
                       {"random", S::kRandom},
                       {"equivocate", S::kEquivocate},
                       {"lying-king", S::kLyingKing},
                       {"anti-king", S::kAntiKing},
                   }});
}

// ---------------------------------------------------------------------------
// BenOrConfig

std::string serialize(const BenOrConfig& config) {
  KvWriter kv;
  kv.put("n", config.n);
  if (config.t) kv.put("t", *config.t);
  kv.putValues("inputs", config.inputs);
  kv.put("seed", config.seed);
  kv.put("mode", toString(config.mode));
  kv.put("reconciliator", toString(config.reconciliator));
  kv.put("bias", config.bias);
  for (const auto& crash : config.crashes) kv.put("crash", crashEntry(crash));
  kv.put("min-delay", config.minDelay);
  kv.put("max-delay", config.maxDelay);
  kv.put("max-rounds", static_cast<std::uint64_t>(config.maxRounds));
  kv.put("max-ticks", config.maxTicks);
  putAdversary(kv, config.adversary);
  kv.put("fault", toString(config.fault));
  return stampRunId(kv.str());
}

BenOrConfig parseBenOrConfig(const std::string& text) {
  const KvReader kv(text);
  BenOrConfig config;
  config.n = kv.getU64("n", config.n);
  if (kv.has("t")) config.t = kv.getU64("t", 0);
  config.inputs = kv.getValues("inputs");
  config.seed = kv.getU64("seed", config.seed);
  config.mode = parseBenOrMode(kv.get("mode", "decomposed"));
  config.reconciliator =
      parseReconciliator(kv.get("reconciliator", "local-coin"));
  config.bias = kv.getDouble("bias", config.bias);
  for (const std::string& entry : kv.getAll("crash"))
    config.crashes.push_back(parseCrash(entry));
  config.minDelay = kv.getU64("min-delay", config.minDelay);
  config.maxDelay = kv.getU64("max-delay", config.maxDelay);
  config.maxRounds = static_cast<Round>(kv.getU64("max-rounds", config.maxRounds));
  config.maxTicks = kv.getU64("max-ticks", config.maxTicks);
  config.adversary = getAdversary(kv);
  config.fault = parseFault(kv.get("fault", "none"));
  if (const auto diagnostic =
          compose::unknownCrashProcess(config.crashes, config.n))
    throw std::runtime_error(*diagnostic);
  return config;
}

// ---------------------------------------------------------------------------
// PhaseKingConfig

std::string serialize(const PhaseKingConfig& config) {
  KvWriter kv;
  kv.put("algorithm", toString(config.algorithm));
  kv.put("n", config.n);
  kv.put("byzantine", config.byzantineCount);
  if (config.t) kv.put("t", *config.t);
  kv.put("strategy", phaseking::toString(config.strategy));
  kv.put("placement", toString(config.placement));
  kv.putValues("inputs", config.inputs);
  kv.put("monolithic", static_cast<std::uint64_t>(config.monolithic));
  kv.put("early-commit",
         static_cast<std::uint64_t>(config.earlyCommitDecision));
  kv.put("seed", config.seed);
  kv.put("max-rounds", static_cast<std::uint64_t>(config.maxRounds));
  kv.put("max-ticks", config.maxTicks);
  return stampRunId(kv.str());
}

PhaseKingConfig parsePhaseKingConfig(const std::string& text) {
  const KvReader kv(text);
  PhaseKingConfig config;
  config.algorithm = parseAlgorithm(kv.get("algorithm", "king"));
  config.n = kv.getU64("n", config.n);
  config.byzantineCount = kv.getU64("byzantine", config.byzantineCount);
  if (kv.has("t")) config.t = kv.getU64("t", 0);
  config.strategy = parseByzantineStrategy(kv.get("strategy", "equivocate"));
  config.placement = parsePlacement(kv.get("placement", "front"));
  config.inputs = kv.getValues("inputs");
  config.monolithic = kv.getU64("monolithic", 0) != 0;
  config.earlyCommitDecision = kv.getU64("early-commit", 0) != 0;
  config.seed = kv.getU64("seed", config.seed);
  config.maxRounds = static_cast<Round>(kv.getU64("max-rounds", config.maxRounds));
  config.maxTicks = kv.getU64("max-ticks", config.maxTicks);
  return config;
}

// ---------------------------------------------------------------------------
// RaftScenarioConfig

std::string serialize(const RaftScenarioConfig& config) {
  KvWriter kv;
  kv.put("n", config.n);
  kv.putValues("inputs", config.inputs);
  kv.put("seed", config.seed);
  kv.put("min-delay", config.minDelay);
  kv.put("max-delay", config.maxDelay);
  kv.put("drop-prob", config.dropProbability);
  kv.put("dup-prob", config.duplicateProbability);
  for (const auto& crash : config.crashes) kv.put("crash", crashEntry(crash));
  for (const auto& event : config.partitions) {
    std::ostringstream os;
    os << event.at << ':';
    for (std::size_t i = 0; i < event.groups.size(); ++i) {
      if (i > 0) os << ',';
      os << event.groups[i];
    }
    kv.put("partition", os.str());
  }
  // Restart entries: "pid@tick+downtime".
  for (const auto& event : config.restarts) {
    kv.put("restart", std::to_string(event.id) + "@" +
                          std::to_string(event.at) + "+" +
                          std::to_string(event.downtime));
  }
  kv.put("election-min", config.raft.electionTimeoutMin);
  kv.put("election-max", config.raft.electionTimeoutMax);
  kv.put("heartbeat", config.raft.heartbeatInterval);
  kv.put("max-append", config.raft.maxEntriesPerAppend);
  kv.put("compaction", config.raft.compactionThreshold);
  kv.put("durable", static_cast<std::uint64_t>(config.raft.durable));
  kv.put("sync-before-reply",
         static_cast<std::uint64_t>(config.raft.syncBeforeReply));
  kv.put("torn-prob", config.raft.storage.tornTailProbability);
  kv.put("corrupt-prob", config.raft.storage.corruptProbability);
  putAdversary(kv, config.adversary);
  kv.put("max-ticks", config.maxTicks);
  return stampRunId(kv.str());
}

RaftScenarioConfig parseRaftConfig(const std::string& text) {
  const KvReader kv(text);
  RaftScenarioConfig config;
  config.n = kv.getU64("n", config.n);
  config.inputs = kv.getValues("inputs");
  config.seed = kv.getU64("seed", config.seed);
  config.minDelay = kv.getU64("min-delay", config.minDelay);
  config.maxDelay = kv.getU64("max-delay", config.maxDelay);
  config.dropProbability = kv.getDouble("drop-prob", config.dropProbability);
  config.duplicateProbability =
      kv.getDouble("dup-prob", config.duplicateProbability);
  for (const std::string& entry : kv.getAll("crash"))
    config.crashes.push_back(parseCrash(entry));
  for (const std::string& entry : kv.getAll("partition")) {
    const auto colon = entry.find(':');
    if (colon == std::string::npos)
      throw std::runtime_error("config: malformed partition '" + entry + "'");
    RaftScenarioConfig::PartitionEvent event;
    event.at = std::stoull(entry.substr(0, colon));
    std::istringstream groups(entry.substr(colon + 1));
    std::string token;
    while (std::getline(groups, token, ','))
      if (!token.empty()) event.groups.push_back(std::stoi(token));
    config.partitions.push_back(std::move(event));
  }
  config.raft.electionTimeoutMin =
      kv.getU64("election-min", config.raft.electionTimeoutMin);
  config.raft.electionTimeoutMax =
      kv.getU64("election-max", config.raft.electionTimeoutMax);
  config.raft.heartbeatInterval =
      kv.getU64("heartbeat", config.raft.heartbeatInterval);
  config.raft.maxEntriesPerAppend =
      kv.getU64("max-append", config.raft.maxEntriesPerAppend);
  config.raft.compactionThreshold =
      kv.getU64("compaction", config.raft.compactionThreshold);
  // Durability keys are absent from configs predating crash-recovery; the
  // fallbacks reproduce the old semantics (no journal, restarts are fresh
  // boots).
  for (const std::string& entry : kv.getAll("restart")) {
    const auto at = entry.find('@');
    const auto plus = entry.find('+', at == std::string::npos ? 0 : at);
    if (at == std::string::npos || plus == std::string::npos)
      throw std::runtime_error("config: malformed restart '" + entry + "'");
    RaftScenarioConfig::RestartEvent event;
    event.id = static_cast<ProcessId>(std::stoul(entry.substr(0, at)));
    event.at = std::stoull(entry.substr(at + 1, plus - at - 1));
    event.downtime = std::stoull(entry.substr(plus + 1));
    if (event.id >= config.n)
      throw std::runtime_error("restart '" + entry + "' names process " +
                               std::to_string(event.id) + ", but n=" +
                               std::to_string(config.n));
    config.restarts.push_back(event);
  }
  config.raft.durable =
      kv.getU64("durable", config.raft.durable ? 1 : 0) != 0;
  config.raft.syncBeforeReply =
      kv.getU64("sync-before-reply", config.raft.syncBeforeReply ? 1 : 0) !=
      0;
  config.raft.storage.tornTailProbability =
      kv.getDouble("torn-prob", config.raft.storage.tornTailProbability);
  config.raft.storage.corruptProbability =
      kv.getDouble("corrupt-prob", config.raft.storage.corruptProbability);
  config.adversary = getAdversary(kv);
  config.maxTicks = kv.getU64("max-ticks", config.maxTicks);
  if (const auto diagnostic =
          compose::unknownCrashProcess(config.crashes, config.n))
    throw std::runtime_error(*diagnostic);
  return config;
}

}  // namespace ooc::harness
