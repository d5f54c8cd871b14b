#include "check/strategy.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "benor/async_byzantine.hpp"
#include "compose/registry.hpp"
#include "phaseking/byzantine.hpp"
#include "util/rng.hpp"

namespace ooc::check {
namespace {

std::vector<Value> randomBinaryInputs(std::size_t n, Rng& meta) {
  std::vector<Value> inputs(n);
  for (auto& v : inputs) v = meta.coin();
  return inputs;
}

std::vector<std::pair<ProcessId, Tick>> randomCrashes(std::size_t n,
                                                      std::size_t budget,
                                                      Tick tickMax,
                                                      Rng& meta) {
  std::vector<std::pair<ProcessId, Tick>> crashes;
  const std::size_t count = budget == 0 ? 0 : meta.below(budget + 1);
  for (std::size_t k = 0; k < count; ++k) {
    crashes.emplace_back(static_cast<ProcessId>(meta.below(n)),
                         static_cast<Tick>(1 + meta.below(tickMax)));
  }
  return crashes;
}

/// The attack repertoire of a builtin Byzantine detector (empty for every
/// other detector), so the walk varies the attack as well as the
/// attackers' count and seats.
std::vector<std::string> attackerStrategies(const std::string& detector) {
  std::vector<std::string> names;
  if (detector == "phaseking-ac" || detector == "phasequeen-ac") {
    using S = phaseking::ByzantineStrategy;
    for (const S s : {S::kSilent, S::kRandom, S::kEquivocate, S::kLyingKing,
                      S::kAntiKing})
      names.push_back(phaseking::toString(s));
  } else if (detector == "byzantine-benor-vac") {
    using S = benor::AsyncByzantineStrategy;
    for (const S s :
         {S::kSilent, S::kEquivocate, S::kRandom, S::kContrarian})
      names.push_back(benor::toString(s));
  }
  return names;
}

}  // namespace

// ---------------------------------------------------------------------------
// RandomWalkStrategy

RandomWalkStrategy::RandomWalkStrategy(Scenario base, Options options)
    : base_(std::move(base)), options_(options) {}

Scenario RandomWalkStrategy::generate(std::size_t index) const {
  Scenario scenario = base_;
  scenario.setSeed(options_.seedBase + index);
  // The meta stream drives configuration shape only; the run seed above
  // drives the protocol's own randomness.
  Rng meta = Rng(options_.seedBase).split(0x3A7E0000 + index);

  const auto pickCount = [&]() {
    const std::size_t lo = std::max<std::size_t>(1, options_.minProcesses);
    const std::size_t hi = std::max(lo, options_.maxProcesses);
    return lo + meta.below(hi - lo + 1);
  };

  switch (scenario.family) {
    case Family::kRaft: {
      auto& config = scenario.raft;
      if (options_.randomizeCrashes || options_.randomizeInputs)
        config.n = pickCount();
      if (options_.randomizeInputs)
        config.inputs = randomBinaryInputs(config.n, meta);
      else
        config.inputs.clear();  // harness default: id % 2
      if (options_.randomizeCrashes) {
        config.crashes = randomCrashes(config.n, (config.n - 1) / 2,
                                       options_.crashTickMax, meta);
      }
      if (options_.randomizeDelays)
        config.maxDelay = config.minDelay + meta.below(8);
      break;
    }
    case Family::kCompose:
    case Family::kFd: {
      auto& config = scenario.compose;
      const auto& capability =
          compose::registry().detector(config.detector).capability;
      const bool lockstep =
          capability.mode == compose::InvocationMode::kLockstep;
      if (capability.faultModel == compose::FaultModel::kCrash) {
        if (options_.randomizeCrashes || options_.randomizeInputs) {
          config.n = pickCount();
          config.t.reset();  // recompute the default budget for the new n
        }
        if (options_.randomizeCrashes) {
          config.crashes = randomCrashes(
              config.n, (config.n - 1) / capability.tDivisor,
              options_.crashTickMax, meta);
        }
      } else if (options_.randomizeCrashes) {
        // Fault-schedule freedom for Byzantine detectors: vary the planted
        // count (within the tolerance), where the attackers sit and how
        // they attack.
        const std::size_t t = config.t.value_or(
            config.n == 0 ? 0 : (config.n - 1) / capability.tDivisor);
        config.byzantineCount = meta.below(t + 1);
        config.placement = static_cast<compose::Placement>(meta.below(3));
        const auto attacks = attackerStrategies(config.detector);
        if (!attacks.empty())
          config.byzantineStrategy = attacks[meta.below(attacks.size())];
      }
      if (options_.randomizeInputs)
        config.inputs =
            randomBinaryInputs(config.n - config.byzantineCount, meta);
      if (options_.randomizeDelays && !lockstep)
        config.maxDelay = config.minDelay + meta.below(30);
      break;
    }
    case Family::kSvc: {
      auto& config = scenario.svc;
      if (options_.randomizeCrashes) {
        config.crashes = randomCrashes(config.n, (config.n - 1) / 2,
                                       options_.crashTickMax, meta);
      }
      if (options_.randomizeInputs) {
        // The service has no input vector; the configuration freedom the
        // walk explores instead is the pipeline shape.
        config.service.window = 1 + meta.below(4);
        config.service.batchMax = 1 + meta.below(6);
      }
      if (options_.randomizeDelays)
        config.maxDelay = config.minDelay + meta.below(12);
      break;
    }
  }
  return scenario;
}

// ---------------------------------------------------------------------------
// DelayBoundStrategy

DelayBoundStrategy::DelayBoundStrategy(Scenario base, Options options)
    : base_(std::move(base)), options_(std::move(options)) {
  if ((base_.family == Family::kCompose || base_.family == Family::kFd) &&
      compose::registry().detector(base_.compose.detector).capability.mode ==
          compose::InvocationMode::kLockstep)
    throw std::invalid_argument(
        "delay-bound exploration needs an asynchronous family");
  if (options_.budgets.empty() || options_.adversarySeedsPerBudget == 0)
    throw std::invalid_argument("delay-bound strategy needs a non-empty grid");
}

Scenario DelayBoundStrategy::generate(std::size_t index) const {
  Scenario scenario = base_;
  harness::AdversaryOptions adversary;
  adversary.extraDelayMax =
      options_.budgets[index / options_.adversarySeedsPerBudget];
  adversary.seed = options_.adversarySeedBase +
                   index % options_.adversarySeedsPerBudget;
  adversary.perturbProbability = options_.perturbProbability;
  if (scenario.family == Family::kCompose || scenario.family == Family::kFd)
    scenario.compose.adversary = adversary;
  else if (scenario.family == Family::kSvc)
    scenario.svc.adversary = adversary;
  else
    scenario.raft.adversary = adversary;
  return scenario;
}

// ---------------------------------------------------------------------------
// CrashScheduleStrategy

CrashScheduleStrategy::CrashScheduleStrategy(Scenario base, Options options)
    : base_(std::move(base)), options_(std::move(options)) {
  if ((base_.family == Family::kCompose || base_.family == Family::kFd) &&
      compose::registry().detector(base_.compose.detector).capability
              .faultModel == compose::FaultModel::kByzantine)
    throw std::invalid_argument(
        "crash-schedule enumeration applies to crash-fault families");
  if (options_.tickGrid.empty())
    throw std::invalid_argument("crash-schedule strategy needs a tick grid");

  const std::size_t n = base_.processCount();
  std::size_t budget = options_.maxCrashes;
  if (budget == 0) budget = n == 0 ? 0 : (n - 1) / 2;
  budget = std::min(budget, n);

  // Subsets in size order, lexicographic within a size.
  std::vector<ProcessId> current;
  const auto emit = [&](auto&& self, std::size_t firstId,
                        std::size_t remaining) -> void {
    if (remaining == 0) {
      subsets_.push_back(current);
      return;
    }
    for (std::size_t id = firstId; id + remaining <= n; ++id) {
      current.push_back(static_cast<ProcessId>(id));
      self(self, id + 1, remaining - 1);
      current.pop_back();
    }
  };
  for (std::size_t size = 0; size <= budget; ++size) emit(emit, 0, size);

  subsetStart_.reserve(subsets_.size());
  for (const auto& subset : subsets_) {
    subsetStart_.push_back(total_);
    std::size_t assignments = 1;
    for (std::size_t k = 0; k < subset.size(); ++k)
      assignments *= options_.tickGrid.size();
    total_ += assignments;
  }
}

Scenario CrashScheduleStrategy::generate(std::size_t index) const {
  // Find the subset owning this index (last start <= index).
  const auto it = std::upper_bound(subsetStart_.begin(), subsetStart_.end(),
                                   index);
  const std::size_t subsetIndex =
      static_cast<std::size_t>(it - subsetStart_.begin()) - 1;
  const std::vector<ProcessId>& subset = subsets_[subsetIndex];
  std::size_t offset = index - subsetStart_[subsetIndex];

  std::vector<std::pair<ProcessId, Tick>> crashes;
  crashes.reserve(subset.size());
  for (const ProcessId id : subset) {
    const std::size_t digit = offset % options_.tickGrid.size();
    offset /= options_.tickGrid.size();
    crashes.emplace_back(id, options_.tickGrid[digit]);
  }

  Scenario scenario = base_;
  if (scenario.family == Family::kCompose || scenario.family == Family::kFd)
    scenario.compose.crashes = std::move(crashes);
  else if (scenario.family == Family::kSvc)
    scenario.svc.crashes = std::move(crashes);
  else
    scenario.raft.crashes = std::move(crashes);
  return scenario;
}

// ---------------------------------------------------------------------------
// RestartScheduleStrategy

namespace {
/// Svc restart cells: 100 open-loop commands per node at 0.05 per tick, so
/// emission spans the 2000 ticks the svc grid's crash ticks cover.
constexpr std::uint64_t kSvcCommandsPerNode = 100;
constexpr double kSvcArrivalsPerTick = 0.05;
}  // namespace

RestartScheduleStrategy::Options RestartScheduleStrategy::Options::svc() {
  Options options;
  options.crashTicks = {300, 700, 1100, 1500, 1900};
  options.downtimes = {20, 150, 400};
  options.seedsPerSchedule = 4;
  return options;
}

RestartScheduleStrategy::RestartScheduleStrategy(Scenario base,
                                                 Options options)
    : base_(std::move(base)), options_(std::move(options)) {
  if (base_.family != Family::kRaft && base_.family != Family::kSvc)
    throw std::invalid_argument(
        "restart-schedule enumeration needs the raft or svc family");
  if (options_.crashTicks.empty() || options_.downtimes.empty() ||
      options_.seedsPerSchedule == 0)
    throw std::invalid_argument("restart-schedule strategy needs a grid");

  const std::size_t n = base_.processCount();
  const std::size_t budget = std::min(options_.maxRestarts, n);

  std::vector<ProcessId> current;
  const auto emit = [&](auto&& self, std::size_t firstId,
                        std::size_t remaining) -> void {
    if (remaining == 0) {
      subsets_.push_back(current);
      return;
    }
    for (std::size_t id = firstId; id + remaining <= n; ++id) {
      current.push_back(static_cast<ProcessId>(id));
      self(self, id + 1, remaining - 1);
      current.pop_back();
    }
  };
  for (std::size_t size = 0; size <= budget; ++size) emit(emit, 0, size);

  const std::size_t grid =
      options_.crashTicks.size() * options_.downtimes.size();
  subsetStart_.reserve(subsets_.size());
  for (const auto& subset : subsets_) {
    subsetStart_.push_back(total_);
    std::size_t assignments = options_.seedsPerSchedule;
    for (std::size_t k = 0; k < subset.size(); ++k) assignments *= grid;
    total_ += assignments;
  }
}

Scenario RestartScheduleStrategy::generate(std::size_t index) const {
  const auto it = std::upper_bound(subsetStart_.begin(), subsetStart_.end(),
                                   index);
  const std::size_t subsetIndex =
      static_cast<std::size_t>(it - subsetStart_.begin()) - 1;
  const std::vector<ProcessId>& subset = subsets_[subsetIndex];
  std::size_t offset = index - subsetStart_[subsetIndex];

  const std::size_t seedOffset = offset % options_.seedsPerSchedule;
  offset /= options_.seedsPerSchedule;

  std::vector<compose::RestartEvent> restarts;
  restarts.reserve(subset.size());
  for (const ProcessId id : subset) {
    std::size_t digit = offset % options_.crashTicks.size();
    offset /= options_.crashTicks.size();
    const Tick at = options_.crashTicks[digit];
    digit = offset % options_.downtimes.size();
    offset /= options_.downtimes.size();
    restarts.push_back({id, at, options_.downtimes[digit]});
  }

  Scenario scenario = base_;
  if (scenario.family == Family::kSvc) {
    auto& config = scenario.svc;
    config.restarts = std::move(restarts);
    config.service.durable = true;
    config.workload.closedLoop = false;
    config.workload.commandsPerNode = kSvcCommandsPerNode;
    config.workload.arrivalsPerTick = kSvcArrivalsPerTick;
  } else {
    scenario.raft.restarts = std::move(restarts);
    scenario.raft.dropProbability =
        std::max(scenario.raft.dropProbability, options_.dropProbability);
  }
  scenario.setSeed(options_.seedBase + seedOffset);
  return scenario;
}

// ---------------------------------------------------------------------------
// OracleQualityStrategy

OracleQualityStrategy::OracleQualityStrategy(Scenario base, Options options)
    : base_(std::move(base)), options_(std::move(options)) {
  if (base_.family != Family::kFd && base_.family != Family::kCompose)
    throw std::invalid_argument(
        "oracle-quality exploration needs the fd (or compose) family");
  const auto& registry = compose::registry();
  if (registry.driver(base_.compose.driver).capability.oracle ==
      compose::OracleRequirement::kNone)
    throw std::invalid_argument(
        "oracle-quality exploration needs an oracle-consuming driver "
        "(ct-coordinator, p-coordinator)");
  if (options_.oracles.empty() || options_.stabilizeTicks.empty() ||
      options_.noises.empty() || options_.completenessLags.empty() ||
      options_.crashSchedules.empty() || options_.seedsPerCell == 0)
    throw std::invalid_argument("oracle-quality strategy needs a grid");

  for (const std::string& oracle : options_.oracles) {
    for (const Tick stabilizeAt : options_.stabilizeTicks) {
      for (const double noise : options_.noises) {
        for (const Tick lag : options_.completenessLags) {
          fd::OracleKnobs knobs;
          knobs.completenessLag = lag;
          knobs.stabilizeAt = stabilizeAt;
          knobs.noise = noise;
          // Quality points the registry rejects (noisy perfect-p; any
          // oracle below the driver's requirement) are not algorithms to
          // sweep — drop them here so every enumerated index runs.
          if (registry.validateOracle(base_.compose.driver, oracle, knobs))
            continue;
          for (std::size_t s = 0; s < options_.crashSchedules.size(); ++s)
            cells_.push_back({oracle, knobs, s});
        }
      }
    }
  }
  if (cells_.empty())
    throw std::invalid_argument(
        "oracle-quality grid is empty after registry validation");
}

Scenario OracleQualityStrategy::generate(std::size_t index) const {
  const Cell& cell = cells_[index / options_.seedsPerCell];
  Scenario scenario = base_;
  scenario.compose.oracle = cell.oracle;
  scenario.compose.oracleKnobs = cell.knobs;
  scenario.compose.crashes = options_.crashSchedules[cell.crashSchedule];
  scenario.setSeed(options_.seedBase + index % options_.seedsPerCell);
  return scenario;
}

// ---------------------------------------------------------------------------
// RoundSkewStrategy

RoundSkewStrategy::RoundSkewStrategy(Scenario base, Options options)
    : base_(std::move(base)), options_(std::move(options)) {
  if (base_.family != Family::kCompose && base_.family != Family::kFd)
    throw std::invalid_argument(
        "round-skew exploration needs the compose (or fd) family");
  if (options_.policies.empty() || options_.maxDelays.empty() ||
      options_.adversaryBudgets.empty() || options_.seedsPerCell == 0)
    throw std::invalid_argument("round-skew strategy needs a grid");

  const auto& registry = compose::registry();
  for (const std::string& name : options_.policies) {
    const auto policy = parseSchedulingPolicy(name);
    if (!policy)
      throw std::invalid_argument("round-skew: unknown scheduling policy '" +
                                  name + "'");
    // Policies the registry rejects for this pairing are not algorithms to
    // sweep — drop them here so every enumerated index runs.
    if (registry.validateScheduling(base_.compose.detector,
                                    base_.compose.driver, *policy))
      continue;
    for (const Tick maxDelay : options_.maxDelays)
      for (const Tick budget : options_.adversaryBudgets)
        cells_.push_back({*policy, maxDelay, budget});
  }
  if (cells_.empty())
    throw std::invalid_argument(
        "round-skew grid is empty after registry validation (the base "
        "pairing admits no swept scheduling policy)");
}

Scenario RoundSkewStrategy::generate(std::size_t index) const {
  const Cell& cell = cells_[index / options_.seedsPerCell];
  Scenario scenario = base_;
  scenario.compose.scheduler = cell.policy;
  scenario.compose.maxDelay =
      std::max(scenario.compose.minDelay, cell.maxDelay);
  if (cell.adversaryBudget > 0) {
    harness::AdversaryOptions adversary;
    adversary.extraDelayMax = cell.adversaryBudget;
    adversary.seed = options_.seedBase + index;
    scenario.compose.adversary = adversary;
  }
  scenario.setSeed(options_.seedBase + index % options_.seedsPerCell);
  return scenario;
}

// ---------------------------------------------------------------------------
// SvcPipelineStrategy

SvcPipelineStrategy::SvcPipelineStrategy(Scenario base, Options options)
    : base_(std::move(base)), options_(std::move(options)) {
  if (base_.family != Family::kSvc)
    throw std::invalid_argument(
        "svc-pipeline enumeration needs the svc family");
  if (options_.windows.empty() || options_.batchCaps.empty() ||
      options_.crashTicks.empty() || options_.downtimes.empty() ||
      options_.seedsPerCell == 0)
    throw std::invalid_argument("svc-pipeline strategy needs a grid");

  for (const std::uint64_t window : options_.windows) {
    for (const std::size_t batchMax : options_.batchCaps) {
      Cell cell;
      cell.window = window;
      cell.batchMax = batchMax;
      cells_.push_back(cell);  // the fault-free run
      for (const Tick at : options_.crashTicks) {
        cell.fault = Cell::Fault::kCrash;
        cell.at = at;
        cells_.push_back(cell);
        cell.fault = Cell::Fault::kRestart;
        for (const Tick downtime : options_.downtimes) {
          cell.downtime = downtime;
          cells_.push_back(cell);
        }
      }
    }
  }
}

Scenario SvcPipelineStrategy::generate(std::size_t index) const {
  const Cell& cell = cells_[index / options_.seedsPerCell];
  Scenario scenario = base_;
  auto& config = scenario.svc;
  config.service.window = cell.window;
  config.service.batchMax = cell.batchMax;
  config.crashes.clear();
  config.restarts.clear();
  // Fault the second node: node 0 stays the reference commit timeline.
  const ProcessId victim = config.n > 1 ? 1 : 0;
  switch (cell.fault) {
    case Cell::Fault::kNone: break;
    case Cell::Fault::kCrash:
      config.crashes.emplace_back(victim, cell.at);
      break;
    case Cell::Fault::kRestart:
      config.restarts.push_back({victim, cell.at, cell.downtime});
      // Restart cells exercise the journal + quarantine recovery path.
      config.service.durable = true;
      break;
  }
  scenario.setSeed(options_.seedBase + index % options_.seedsPerCell);
  return scenario;
}

// ---------------------------------------------------------------------------
// CompositeStrategy

CompositeStrategy::CompositeStrategy(
    std::string name, std::vector<std::unique_ptr<ExplorationStrategy>> parts)
    : name_(std::move(name)), parts_(std::move(parts)) {
  for (const auto& part : parts_) total_ += part->size();
}

Scenario CompositeStrategy::generate(std::size_t index) const {
  for (const auto& part : parts_) {
    if (index < part->size()) return part->generate(index);
    index -= part->size();
  }
  throw std::out_of_range("composite strategy index out of range");
}

}  // namespace ooc::check
