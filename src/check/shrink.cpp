#include "check/shrink.hpp"

#include <algorithm>
#include <utility>
#include <vector>

namespace ooc::check {
namespace {

bool allEqual(const std::vector<Value>& values) {
  return std::adjacent_find(values.begin(), values.end(),
                            std::not_equal_to<>()) == values.end();
}

template <typename T>
void eraseAt(std::vector<T>& items, std::size_t i) {
  items.erase(items.begin() + static_cast<std::ptrdiff_t>(i));
}

/// The one-step reductions of `base` under construction: add() appends a
/// copy of `base` with one edit applied to the family's config.
template <typename Config>
class Candidates {
 public:
  Candidates(const Scenario& base, Config Scenario::* member,
             std::vector<Scenario>& out)
      : base_(base), member_(member), out_(out) {}

  template <typename Edit>
  void add(Edit edit) const {
    Scenario candidate = base_;
    edit(candidate.*member_);
    out_.push_back(std::move(candidate));
  }

 private:
  const Scenario& base_;
  Config Scenario::* member_;
  std::vector<Scenario>& out_;
};

/// Drops every fault entry naming a process the shrunk config lost. Raft
/// and svc configs carry restarts too; compositions have crashes only.
template <typename Config>
void dropFaultsAbove(Config& config) {
  const std::size_t n = config.n;
  std::erase_if(config.crashes,
                [n](const auto& crash) { return crash.first >= n; });
  if constexpr (requires { config.restarts; })
    std::erase_if(config.restarts,
                  [n](const auto& event) { return event.id >= n; });
}

/// Fault-schedule reductions, smaller schedules first: drop each crash,
/// pull each crash earlier, then drop each restart, pull each restart
/// earlier and shorten each downtime.
template <typename Config>
void eachFaultReduction(const Config& config,
                        const Candidates<Config>& candidates) {
  for (std::size_t i = 0; i < config.crashes.size(); ++i)
    candidates.add([i](Config& c) { eraseAt(c.crashes, i); });
  for (std::size_t i = 0; i < config.crashes.size(); ++i) {
    if (config.crashes[i].second > 1)
      candidates.add([i](Config& c) { c.crashes[i].second /= 2; });
  }
  if constexpr (requires { config.restarts; }) {
    for (std::size_t i = 0; i < config.restarts.size(); ++i)
      candidates.add([i](Config& c) { eraseAt(c.restarts, i); });
    for (std::size_t i = 0; i < config.restarts.size(); ++i) {
      if (config.restarts[i].at > 1)
        candidates.add([i](Config& c) { c.restarts[i].at /= 2; });
      if (config.restarts[i].downtime > 1)
        candidates.add([i](Config& c) { c.restarts[i].downtime /= 2; });
    }
  }
}

template <typename Config>
void eachAdversaryReduction(const Config& config,
                            const Candidates<Config>& candidates) {
  if (!config.adversary.enabled()) return;
  candidates.add([](Config& c) { c.adversary.extraDelayMax = 0; });
  if (config.adversary.extraDelayMax > 1)
    candidates.add([](Config& c) { c.adversary.extraDelayMax /= 2; });
}

/// Raft and compositions only: the service has no input vector.
template <typename Config>
void eachInputSimplification(const Config& config,
                             const Candidates<Config>& candidates) {
  if (config.inputs.empty() || allEqual(config.inputs)) return;
  for (const Value v : {Value{0}, Value{1}}) {
    candidates.add(
        [v](Config& c) { std::fill(c.inputs.begin(), c.inputs.end(), v); });
  }
}

/// All one-step reductions of `base`, most aggressive first.
std::vector<Scenario> reductions(const Scenario& base) {
  std::vector<Scenario> out;
  switch (base.family) {
    case Family::kRaft: {
      const auto& config = base.raft;
      const Candidates candidates(base, &Scenario::raft, out);
      eachFaultReduction(config, candidates);
      for (std::size_t i = 0; i < config.partitions.size(); ++i)
        candidates.add([i](auto& c) { eraseAt(c.partitions, i); });
      if (config.n > 3) {
        candidates.add([](auto& c) {
          --c.n;
          if (!c.inputs.empty()) c.inputs.resize(c.n);
          dropFaultsAbove(c);
          for (auto& partition : c.partitions)
            if (partition.groups.size() > c.n) partition.groups.resize(c.n);
        });
      }
      if (config.dropProbability > 0.0)
        candidates.add([](auto& c) { c.dropProbability = 0.0; });
      if (config.duplicateProbability > 0.0)
        candidates.add([](auto& c) { c.duplicateProbability = 0.0; });
      if (config.maxDelay > config.minDelay)
        candidates.add([](auto& c) { c.maxDelay = c.minDelay; });
      eachAdversaryReduction(config, candidates);
      eachInputSimplification(config, candidates);
      break;
    }
    case Family::kCompose:
    case Family::kFd: {
      const auto& config = base.compose;
      const Candidates candidates(base, &Scenario::compose, out);
      eachFaultReduction(config, candidates);
      // Scheduler reduction: a counterexample that survives under the
      // lockstep policy doesn't need round skew to manifest — try the
      // synchronized schedule before blaming the scheduling policy. (The
      // ooo-driver → event-driven step is not a reduction: the policies
      // are siblings, not a ladder.)
      if (config.scheduler != SchedulingPolicy::kLockstep)
        candidates.add(
            [](auto& c) { c.scheduler = SchedulingPolicy::kLockstep; });
      // Oracle-quality reductions: a counterexample that survives with a
      // quieter/faster oracle is a stronger counterexample.
      if (!config.oracle.empty()) {
        if (config.oracleKnobs.noise > 0.0)
          candidates.add([](auto& c) { c.oracleKnobs.noise = 0.0; });
        if (config.oracleKnobs.stabilizeAt > 0) {
          candidates.add([](auto& c) { c.oracleKnobs.stabilizeAt = 0; });
          candidates.add([](auto& c) { c.oracleKnobs.stabilizeAt /= 2; });
        }
        if (config.oracleKnobs.completenessLag > 1)
          candidates.add([](auto& c) { c.oracleKnobs.completenessLag /= 2; });
      }
      if (config.byzantineCount > 0)
        candidates.add([](auto& c) { --c.byzantineCount; });
      if (config.n > 4) {
        candidates.add([](auto& c) {
          --c.n;
          c.t.reset();  // recompute the default threshold for the new n
          if (c.byzantineCount >= c.n) c.byzantineCount = c.n - 1;
          dropFaultsAbove(c);
        });
      }
      if (config.maxDelay > config.minDelay) {
        candidates.add([](auto& c) { c.maxDelay = c.minDelay; });
        const Tick mid = (config.minDelay + config.maxDelay) / 2;
        if (mid != config.minDelay && mid != config.maxDelay)
          candidates.add([mid](auto& c) { c.maxDelay = mid; });
      }
      eachAdversaryReduction(config, candidates);
      eachInputSimplification(config, candidates);
      break;
    }
    case Family::kSvc: {
      const auto& config = base.svc;
      const Candidates candidates(base, &Scenario::svc, out);
      eachFaultReduction(config, candidates);
      // Shallower pipeline, smaller batches, less traffic: a finding that
      // survives with window=1 batch=1 is nearly the sequential log.
      if (config.service.window > 1)
        candidates.add([](auto& c) { c.service.window /= 2; });
      if (config.service.batchMax > 1)
        candidates.add([](auto& c) { c.service.batchMax /= 2; });
      if (config.workload.commandsPerNode > 2)
        candidates.add([](auto& c) { c.workload.commandsPerNode /= 2; });
      if (config.n > 3) {
        candidates.add([](auto& c) {
          --c.n;
          c.t.reset();
          dropFaultsAbove(c);
        });
      }
      if (config.maxDelay > config.minDelay)
        candidates.add([](auto& c) { c.maxDelay = c.minDelay; });
      eachAdversaryReduction(config, candidates);
      break;
    }
  }
  return out;
}

}  // namespace

ShrinkResult shrinkCounterexample(Scenario scenario,
                                  const Invariant& invariant,
                                  const ShrinkOptions& options) {
  ShrinkResult result;
  result.scenario = std::move(scenario);
  bool progress = true;
  while (progress && result.attempts < options.maxAttempts) {
    progress = false;
    for (Scenario& candidate : reductions(result.scenario)) {
      if (result.attempts >= options.maxAttempts) break;
      ++result.attempts;
      if (invariant.check(candidate, runScenario(candidate)).has_value()) {
        result.scenario = std::move(candidate);
        ++result.accepted;
        progress = true;
        break;  // restart the pass from the smaller scenario
      }
    }
  }
  return result;
}

}  // namespace ooc::check
