#include "core/properties.hpp"

#include <algorithm>

namespace ooc {

RoundAudit auditRound(const std::vector<Value>& inputs,
                      const std::vector<std::optional<Outcome>>& outcomes,
                      const AuditOptions& options) {
  RoundAudit audit;

  // Classify.
  std::optional<Value> commitValue;
  std::optional<Value> adoptValue;
  for (const auto& outcome : outcomes) {
    if (!outcome) continue;
    switch (outcome->confidence) {
      case Confidence::kCommit:
        audit.anyCommit = true;
        if (!commitValue) commitValue = outcome->value;
        break;
      case Confidence::kAdopt:
        audit.anyAdopt = true;
        if (!adoptValue) adoptValue = outcome->value;
        break;
      case Confidence::kVacillate:
        audit.anyVacillate = true;
        break;
    }
  }

  // Validity: every returned value is someone's input.
  for (const auto& outcome : outcomes) {
    if (!outcome) continue;
    if (outcome->confidence == Confidence::kAdopt &&
        !options.requireAdoptValidity) {
      continue;
    }
    if (outcome->confidence == Confidence::kVacillate &&
        !options.requireVacillateValidity) {
      continue;
    }
    if (std::find(inputs.begin(), inputs.end(), outcome->value) ==
        inputs.end()) {
      audit.validity = false;
    }
  }

  // Convergence: unanimous inputs force unanimous commits.
  const bool unanimous =
      !inputs.empty() &&
      std::all_of(inputs.begin(), inputs.end(),
                  [&](Value v) { return v == inputs.front(); });
  if (unanimous) {
    for (const auto& outcome : outcomes) {
      if (!outcome) continue;
      if (outcome->confidence != Confidence::kCommit ||
          outcome->value != inputs.front()) {
        audit.convergence = false;
      }
    }
  }

  // Coherence over adopt & commit.
  if (commitValue) {
    for (const auto& outcome : outcomes) {
      if (!outcome) continue;
      if (outcome->confidence == Confidence::kVacillate ||
          outcome->value != *commitValue) {
        audit.coherenceAdoptCommit = false;
      }
    }
  }

  // Coherence over vacillate & adopt.
  if (options.checkVacillateAdoptCoherence && !commitValue && adoptValue) {
    for (const auto& outcome : outcomes) {
      if (!outcome) continue;
      if (outcome->confidence == Confidence::kAdopt &&
          outcome->value != *adoptValue) {
        audit.coherenceVacillateAdopt = false;
      }
    }
  }

  return audit;
}

RoundView collectRound(const std::vector<const ConsensusProcess*>& processes,
                       Round m) {
  RoundView view;
  view.inputs.reserve(processes.size());
  view.outcomes.reserve(processes.size());
  for (const ConsensusProcess* process : processes) {
    const auto& rounds = process->rounds();
    if (m == 0 || rounds.size() < m) continue;  // never started round m
    const RoundRecord& record = rounds[m - 1];
    view.inputs.push_back(record.detectorInput);
    view.outcomes.push_back(record.detectorOutcome);
  }
  return view;
}

Round maxRoundStarted(
    const std::vector<const ConsensusProcess*>& processes) {
  Round highest = 0;
  for (const ConsensusProcess* process : processes)
    highest = std::max(highest, static_cast<Round>(process->rounds().size()));
  return highest;
}

std::vector<RoundAudit> auditAllRounds(
    const std::vector<const ConsensusProcess*>& processes,
    const AuditOptions& options) {
  std::vector<RoundAudit> audits;
  const Round highest = maxRoundStarted(processes);
  for (Round m = 1; m <= highest; ++m) {
    const RoundView view = collectRound(processes, m);
    audits.push_back(auditRound(view.inputs, view.outcomes, options));
  }
  return audits;
}

}  // namespace ooc
