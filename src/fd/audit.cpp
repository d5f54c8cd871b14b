#include "fd/audit.hpp"

#include <algorithm>
#include <vector>

namespace ooc::fd {
namespace {

/// The ticks the audit examines: both ends of the window, every schedule
/// transition (±1, where suspicion flips), the advertised bound (±1), and
/// an even grid so long quiet stretches are not skipped entirely.
std::vector<Tick> sampleTicks(const FaultSchedule& schedule, Tick bound,
                              Tick horizon) {
  std::vector<Tick> ticks{0, horizon};
  const auto add = [&](Tick at) {
    if (at <= horizon) ticks.push_back(at);
  };
  const Tick last = schedule.lastTransition();
  add(last);
  if (last > 0) add(last - 1);
  add(last + 1);
  if (bound <= horizon) {
    add(bound);
    if (bound > 0) add(bound - 1);
    add(bound + 1);
  }
  constexpr Tick kGridPoints = 32;
  for (Tick i = 1; i < kGridPoints; ++i)
    add(horizon / kGridPoints * i);
  std::sort(ticks.begin(), ticks.end());
  ticks.erase(std::unique(ticks.begin(), ticks.end()), ticks.end());
  return ticks;
}

std::string where(ProcessId viewer, ProcessId target, Tick at) {
  return "viewer " + std::to_string(viewer) + ", target " +
         std::to_string(target) + ", tick " + std::to_string(at);
}

}  // namespace

OracleAudit auditOracle(const Oracle& oracle, const FaultSchedule& schedule,
                        Tick horizon) {
  OracleAudit audit;
  audit.horizon = horizon;
  const std::size_t n = schedule.processCount();
  const Tick bound = oracle.stabilizationBound();
  const std::vector<Tick> ticks = sampleTicks(schedule, bound, horizon);
  // FaultSchedule::correct and firstDownAt scan a process's down
  // intervals; the loops below need them per viewer x target x tick, so
  // each is asked once per process here.
  std::vector<char> correct(n);
  std::vector<Tick> firstDown(n);
  for (ProcessId id = 0; id < n; ++id) {
    correct[id] = schedule.correct(id);
    firstDown[id] = schedule.firstDownAt(id).value_or(~Tick{0});
  }
  const auto isCorrect = [&](ProcessId id) {
    return id < n && correct[id] != 0;
  };

  // Strong completeness, checked at the horizon (every lag window has
  // elapsed by then — runComposition sizes the horizon accordingly).
  for (ProcessId viewer = 0; viewer < n && audit.completenessOk; ++viewer) {
    if (!isCorrect(viewer)) continue;
    for (ProcessId target = 0; target < n; ++target) {
      if (isCorrect(target)) continue;
      if (!oracle.suspects(viewer, target, horizon)) {
        audit.completenessOk = false;
        audit.completenessDetail =
            "crashed process never suspected: " +
            where(viewer, target, horizon);
        break;
      }
    }
  }

  // Accuracy. P promises strong accuracy at every tick against every
  // not-yet-failed target; the eventual classes promise it from the
  // advertised bound on, against correct (finally-up) targets.
  const bool perfect = oracle.oracleClass() == OracleClass::kPerfect;
  for (const Tick at : ticks) {
    if (!audit.accuracyOk) break;
    if (!perfect && at < bound) continue;
    for (ProcessId viewer = 0; viewer < n && audit.accuracyOk; ++viewer) {
      if (!isCorrect(viewer)) continue;
      for (ProcessId target = 0; target < n; ++target) {
        const bool protectedTarget =
            perfect ? firstDown[target] > at
                    : (isCorrect(target) && at >= bound);
        if (!protectedTarget) continue;
        if (oracle.suspects(viewer, target, at)) {
          audit.accuracyOk = false;
          audit.accuracyDetail =
              std::string(perfect ? "live" : "correct") +
              " process falsely suspected" +
              (perfect ? "" : " after the advertised stabilization bound " +
                                  std::to_string(bound)) +
              ": " + where(viewer, target, at);
          break;
        }
      }
    }
  }

  // Leader convergence. "Eventually" has to land inside the horizon: an
  // oracle that stabilizes past the tick budget cannot carry a
  // rotating-coordinator round to termination, which is the liveness
  // counterexample the checker reports for deliberately-weakened knobs.
  if (bound > horizon) {
    audit.convergenceOk = false;
    audit.convergenceDetail =
        "oracle does not stabilize within the tick budget (advertised "
        "bound " +
        std::to_string(bound) + " > horizon " + std::to_string(horizon) + ")";
    return audit;
  }
  for (const Tick at : ticks) {
    if (!audit.convergenceOk || at < bound) continue;
    ProcessId agreed = 0;
    bool first = true;
    for (ProcessId viewer = 0; viewer < n; ++viewer) {
      if (!isCorrect(viewer)) continue;
      const ProcessId led = oracle.leader(viewer, at);
      if (!isCorrect(led)) {
        audit.convergenceOk = false;
        audit.convergenceDetail = "viewer " + std::to_string(viewer) +
                                  " trusts crashed leader " +
                                  std::to_string(led) + " at tick " +
                                  std::to_string(at);
        break;
      }
      if (first) {
        agreed = led;
        first = false;
      } else if (led != agreed) {
        audit.convergenceOk = false;
        audit.convergenceDetail =
            "correct viewers split between leaders " + std::to_string(agreed) +
            " and " + std::to_string(led) + " at tick " + std::to_string(at);
        break;
      }
    }
  }
  return audit;
}

}  // namespace ooc::fd
