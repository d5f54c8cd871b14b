#include "compose/registry.hpp"

#include <sstream>
#include <stdexcept>

#include "benor/async_byzantine.hpp"
#include "benor/byzantine_vac.hpp"
#include "benor/reconciliators.hpp"
#include "benor/vac.hpp"
#include "compose/timer_reconciliator.hpp"
#include "core/vac_from_ac.hpp"
#include "fd/coordinator.hpp"
#include "phaseking/adopt_commit.hpp"
#include "phaseking/byzantine.hpp"
#include "phaseking/conciliator.hpp"
#include "phaseking/queen.hpp"
#include "raft/decentralized.hpp"

namespace ooc::compose {

const char* toString(DetectorClass detectorClass) noexcept {
  switch (detectorClass) {
    case DetectorClass::kAdoptCommit: return "adopt-commit";
    case DetectorClass::kVacillateAdoptCommit: return "vacillate-adopt-commit";
  }
  return "?";
}

const char* toString(DriverClass driverClass) noexcept {
  switch (driverClass) {
    case DriverClass::kConciliator: return "conciliator";
    case DriverClass::kReconciliator: return "reconciliator";
  }
  return "?";
}

const char* toString(FaultModel model) noexcept {
  switch (model) {
    case FaultModel::kCrash: return "crash";
    case FaultModel::kByzantine: return "byzantine";
  }
  return "?";
}

const char* toString(InvocationMode mode) noexcept {
  switch (mode) {
    case InvocationMode::kLockstep: return "lockstep";
    case InvocationMode::kAsync: return "async";
    case InvocationMode::kAny: return "any";
  }
  return "?";
}

const char* toString(OracleRequirement requirement) noexcept {
  switch (requirement) {
    case OracleRequirement::kNone: return "none";
    case OracleRequirement::kEventualLeader: return "eventual-leader";
    case OracleRequirement::kPerfect: return "perfect";
  }
  return "?";
}

phaseking::ByzantineStrategy parseRoyalStrategy(const std::string& name) {
  using S = phaseking::ByzantineStrategy;
  if (name == "silent") return S::kSilent;
  if (name == "random") return S::kRandom;
  if (name == "equivocate") return S::kEquivocate;
  if (name == "lying-king") return S::kLyingKing;
  if (name == "anti-king") return S::kAntiKing;
  throw std::invalid_argument("unknown byzantine strategy '" + name +
                              "'; known: silent, random, equivocate, "
                              "lying-king, anti-king");
}

namespace {

std::string joinNames(const std::vector<std::string>& names) {
  std::ostringstream os;
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (i > 0) os << ", ";
    os << names[i];
  }
  return os.str();
}

benor::AsyncByzantineStrategy parseAsyncStrategy(const std::string& name) {
  using S = benor::AsyncByzantineStrategy;
  if (name == "silent") return S::kSilent;
  if (name == "equivocate") return S::kEquivocate;
  if (name == "random") return S::kRandom;
  if (name == "contrarian") return S::kContrarian;
  throw std::invalid_argument("unknown async byzantine strategy '" + name +
                              "'; known: silent, equivocate, random, "
                              "contrarian");
}

void registerBuiltins(Registry& reg) {
  // --- detectors -----------------------------------------------------------
  {
    DetectorEntry e;
    e.name = "benor-vac";
    e.capability = {DetectorClass::kVacillateAdoptCommit, FaultModel::kCrash,
                    InvocationMode::kAsync, /*tDivisor=*/2};
    e.make = [](const ObjectParams& p) { return benor::BenOrVac::factory(p.t); };
    reg.registerDetector(std::move(e));
  }
  {
    DetectorEntry e;
    e.name = "byzantine-benor-vac";
    e.capability = {DetectorClass::kVacillateAdoptCommit,
                    FaultModel::kByzantine, InvocationMode::kAsync,
                    /*tDivisor=*/5};
    e.make = [](const ObjectParams& p) {
      return benor::ByzantineBenOrVac::factory(p.t);
    };
    e.makeFaulty = [](const ObjectParams&, const std::string& strategy) {
      return std::make_unique<benor::AsyncByzantine>(
          parseAsyncStrategy(strategy));
    };
    reg.registerDetector(std::move(e));
  }
  {
    DetectorEntry e;
    e.name = "vac-from-two-ac";
    // The §5 constructions stacked: AC obtained by downgrading Ben-Or's
    // VAC (vacillate -> adopt), then VAC re-synthesized from two such ACs.
    e.capability = {DetectorClass::kVacillateAdoptCommit, FaultModel::kCrash,
                    InvocationMode::kAsync, /*tDivisor=*/2};
    e.make = [](const ObjectParams& p) {
      return VacFromTwoAc::liftFactory(
          AcFromVac::liftFactory(benor::BenOrVac::factory(p.t)));
    };
    reg.registerDetector(std::move(e));
  }
  {
    DetectorEntry e;
    e.name = "decentralized-vac";
    e.capability = {DetectorClass::kVacillateAdoptCommit, FaultModel::kCrash,
                    InvocationMode::kAsync, /*tDivisor=*/2};
    e.make = [](const ObjectParams& p) {
      return raft::DecentralizedRaftVac::factory(p.t);
    };
    reg.registerDetector(std::move(e));
  }
  {
    DetectorEntry e;
    e.name = "phaseking-ac";
    e.capability = {DetectorClass::kAdoptCommit, FaultModel::kByzantine,
                    InvocationMode::kLockstep, /*tDivisor=*/3};
    e.capability.toleratesSkew = false;  // the tick barrier IS its calendar
    e.make = [](const ObjectParams& p) {
      return phaseking::PhaseKingAc::factory(p.t);
    };
    e.makeFaulty = [](const ObjectParams&, const std::string& strategy) {
      return std::make_unique<phaseking::PhaseKingByzantine>(
          parseRoyalStrategy(strategy),
          phaseking::PhaseKingByzantine::Wire::kTemplate);
    };
    reg.registerDetector(std::move(e));
  }
  {
    DetectorEntry e;
    e.name = "phasequeen-ac";
    e.capability = {DetectorClass::kAdoptCommit, FaultModel::kByzantine,
                    InvocationMode::kLockstep, /*tDivisor=*/4};
    e.capability.toleratesSkew = false;
    e.make = [](const ObjectParams& p) {
      return phaseking::PhaseQueenAc::factory(p.t);
    };
    e.makeFaulty = [](const ObjectParams&, const std::string& strategy) {
      return std::make_unique<phaseking::PhaseQueenByzantine>(
          parseRoyalStrategy(strategy));
    };
    reg.registerDetector(std::move(e));
  }

  // --- drivers -------------------------------------------------------------
  {
    DriverEntry e;
    e.name = "local-coin";
    e.capability = {DriverClass::kReconciliator, InvocationMode::kAny,
                    /*toleratesByzantine=*/true, /*requiresEveryProcess=*/false};
    e.make = [](const ObjectParams&) {
      return benor::CoinReconciliator::factory();
    };
    reg.registerDriver(std::move(e));
  }
  {
    DriverEntry e;
    e.name = "common-coin";
    e.capability = {DriverClass::kReconciliator, InvocationMode::kAny,
                    /*toleratesByzantine=*/true, /*requiresEveryProcess=*/false};
    e.make = [](const ObjectParams& p) {
      // The shared coin is derived from the run seed: common to all
      // processes, independent across rounds and across runs.
      return benor::CommonCoinReconciliator::factory(p.seed ^ 0x5EEDC01Dull);
    };
    reg.registerDriver(std::move(e));
  }
  {
    DriverEntry e;
    e.name = "biased-coin";
    e.capability = {DriverClass::kReconciliator, InvocationMode::kAny,
                    /*toleratesByzantine=*/true, /*requiresEveryProcess=*/false};
    e.make = [](const ObjectParams& p) {
      return benor::BiasedCoinReconciliator::factory(p.bias);
    };
    reg.registerDriver(std::move(e));
  }
  {
    DriverEntry e;
    e.name = "keep-value";
    e.capability = {DriverClass::kReconciliator, InvocationMode::kAny,
                    /*toleratesByzantine=*/true, /*requiresEveryProcess=*/false};
    // Returns whatever value the invoker holds — domain-agnostic, so it is
    // multivalued-capable (though it breaks no symmetry: a contended
    // multivalued instance may exhaust its round cap).
    e.capability.multivalued = true;
    e.make = [](const ObjectParams&) {
      return benor::KeepValueReconciliator::factory();
    };
    reg.registerDriver(std::move(e));
  }
  {
    DriverEntry e;
    e.name = "lottery";
    // Waits for n-t tickets counted over every sender, so a Byzantine
    // invoker could stuff the draw; crash model only.
    e.capability = {DriverClass::kReconciliator, InvocationMode::kAny,
                    /*toleratesByzantine=*/false, /*requiresEveryProcess=*/true};
    // Uniform choice among the invokers' tickets: the returned value is one
    // of the proposals, whatever their domain — the fair multivalued
    // driver the replicated-log layers build on (E16, src/svc/).
    e.capability.multivalued = true;
    e.make = [](const ObjectParams& p) {
      return benor::LotteryReconciliator::factory(p.t, p.seed ^ 0x107734ull);
    };
    reg.registerDriver(std::move(e));
  }
  {
    DriverEntry e;
    e.name = "timer";
    // Claims are trusted verbatim, and the timeout race needs a delay
    // spread: crash-model, asynchronous runs only.
    e.capability = {DriverClass::kReconciliator, InvocationMode::kAsync,
                    /*toleratesByzantine=*/false, /*requiresEveryProcess=*/false};
    // The timeout race measures the round's claim wave against armed
    // timers; under round skew a slow process's wave arrives after the
    // timeout already fired, so the driver requires lockstep scheduling.
    e.capability.toleratesSkew = false;
    e.make = [](const ObjectParams&) {
      return TimerReconciliator::factory(/*timeoutMin=*/5,
                                         /*timeoutSpread=*/40);
    };
    reg.registerDriver(std::move(e));
  }
  {
    DriverEntry e;
    e.name = "king-conciliator";
    e.capability = {DriverClass::kConciliator, InvocationMode::kLockstep,
                    /*toleratesByzantine=*/true, /*requiresEveryProcess=*/false};
    e.capability.toleratesSkew = false;
    e.make = [](const ObjectParams&) {
      return phaseking::KingConciliator::factory();
    };
    reg.registerDriver(std::move(e));
  }
  {
    DriverEntry e;
    e.name = "queen-conciliator";
    e.capability = {DriverClass::kConciliator, InvocationMode::kLockstep,
                    /*toleratesByzantine=*/true, /*requiresEveryProcess=*/false};
    e.capability.toleratesSkew = false;
    e.make = [](const ObjectParams&) {
      return phaseking::QueenConciliator::factory();
    };
    reg.registerDriver(std::move(e));
  }
  {
    DriverEntry e;
    e.name = "ct-coordinator";
    // Chandra–Toueg rotating coordinator under Ω-style trust: suspected
    // coordinators are abandoned for the invoker's own value. Claims are
    // trusted verbatim and the probe races message delay: crash-model,
    // asynchronous runs only. Every process must join the drive wave —
    // the round's coordinator has to fanout its claim even when its own
    // detector outcome was adopt/commit, or the vacillating waiters
    // deadlock probing a correct (never-suspected) coordinator.
    e.capability = {DriverClass::kReconciliator, InvocationMode::kAsync,
                    /*toleratesByzantine=*/false,
                    /*requiresEveryProcess=*/true,
                    OracleRequirement::kEventualLeader};
    e.capability.multivalued = true;  // adopts the coordinator's value
    e.makeWithOracle = [](const ObjectParams&,
                          std::shared_ptr<const fd::Oracle> oracle) {
      return fd::CoordinatorReconciliator::factory(
          std::move(oracle), fd::CoordinatorReconciliator::Trust::kEventualLeader);
    };
    reg.registerDriver(std::move(e));
  }
  {
    DriverEntry e;
    e.name = "p-coordinator";
    // Skip-ahead rotation: suspected coordinators are rotated past, which
    // is sound only under strong accuracy — validateOracle() rejects this
    // driver under the eventual-accuracy oracles. Every process drives for
    // the same reason as ct-coordinator: the claim must be fanned out even
    // on an adopt/commit outcome.
    e.capability = {DriverClass::kReconciliator, InvocationMode::kAsync,
                    /*toleratesByzantine=*/false,
                    /*requiresEveryProcess=*/true,
                    OracleRequirement::kPerfect};
    e.capability.multivalued = true;  // adopts the coordinator's value
    e.makeWithOracle = [](const ObjectParams&,
                          std::shared_ptr<const fd::Oracle> oracle) {
      return fd::CoordinatorReconciliator::factory(
          std::move(oracle), fd::CoordinatorReconciliator::Trust::kPerfect);
    };
    reg.registerDriver(std::move(e));
  }

  // --- oracles -------------------------------------------------------------
  const auto scheduleOracle = [](fd::OracleClass oracleClass) {
    return [oracleClass](const ObjectParams& p, const fd::OracleKnobs& knobs,
                         const fd::FaultSchedule& schedule) {
      return fd::makeScheduleOracle(oracleClass, knobs, schedule, p.seed);
    };
  };
  {
    OracleEntry e;
    e.name = "omega";
    e.capability = {fd::OracleClass::kOmega};
    e.make = scheduleOracle(fd::OracleClass::kOmega);
    reg.registerOracle(std::move(e));
  }
  {
    OracleEntry e;
    e.name = "diamond-s";
    e.capability = {fd::OracleClass::kEventuallyStrong};
    e.make = scheduleOracle(fd::OracleClass::kEventuallyStrong);
    reg.registerOracle(std::move(e));
  }
  {
    OracleEntry e;
    e.name = "perfect-p";
    e.capability = {fd::OracleClass::kPerfect};
    e.make = scheduleOracle(fd::OracleClass::kPerfect);
    reg.registerOracle(std::move(e));
  }
}

}  // namespace

void Registry::registerDetector(DetectorEntry entry) {
  if (hasDetector(entry.name))
    throw std::invalid_argument("detector '" + entry.name +
                                "' is already registered");
  detectors_.push_back(std::move(entry));
}

void Registry::registerDriver(DriverEntry entry) {
  if (hasDriver(entry.name))
    throw std::invalid_argument("driver '" + entry.name +
                                "' is already registered");
  drivers_.push_back(std::move(entry));
}

void Registry::registerOracle(OracleEntry entry) {
  if (hasOracle(entry.name))
    throw std::invalid_argument("oracle '" + entry.name +
                                "' is already registered");
  oracles_.push_back(std::move(entry));
}

const DetectorEntry& Registry::detector(const std::string& name) const {
  for (const DetectorEntry& entry : detectors_)
    if (entry.name == name) return entry;
  throw std::invalid_argument("unknown detector '" + name +
                              "'; known: " + joinNames(detectorNames()));
}

const DriverEntry& Registry::driver(const std::string& name) const {
  for (const DriverEntry& entry : drivers_)
    if (entry.name == name) return entry;
  throw std::invalid_argument("unknown driver '" + name +
                              "'; known: " + joinNames(driverNames()));
}

const OracleEntry& Registry::oracle(const std::string& name) const {
  for (const OracleEntry& entry : oracles_)
    if (entry.name == name) return entry;
  throw std::invalid_argument("unknown oracle '" + name +
                              "'; known: " + joinNames(oracleNames()));
}

bool Registry::hasDetector(const std::string& name) const noexcept {
  for (const DetectorEntry& entry : detectors_)
    if (entry.name == name) return true;
  return false;
}

bool Registry::hasDriver(const std::string& name) const noexcept {
  for (const DriverEntry& entry : drivers_)
    if (entry.name == name) return true;
  return false;
}

bool Registry::hasOracle(const std::string& name) const noexcept {
  for (const OracleEntry& entry : oracles_)
    if (entry.name == name) return true;
  return false;
}

std::vector<std::string> Registry::detectorNames() const {
  std::vector<std::string> names;
  names.reserve(detectors_.size());
  for (const DetectorEntry& entry : detectors_) names.push_back(entry.name);
  return names;
}

std::vector<std::string> Registry::driverNames() const {
  std::vector<std::string> names;
  names.reserve(drivers_.size());
  for (const DriverEntry& entry : drivers_) names.push_back(entry.name);
  return names;
}

std::vector<std::string> Registry::oracleNames() const {
  std::vector<std::string> names;
  names.reserve(oracles_.size());
  for (const OracleEntry& entry : oracles_) names.push_back(entry.name);
  return names;
}

std::optional<std::string> Registry::validatePairing(
    const std::string& detectorName, const std::string& driverName) const {
  const DetectorEntry& det = detector(detectorName);
  const DriverEntry& drv = driver(driverName);
  const std::string pair =
      "invalid pairing '" + detectorName + "+" + driverName + "': ";

  // Confidence-level rules — the paper's §5 asymmetry.
  if (det.capability.detectorClass == DetectorClass::kAdoptCommit &&
      drv.capability.driverClass == DriverClass::kReconciliator) {
    return pair +
           "an adopt-commit detector under the reconciliator template "
           "(Algorithm 1) would decide on adopt-level confidence, which the "
           "paper's §5 insufficiency argument shows can break "
           "agreement; pair '" +
           detectorName +
           "' with a conciliator, or lift it to VAC first (the "
           "vac-from-two-ac construction)";
  }
  if (det.capability.detectorClass == DetectorClass::kVacillateAdoptCommit &&
      drv.capability.driverClass == DriverClass::kConciliator) {
    return pair +
           "a vacillate-adopt-commit detector under the conciliator "
           "template (Algorithm 2) can return vacillate, which that "
           "template has no arm for; downgrade the detector to adopt-commit "
           "first (§5's AcFromVac direction)";
  }

  // Invocation mode: a kAny driver composes with either side.
  if (drv.capability.mode != InvocationMode::kAny &&
      drv.capability.mode != det.capability.mode) {
    return pair + "detector runs " + toString(det.capability.mode) +
           " but driver '" + driverName + "' requires " +
           toString(drv.capability.mode) + " invocation";
  }

  // Fault model: a Byzantine-tolerant detector must not be drained through
  // a driver whose waits trust every sender.
  if (det.capability.faultModel == FaultModel::kByzantine &&
      !drv.capability.toleratesByzantine) {
    return pair + "detector assumes Byzantine faults but driver '" +
           driverName + "' is crash-only (its waits trust every sender)";
  }
  return std::nullopt;
}

std::optional<std::string> Registry::validateOracle(
    const std::string& driverName, const std::string& oracleName,
    const fd::OracleKnobs& knobs) const {
  const DriverEntry& drv = driver(driverName);
  const OracleRequirement required = drv.capability.oracle;
  if (oracleName.empty()) {
    if (required == OracleRequirement::kNone) return std::nullopt;
    return "invalid oracle pairing '" + driverName + "+(none)': driver '" +
           driverName +
           "' is a rotating coordinator and consumes a failure-detector "
           "oracle (its probe asks which coordinators to trust), but the "
           "composition names none; add oracle=omega, diamond-s or "
           "perfect-p";
  }
  const OracleEntry& orc = oracle(oracleName);  // unknown names throw here
  const std::string pair =
      "invalid oracle pairing '" + driverName + "+" + oracleName + "': ";
  if (required == OracleRequirement::kNone) {
    return pair + "driver '" + driverName +
           "' consumes no oracle, so the attachment would silently change "
           "nothing — the oracle role is zero-cost for oracle-free "
           "pairings; drop the oracle or pick an oracle-guided driver "
           "(ct-coordinator, p-coordinator)";
  }
  if (required == OracleRequirement::kPerfect &&
      orc.capability.oracleClass != fd::OracleClass::kPerfect) {
    return pair + "driver '" + driverName +
           "' rotates past suspected coordinators, which is sound only "
           "under a perfect oracle's strong accuracy; under '" + oracleName +
           "' (eventual accuracy only) a falsely-suspected live coordinator "
           "would be skipped and two claimants could race — the "
           "failure-detector analogue of the paper's §5 insufficiency "
           "argument; use perfect-p";
  }
  if (orc.capability.oracleClass == fd::OracleClass::kPerfect &&
      knobs.noise > 0) {
    return pair + "a perfect oracle has strong accuracy (it never falsely "
           "suspects a live process), so oracle-noise must be 0; drop the "
           "noise or model a noisy detector with diamond-s";
  }
  return std::nullopt;
}

std::optional<std::string> Registry::validateScheduling(
    const std::string& detectorName, const std::string& driverName,
    SchedulingPolicy policy) const {
  const DetectorEntry& det = detector(detectorName);
  const DriverEntry& drv = driver(driverName);
  // Lockstep is the engine every registered object was written against:
  // always coherent.
  if (policy == SchedulingPolicy::kLockstep) return std::nullopt;

  const std::string pair = std::string("invalid scheduling '") +
                           toString(policy) + "' for pairing '" +
                           detectorName + "+" + driverName + "': ";
  // Lockstep-mode objects have no calendar without the tick barrier; the
  // skew question does not even arise for them.
  if (det.capability.mode == InvocationMode::kLockstep) {
    return pair + "detector '" + detectorName +
           "' is a lockstep object — its exchange calendar is the tick "
           "barrier that non-lockstep policies remove; the paper's §5 "
           "insufficiency argument for its class is itself stated over "
           "synchronized rounds (DESIGN.md §14)";
  }
  if (drv.capability.mode == InvocationMode::kLockstep) {
    return pair + "driver '" + driverName +
           "' is a lockstep object — its exchange calendar is the tick "
           "barrier that non-lockstep policies remove (DESIGN.md §14)";
  }
  // Async objects may still bake round alignment into their waits.
  if (!det.capability.toleratesSkew) {
    return pair + "detector '" + detectorName +
           "' does not tolerate per-process round skew (DESIGN.md §14)";
  }
  if (!drv.capability.toleratesSkew) {
    return pair + "driver '" + driverName +
           "' does not tolerate per-process round skew: its waits presume "
           "the round's exchange wave is in flight on every process at "
           "once (the timer reconciliator's timeout race is the canonical "
           "case); keep the lockstep policy, or pick a quorum-counting "
           "driver — the Ω-backed coordinators tolerate skew (DESIGN.md "
           "§14)";
  }
  return std::nullopt;
}

Registry& registry() {
  static Registry* instance = [] {
    auto* reg = new Registry;
    registerBuiltins(*reg);
    return reg;
  }();
  return *instance;
}

}  // namespace ooc::compose
