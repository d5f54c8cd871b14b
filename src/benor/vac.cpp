#include "benor/vac.hpp"

#include <stdexcept>

#include "benor/messages.hpp"

namespace ooc::benor {

BenOrVac::BenOrVac(std::size_t faultTolerance) : t_(faultTolerance) {}

void BenOrVac::invoke(ObjectContext& ctx, Value v) {
  if (2 * t_ >= ctx.processCount())
    throw std::invalid_argument("Ben-Or requires t < n/2");
  input_ = v;
  invoked_ = true;
  proposalSenders_.reset(ctx.processCount());
  reportSenders_.reset(ctx.processCount());
  ctx.fanout(makeMessage<ProposalMessage>(v));
}

void BenOrVac::onMessage(ObjectContext& ctx, ProcessId from,
                         const Message& inner) {
  if (!invoked_ || outcome_) return;

  if (const auto* proposal = inner.as<ProposalMessage>()) {
    if (!proposalSenders_.insert(from)) return;
    proposalTally_.add(proposal->value);
    maybeFinishPhaseOne(ctx);
    return;
  }

  if (const auto* report = inner.as<ReportMessage>()) {
    if (!reportSenders_.insert(from)) return;
    if (report->ratify) {
      ratifyTally_.add(report->value);
      if (!anyRatified_) anyRatified_ = report->value;
    }
    maybeFinish();
  }
}

void BenOrVac::maybeFinishPhaseOne(ObjectContext& ctx) {
  const std::size_t n = ctx.processCount();
  if (reportSent_ || proposalSenders_.count() < n - t_) return;
  reportSent_ = true;

  // A strict majority of all n (count > floor(n/2) is 2 * count > n); at
  // most one value can hold one.
  if (const std::optional<Value> majority = proposalTally_.above(n / 2)) {
    ctx.fanout(makeMessage<ReportMessage>(/*ratify=*/true, *majority));
  } else {
    ctx.fanout(makeMessage<ReportMessage>(/*ratify=*/false, kNoValue));
  }
  maybeFinish();
}

void BenOrVac::maybeFinish() {
  if (outcome_ || !reportSent_ ||
      reportSenders_.count() < reportSenders_.universe() - t_)
    return;

  if (const std::optional<Value> committed = ratifyTally_.above(t_)) {
    outcome_ = Outcome{Confidence::kCommit, *committed};
    return;
  }
  if (anyRatified_) {
    outcome_ = Outcome{Confidence::kAdopt, *anyRatified_};
    return;
  }
  outcome_ = Outcome{Confidence::kVacillate, input_};
}

DetectorFactory BenOrVac::factory(std::size_t faultTolerance) {
  return [faultTolerance](Round) {
    return std::make_unique<BenOrVac>(faultTolerance);
  };
}

}  // namespace ooc::benor
