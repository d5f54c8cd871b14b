#include "phaseking/adopt_commit.hpp"

#include <stdexcept>

#include "phaseking/messages.hpp"

namespace ooc::phaseking {

PhaseKingAc::PhaseKingAc(std::size_t faultTolerance) : t_(faultTolerance) {}

void PhaseKingAc::invoke(ObjectContext& ctx, Value v) {
  if (3 * t_ >= ctx.processCount())
    throw std::invalid_argument("Phase-King requires 3t < n");
  value_ = v;
  exchange1Senders_.reset(ctx.processCount());
  exchange2Senders_.reset(ctx.processCount());
  ctx.fanout(makeMessage<ExchangeMessage>(1, v));
}

void PhaseKingAc::onMessage(ObjectContext&, ProcessId from,
                            const Message& inner) {
  const auto* exchange = inner.as<ExchangeMessage>();
  if (exchange == nullptr || outcome_) return;

  if (exchange->exchange == 1) {
    if (!exchange1Senders_.insert(from)) return;
    if (exchange->value == 0 || exchange->value == 1)
      ++countC_[static_cast<std::size_t>(exchange->value)];
  } else if (exchange->exchange == 2) {
    if (!exchange2Senders_.insert(from)) return;
    if (exchange->value >= 0 && exchange->value <= 2)
      ++countD_[static_cast<std::size_t>(exchange->value)];
  }
}

void PhaseKingAc::onTick(ObjectContext& ctx, Tick) {
  if (outcome_) return;
  const std::size_t n = ctx.processCount();
  ++ticksSeen_;

  if (ticksSeen_ == 1) {
    // End of exchange 1.
    value_ = 2;
    for (Value k = 0; k <= 1; ++k) {
      if (countC_[static_cast<std::size_t>(k)] >= n - t_) value_ = k;
    }
    ctx.fanout(makeMessage<ExchangeMessage>(2, value_));
    return;
  }

  if (ticksSeen_ == 2) {
    // End of exchange 2.
    for (Value k = 2; k >= 0; --k) {
      if (countD_[static_cast<std::size_t>(k)] > t_) value_ = k;
    }
    const bool strong =
        value_ != 2 &&
        countD_[static_cast<std::size_t>(value_)] >= n - t_;
    outcome_ = Outcome{strong ? Confidence::kCommit : Confidence::kAdopt,
                       value_};
  }
}

DetectorFactory PhaseKingAc::factory(std::size_t faultTolerance) {
  return [faultTolerance](Round) {
    return std::make_unique<PhaseKingAc>(faultTolerance);
  };
}

}  // namespace ooc::phaseking
