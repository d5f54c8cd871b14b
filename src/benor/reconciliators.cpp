#include "benor/reconciliators.hpp"

#include "benor/messages.hpp"
#include "util/rng.hpp"

namespace ooc::benor {

DriverFactory CoinReconciliator::factory() {
  return [](Round) { return std::make_unique<CoinReconciliator>(); };
}

DriverFactory BiasedCoinReconciliator::factory(double bias) {
  return [bias](Round) {
    return std::make_unique<BiasedCoinReconciliator>(bias);
  };
}

CommonCoinReconciliator::CommonCoinReconciliator(std::uint64_t sharedSeed,
                                                 Round round)
    : sharedSeed_(sharedSeed), round_(round) {}

void CommonCoinReconciliator::invoke(ObjectContext&, const Outcome&) {
  // Every process computes the same bit for the same (seed, round): the
  // shared coin is a deterministic function, modelling an idealized common
  // coin primitive.
  Rng coin = Rng(sharedSeed_).split(round_);
  value_ = coin.coin();
}

DriverFactory CommonCoinReconciliator::factory(std::uint64_t sharedSeed) {
  return [sharedSeed](Round m) {
    return std::make_unique<CommonCoinReconciliator>(sharedSeed, m);
  };
}

DriverFactory KeepValueReconciliator::factory() {
  return [](Round) { return std::make_unique<KeepValueReconciliator>(); };
}

LotteryReconciliator::LotteryReconciliator(std::size_t faultTolerance,
                                           std::uint64_t sharedSeed,
                                           Round round)
    : t_(faultTolerance), sharedSeed_(sharedSeed), round_(round) {}

std::uint64_t LotteryReconciliator::ticketOf(ProcessId who) const noexcept {
  // A shared pseudo-random permutation of the processes per round: every
  // process computes the same ticket for the same (seed, round, id).
  return Rng(sharedSeed_ ^ (static_cast<std::uint64_t>(round_) << 32))
      .split(who)
      .next();
}

void LotteryReconciliator::invoke(ObjectContext& ctx,
                                  const Outcome& detected) {
  seen_.reset(ctx.processCount());
  ctx.fanout(makeMessage<LotteryTicketMessage>(detected.value));
}

void LotteryReconciliator::onMessage(ObjectContext& ctx, ProcessId from,
                                     const Message& inner) {
  const auto* ticket = inner.as<LotteryTicketMessage>();
  if (ticket == nullptr || value_) return;
  if (!seen_.insert(from)) return;  // before invoke(), or a repeat sender
  const std::uint64_t draw = ticketOf(from);
  if (draw < bestTicket_) {
    bestTicket_ = draw;
    bestValue_ = ticket->value;
  }
  if (seen_.count() >= ctx.processCount() - t_) value_ = bestValue_;
}

DriverFactory LotteryReconciliator::factory(std::size_t faultTolerance,
                                            std::uint64_t sharedSeed) {
  return [faultTolerance, sharedSeed](Round m) {
    return std::make_unique<LotteryReconciliator>(faultTolerance, sharedSeed,
                                                  m);
  };
}

}  // namespace ooc::benor
