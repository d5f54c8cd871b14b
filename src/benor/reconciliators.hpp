// Reconciliators for the Ben-Or family (paper §4.2 Algorithm 6, plus the
// extensions the framework invites: because the reconciliator is its own
// object, alternatives slot into the same template — experiment E10).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/objects.hpp"
#include "core/tally.hpp"

namespace ooc::benor {

/// Algorithm 6: `return CoinFlip()` — an independent fair local coin.
/// Weak agreement holds because every round has probability >= 2^-n of all
/// coins matching the adopt value (or each other), so with probability 1
/// some round produces a deciding set of preferences.
class CoinReconciliator final : public Driver {
 public:
  void invoke(ObjectContext& ctx, const Outcome&) override {
    value_ = ctx.rng().coin();
  }
  void onMessage(ObjectContext&, ProcessId, const Message&) override {}
  std::optional<Value> result() const override { return value_; }

  static DriverFactory factory();

 private:
  std::optional<Value> value_;
};

/// Biased local coin: returns 1 with probability `bias`. Degenerates to
/// Algorithm 6 at bias = 0.5; the sweep shows how skew towards the eventual
/// majority shortens runs.
class BiasedCoinReconciliator final : public Driver {
 public:
  explicit BiasedCoinReconciliator(double bias) : bias_(bias) {}

  void invoke(ObjectContext& ctx, const Outcome&) override {
    value_ = ctx.rng().chance(bias_) ? 1 : 0;
  }
  void onMessage(ObjectContext&, ProcessId, const Message&) override {}
  std::optional<Value> result() const override { return value_; }

  static DriverFactory factory(double bias);

 private:
  double bias_;
  std::optional<Value> value_;
};

/// Common (shared) coin: all processes of round m obtain the same
/// pseudo-random bit, derived from (sharedSeed, m). This is the classic
/// Rabin-style speedup — expected O(1) rounds instead of expected
/// exponential — and exercises the paper's point that the reconciliator is
/// a swappable building block. For binary consensus with both values
/// present, validity is preserved (if inputs were unanimous the template
/// commits in round 1 and no reconciliator runs).
class CommonCoinReconciliator final : public Driver {
 public:
  CommonCoinReconciliator(std::uint64_t sharedSeed, Round round);

  void invoke(ObjectContext& ctx, const Outcome& detected) override;
  void onMessage(ObjectContext&, ProcessId, const Message&) override {}
  std::optional<Value> result() const override { return value_; }

  static DriverFactory factory(std::uint64_t sharedSeed);

 private:
  std::uint64_t sharedSeed_;
  Round round_;
  std::optional<Value> value_;
};

/// Lottery reconciliator — a *multivalued* driver (coins are binary-only).
/// Every invoker broadcasts its value; after n-t distinct tickets the
/// winner is the sender minimizing a per-round pseudo-random draw shared
/// by all processes, and the winner's value is returned. Validity holds
/// (the value is an invoker's input); weak agreement holds with
/// probability 1 because whenever the globally minimal ticket lands in
/// everyone's first n-t receipts — which has constant probability per
/// round — all invokers return the same value.
///
/// REQUIRES ConsensusProcess::Options::alwaysRunDriver = true: this driver
/// waits for a quorum of tickets, so every process must pass through the
/// drive stage every round (adopters/committers included — their returned
/// value is simply unused). Without it, a round where fewer than n-t
/// processes vacillate deadlocks the vacillators.
class LotteryReconciliator final : public Driver {
 public:
  LotteryReconciliator(std::size_t faultTolerance, std::uint64_t sharedSeed,
                       Round round);

  void invoke(ObjectContext& ctx, const Outcome& detected) override;
  void onMessage(ObjectContext& ctx, ProcessId from,
                 const Message& inner) override;
  std::optional<Value> result() const override { return value_; }

  static DriverFactory factory(std::size_t faultTolerance,
                               std::uint64_t sharedSeed);

 private:
  std::uint64_t ticketOf(ProcessId who) const noexcept;

  std::size_t t_;
  std::uint64_t sharedSeed_;
  Round round_;
  SenderSet seen_;  // empty universe until invoke()
  std::uint64_t bestTicket_ = ~0ull;
  Value bestValue_ = kNoValue;
  std::optional<Value> value_;
};

/// "Stubborn" driver: keeps the detector's value — i.e. no reconciliation.
/// A negative control for E10: with a balanced start, the template can spin
/// forever; used by tests to show that the reconciliator is what provides
/// termination (paper §3: "how [can] termination ... be guaranteed if the
/// collection of preferences is balanced").
class KeepValueReconciliator final : public Driver {
 public:
  void invoke(ObjectContext&, const Outcome& detected) override {
    value_ = detected.value;
  }
  void onMessage(ObjectContext&, ProcessId, const Message&) override {}
  std::optional<Value> result() const override { return value_; }

  static DriverFactory factory();

 private:
  std::optional<Value> value_;
};

}  // namespace ooc::benor
