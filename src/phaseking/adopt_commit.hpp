// Phase-King's adopt-commit object (paper §4.1, Algorithm 3).
//
// Synchronous model, t Byzantine processors, 3t < n. The object spans two
// lockstep exchanges:
//
//   AC(v, m):
//     broadcast <v>                               (exchange 1)
//     v <- 2; for k in {0,1}: if C(k) >= n-t: v <- k
//     broadcast <v>                               (exchange 2)
//     for k = 2 downto 0: if D(k) > t: v <- k
//     if v != 2 and D(v) >= n-t: return (commit, v) else return (adopt, v)
//
// Tick calendar: invoke() broadcasts exchange 1 at tick T; onTick(T+1)
// tallies exchange 1 and broadcasts exchange 2; onTick(T+2) tallies
// exchange 2 and returns. All correct processes invoke at the same tick
// (the template keeps them lockstep-aligned), so tallies are complete when
// read. Counts are per distinct sender and values outside the legal domain
// are discarded — a Byzantine processor can lie, but not vote twice or
// inject out-of-range ballots.
//
// Note (faithful to the paper): when no value reaches the D(k) > t
// threshold, the returned adopt value can be the sentinel 2, which is not
// any processor's input. The paper's Lemma 2 proves validity only for
// unanimous inputs; the conciliator's MIN(1, v) maps the sentinel back into
// {0,1} before the next round. EXPERIMENTS.md discusses this gap.
#pragma once

#include <array>
#include <cstddef>
#include <optional>

#include "core/objects.hpp"
#include "core/tally.hpp"

namespace ooc::phaseking {

class PhaseKingAc final : public AgreementDetector {
 public:
  /// `faultTolerance` is t, the tolerated number of Byzantine processors.
  /// Requires 3t < n (checked at invoke).
  explicit PhaseKingAc(std::size_t faultTolerance);

  void invoke(ObjectContext& ctx, Value v) override;
  void onMessage(ObjectContext& ctx, ProcessId from,
                 const Message& inner) override;
  void onTick(ObjectContext& ctx, Tick tick) override;
  std::optional<Outcome> result() const override { return outcome_; }

  static DetectorFactory factory(std::size_t faultTolerance);

 private:
  std::size_t t_;
  Value value_ = kNoValue;
  int ticksSeen_ = 0;
  std::optional<Outcome> outcome_;

  SenderSet exchange1Senders_;
  SenderSet exchange2Senders_;
  std::array<std::size_t, 2> countC_{};  // C(0), C(1)
  std::array<std::size_t, 3> countD_{};  // D(0), D(1), D(2)
};

}  // namespace ooc::phaseking
