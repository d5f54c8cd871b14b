// Byzantine adversaries for Phase-King runs (paper §4.1 model: t Byzantine
// processors, 3t < n).
//
// A Byzantine processor is a free agent: it knows the lockstep calendar
// (3 ticks per phase — exchange 1, exchange 2, king) and may send any
// message, or none, to any subset, with different contents per destination
// (equivocation). The strategies here cover the classic attack repertoire;
// property tests assert that every correct-process guarantee survives each
// of them as long as the attacker count stays within t.
#pragma once

#include "sim/process.hpp"
#include "util/types.hpp"

namespace ooc::phaseking {

enum class ByzantineStrategy {
  /// Sends nothing (crash-equivalent, the mildest attack).
  kSilent,
  /// Sends an independently random value in {0,1,2} per destination, slot.
  kRandom,
  /// Sends 0 to the lower half of ids and 1 to the upper half, everywhere —
  /// the canonical split attack.
  kEquivocate,
  /// Follows the protocol in the exchanges (broadcasts a fixed 0) but, when
  /// king, tells half the network 0 and the other half 1.
  kLyingKing,
  /// Sabotages convergence: splits exchange 1, floods exchange 2 with the
  /// sentinel 2, and equivocates when king.
  kAntiKing,
};

const char* toString(ByzantineStrategy strategy) noexcept;

class PhaseKingByzantine final : public Process {
 public:
  /// Which wire format to forge: the consensus-template envelope or the
  /// monolithic baseline's raw format.
  enum class Wire { kTemplate, kClassic };

  PhaseKingByzantine(ByzantineStrategy strategy, Wire wire);

  void onStart() override;
  void onMessage(ProcessId, const Message&) override {}
  void onTick(Tick tick) override;

 private:
  void act(Tick tick);
  /// The forged payload for one (round, exchange, value); exchange 3 is
  /// the king slot.
  MessagePtr forge(Round round, int exchange, Value value) const;
  Value pick(ProcessId dest, int exchange);

  ByzantineStrategy strategy_;
  Wire wire_;
};

}  // namespace ooc::phaseking
