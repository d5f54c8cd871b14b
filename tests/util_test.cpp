// Unit tests for src/util: deterministic RNG, statistics, tables, logging.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <vector>

#include "util/flat_value_set.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/sliding_slots.hpp"
#include "util/stats.hpp"

namespace ooc {
namespace {

TEST(Rng, SameSeedSameStream) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.below(bound), bound);
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowIsRoughlyUniform) {
  Rng rng(11);
  std::vector<int> buckets(10, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++buckets[rng.below(10)];
  for (int count : buckets) {
    EXPECT_GT(count, kDraws / 10 * 0.9);
    EXPECT_LT(count, kDraws / 10 * 1.1);
  }
}

TEST(Rng, BetweenInclusive) {
  Rng rng(13);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.between(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    seen.insert(x);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, BetweenSingleton) {
  Rng rng(15);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(rng.between(5, 5), 5);
}

TEST(Rng, Uniform01InRange) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.uniform01();
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(1.5));
  }
}

TEST(Rng, ChanceMatchesProbability) {
  Rng rng(21);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.chance(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Rng, CoinIsFair) {
  Rng rng(23);
  int ones = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ones += rng.coin();
  EXPECT_NEAR(static_cast<double>(ones) / kDraws, 0.5, 0.01);
}

TEST(Rng, SplitIsDeterministic) {
  Rng root(31);
  Rng a = root.split(5);
  Rng b = Rng(31).split(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, SplitChildrenAreIndependent) {
  Rng root(33);
  Rng a = root.split(1);
  Rng b = root.split(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += a.next() == b.next() ? 1 : 0;
  EXPECT_LT(equal, 3);
}

TEST(Rng, SplitDoesNotAdvanceParent) {
  Rng a(35), b(35);
  (void)a.split(99);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, ShuffleIsPermutation) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Summary, BasicStatistics) {
  Summary s;
  for (double x : {1.0, 2.0, 3.0, 4.0, 5.0}) s.add(x);
  EXPECT_EQ(s.count(), 5u);
  EXPECT_DOUBLE_EQ(s.mean(), 3.0);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  EXPECT_NEAR(s.stddev(), 1.5811, 1e-3);
}

TEST(Summary, QuantileInterpolates) {
  Summary s;
  s.add(0.0);
  s.add(10.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.quantile(1.0), 10.0);
}

TEST(Summary, EmptyStatisticsAreZero) {
  // Documented contract: every statistic of an empty Summary is 0.0 —
  // benches summarize filtered subsets that can legitimately be empty.
  Summary s;
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.min(), 0.0);
  EXPECT_EQ(s.max(), 0.0);
  EXPECT_EQ(s.sum(), 0.0);
  EXPECT_EQ(s.stddev(), 0.0);
  EXPECT_EQ(s.quantile(0.0), 0.0);
  EXPECT_EQ(s.quantile(0.5), 0.0);
  EXPECT_EQ(s.median(), 0.0);
  EXPECT_EQ(s.p95(), 0.0);
  EXPECT_EQ(s.p99(), 0.0);
}

TEST(Summary, SingleSample) {
  Summary s;
  s.add(7.5);
  EXPECT_DOUBLE_EQ(s.mean(), 7.5);
  EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
  EXPECT_DOUBLE_EQ(s.p95(), 7.5);
}

TEST(Summary, QuantileAfterInterleavedAdds) {
  Summary s;
  s.add(3.0);
  EXPECT_DOUBLE_EQ(s.median(), 3.0);
  s.add(1.0);  // must re-sort internally
  s.add(2.0);
  EXPECT_DOUBLE_EQ(s.median(), 2.0);
}

TEST(Table, RendersAlignedColumns) {
  Table t({"name", "value"});
  t.addRow({"x", "1"});
  t.addRow({"longer", "22"});
  const std::string out = t.render();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  // Every line has the same width apart from trailing spaces trimmed rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(Table, CellFormatting) {
  EXPECT_EQ(Table::cell(3.14159, 2), "3.14");
  EXPECT_EQ(Table::cell(std::uint64_t{42}), "42");
  EXPECT_EQ(Table::cell(-7), "-7");
}

TEST(Logging, LevelGate) {
  setLogLevel(LogLevel::kOff);
  EXPECT_EQ(logLevel(), LogLevel::kOff);
  setLogLevel(LogLevel::kWarn);
  EXPECT_EQ(logLevel(), LogLevel::kWarn);
  setLogLevel(LogLevel::kOff);
}

// FlatValueSet: the open-addressing dedup set on the svc commit path.
TEST(FlatValueSet, EmptySetContainsNothing) {
  const FlatValueSet set;
  EXPECT_TRUE(set.empty());
  EXPECT_EQ(set.size(), 0u);
  for (const Value v : {Value{0}, Value{1}, Value{-1}, kNoValue})
    EXPECT_FALSE(set.contains(v)) << v;
}

TEST(FlatValueSet, KeyZeroIsAnOrdinaryKey) {
  FlatValueSet set;
  EXPECT_TRUE(set.insert(0));
  EXPECT_FALSE(set.insert(0));
  EXPECT_TRUE(set.contains(0));
  EXPECT_FALSE(set.contains(1));
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.insert(1));
  EXPECT_EQ(set.size(), 2u);
}

TEST(FlatValueSet, DuplicatesAreRefused) {
  FlatValueSet set;
  for (const Value v : {Value{5}, Value{-5}, kNoValue,
                        std::numeric_limits<Value>::max()}) {
    EXPECT_TRUE(set.insert(v)) << v;
    EXPECT_FALSE(set.insert(v)) << v;
  }
  EXPECT_EQ(set.size(), 4u);
}

// Ten thousand keys take the table through several doublings; every key
// must survive each rehash, and nothing else may appear. The keys mimic
// command ids: a shared high half and a dense low half.
TEST(FlatValueSet, GrowthAcrossRehashesKeepsEveryKey) {
  FlatValueSet set;
  std::set<Value> reference;
  Rng rng(99);
  for (int i = 0; i < 10000; ++i) {
    const Value v = (Value{3} << 32) + static_cast<Value>(rng.below(20000));
    EXPECT_EQ(set.insert(v), reference.insert(v).second) << v;
  }
  EXPECT_EQ(set.size(), reference.size());
  for (Value v = (Value{3} << 32); v < (Value{3} << 32) + 20000; ++v)
    EXPECT_EQ(set.contains(v), reference.contains(v)) << v;
  EXPECT_FALSE(set.contains(0));
}

TEST(FlatValueSet, ClearEmptiesTheSetForReuse) {
  FlatValueSet set;
  for (Value v = 0; v < 100; ++v) set.insert(v);
  set.clear();
  EXPECT_TRUE(set.empty());
  for (Value v = 0; v < 100; ++v) EXPECT_FALSE(set.contains(v)) << v;
  EXPECT_TRUE(set.insert(0));
  EXPECT_TRUE(set.insert(42));
  EXPECT_EQ(set.size(), 2u);
}

// SlidingSlots: the per-decree and per-command windows on the svc path.
TEST(SlidingSlots, FirstValueWinsInsideTheWindow) {
  SlidingSlots<Value, kNoValue> slots;
  EXPECT_EQ(slots.get(3), kNoValue);
  EXPECT_TRUE(slots.put(3, 0));  // 0 is an ordinary value
  EXPECT_FALSE(slots.put(3, 7));
  EXPECT_EQ(slots.get(3), 0);
  EXPECT_EQ(slots.get(2), kNoValue);  // gap slots read as empty
  EXPECT_EQ(slots.take(3), 0);
  EXPECT_EQ(slots.get(3), kNoValue);
  EXPECT_TRUE(slots.put(3, 7));  // an emptied slot refills
  EXPECT_EQ(slots.take(99), kNoValue);
}

TEST(SlidingSlots, SlotsBelowTheWindowAreGone) {
  SlidingSlots<Value, kNoValue> slots;
  for (Value k = 0; k < 100; ++k) EXPECT_TRUE(slots.put(k, k + 1));
  slots.advanceTo(40);
  EXPECT_EQ(slots.get(39), kNoValue);
  EXPECT_FALSE(slots.put(39, 1));
  EXPECT_EQ(slots.get(40), 41);
  EXPECT_EQ(slots.get(99), 100);
  slots.advanceTo(500);  // past the last slot: the window starts over there
  EXPECT_EQ(slots.get(99), kNoValue);
  EXPECT_FALSE(slots.put(499, 1));
  EXPECT_TRUE(slots.put(500, 1));
  slots.clear();
  EXPECT_TRUE(slots.put(0, 2));
}

TEST(SlidingSlots, DropEmptyFrontStopsAtTheFirstFullSlot) {
  SlidingSlots<Tick, ~Tick{0}> slots;
  for (std::uint64_t k = 1; k <= 4; ++k) slots.put(k, 10 * k);
  slots.take(2);
  slots.dropEmptyFront();  // slot 0 was never filled
  EXPECT_EQ(slots.get(1), 10u);
  slots.take(1);
  slots.dropEmptyFront();  // drops 1 and the emptied 2
  EXPECT_FALSE(slots.put(2, 5));
  EXPECT_EQ(slots.get(3), 30u);
  EXPECT_EQ(slots.get(4), 40u);
}

}  // namespace
}  // namespace ooc
