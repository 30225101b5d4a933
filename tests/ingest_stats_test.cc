// IncrementalStats: the online ingest tracker. The load-bearing claim —
// batch feeds, per-row feeds and column-slice feeds are bit-identical —
// is asserted on the raw state (registers, bitmap words, reservoir
// contents), not just on estimates.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "core/all_estimators.h"
#include "ingest/incremental_stats.h"
#include "table/column.h"

namespace ndv {
namespace {

std::vector<uint64_t> HashStream(uint64_t seed, int64_t count,
                                 uint64_t distinct) {
  Rng rng(seed);
  std::vector<uint64_t> hashes;
  hashes.reserve(static_cast<size_t>(count));
  for (int64_t i = 0; i < count; ++i) {
    hashes.push_back(Hash64(rng.NextBounded(distinct) + 1));
  }
  return hashes;
}

std::vector<uint64_t> SortedSample(const IncrementalStats& stats) {
  const auto sample = stats.reservoir().sample();
  std::vector<uint64_t> sorted(sample.begin(), sample.end());
  std::sort(sorted.begin(), sorted.end());
  return sorted;
}

// Every piece of state equal: sketches bit-for-bit and the reservoir as a
// multiset (same survivors regardless of feed shape).
void ExpectSameState(const IncrementalStats& a, const IncrementalStats& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.hll(), b.hll());
  EXPECT_EQ(a.linear_counting(), b.linear_counting());
  EXPECT_EQ(SortedSample(a), SortedSample(b));
}

TEST(IncrementalStatsTest, BatchFeedMatchesPerRowFeedBitForBit) {
  IncrementalStatsOptions options;
  options.reservoir_capacity = 256;
  options.seed = 99;
  const auto hashes = HashStream(1, 50000, 4000);

  IncrementalStats per_row(options);
  for (uint64_t hash : hashes) per_row.Add(hash);

  IncrementalStats batched(options);
  // Uneven batch sizes, including empty ones, so the skip-run resume logic
  // crosses batch boundaries in every alignment.
  size_t i = 0;
  const size_t batch_sizes[] = {1, 0, 7, 1000, 3, 0, 40000, 100000};
  size_t which = 0;
  while (i < hashes.size()) {
    const size_t take =
        std::min(batch_sizes[which % 8], hashes.size() - i);
    batched.AddHashes(
        std::span<const uint64_t>(hashes.data() + i, take));
    i += take;
    ++which;
  }
  // The reservoirs consumed identical streams through the same RNG: the
  // exact survivor sets match, not just their sizes.
  ExpectSameState(per_row, batched);
  EXPECT_EQ(per_row.reservoir().sample(), batched.reservoir().sample());
}

TEST(IncrementalStatsTest, AppendBatchMatchesAddHashes) {
  std::vector<int64_t> values;
  Rng rng(7);
  for (int i = 0; i < 30000; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextBounded(2500)));
  }
  Int64Column column(values);

  IncrementalStatsOptions options;
  options.reservoir_capacity = 512;
  IncrementalStats from_column(options);
  from_column.AppendBatch(FullColumnSlice(column));

  std::vector<uint64_t> hashes(values.size());
  column.HashSlice(0, column.size(), hashes.data());
  IncrementalStats from_hashes(options);
  from_hashes.AddHashes(hashes);

  ExpectSameState(from_column, from_hashes);
  EXPECT_EQ(from_column.reservoir().sample(),
            from_hashes.reservoir().sample());

  // Contiguous sub-slices that start mid-column (an append batch) feed
  // the same state as the whole column at once.
  IncrementalStats from_slices(options);
  from_slices.AppendBatch(ColumnSlice{&column, 0, 12345});
  from_slices.AppendBatch(ColumnSlice{&column, 12345, 12345});
  from_slices.AppendBatch(ColumnSlice{&column, 12345, column.size()});
  ExpectSameState(from_column, from_slices);
  EXPECT_EQ(from_column.reservoir().sample(),
            from_slices.reservoir().sample());
}

TEST(IncrementalStatsTest, SketchEstimateTracksTrueCardinality) {
  IncrementalStatsOptions options;
  IncrementalStats stats(options);
  constexpr uint64_t kDistinct = 10000;
  for (uint64_t v = 1; v <= kDistinct; ++v) stats.Add(Hash64(v));
  // Default geometry keeps linear counting active at this cardinality;
  // its error at load 10000/2^16 is well under 2%.
  EXPECT_NEAR(stats.SketchEstimate(), static_cast<double>(kDistinct),
              0.02 * static_cast<double>(kDistinct));
}

TEST(IncrementalStatsTest, CombinedEstimateHandsOffToHllWhenLcSaturates) {
  // A tiny bitmap saturates immediately; the combined estimate must fall
  // back to HyperLogLog instead of returning m*ln(m) or infinity.
  HyperLogLog hll(12);
  LinearCounting lc(8);
  for (uint64_t v = 1; v <= 50000; ++v) {
    const uint64_t hash = Hash64(v);
    hll.Add(hash);
    lc.Add(hash);
  }
  EXPECT_EQ(lc.zero_bits(), 0);
  EXPECT_EQ(CombinedSketchEstimate(hll, lc), hll.Estimate());
  EXPECT_NEAR(CombinedSketchEstimate(hll, lc), 50000.0, 0.05 * 50000.0);
}

TEST(IncrementalStatsTest, SnapshotEstimateStaysInsideGeeBracket) {
  IncrementalStatsOptions options;
  options.reservoir_capacity = 1024;
  IncrementalStats stats(options);
  stats.AddHashes(HashStream(4, 60000, 3000));

  const auto estimator = MakeEstimatorByName("GEE");
  ASSERT_NE(estimator, nullptr);
  const ColumnStats snapshot = stats.Snapshot("value", *estimator);
  EXPECT_EQ(snapshot.table_rows, 60000);
  EXPECT_EQ(snapshot.sample_rows, 1024);
  EXPECT_LE(snapshot.lower, snapshot.estimate);
  EXPECT_GE(snapshot.upper, snapshot.estimate);
  EXPECT_EQ(snapshot.method, "GEE");
}

TEST(IncrementalStatsTest, ReservoirSummaryIsExactBelowCapacity) {
  IncrementalStatsOptions options;
  options.reservoir_capacity = 1000;
  IncrementalStats stats(options);
  EXPECT_DEATH(stats.ReservoirSummary(), "no rows");
  for (uint64_t v = 0; v < 100; ++v) {
    stats.Add(Hash64(v % 25));  // 25 distinct values, 4 copies each
  }
  // The reservoir is not yet full, so it holds the whole stream.
  const SampleSummary summary = stats.ReservoirSummary();
  EXPECT_EQ(summary.n(), 100);
  EXPECT_EQ(summary.r(), 100);
  EXPECT_EQ(summary.d(), 25);
  EXPECT_EQ(summary.f(4), 25);
}

TEST(IncrementalStatsTest, DriftSemantics) {
  // Rule-1 verdict at a valid knob (the knob's rejection is pinned below).
  const auto stale = [](const IncrementalStats& tracker, double fraction) {
    const auto verdict = tracker.IsStaleOrStatus(fraction);
    EXPECT_TRUE(verdict.ok()) << verdict.status().ToString();
    return verdict.ok() && *verdict;
  };
  IncrementalStats stats(IncrementalStatsOptions{});
  // Never marked fresh: infinitely stale, infinite drift.
  EXPECT_TRUE(std::isinf(stats.DriftSinceFresh()));
  EXPECT_TRUE(stale(stats, 0.5));

  stats.AddHashes(HashStream(5, 10000, 2000));
  stats.MarkFresh();
  EXPECT_EQ(stats.DriftSinceFresh(), 0.0);
  EXPECT_EQ(stats.rows_at_fresh(), 10000);
  EXPECT_FALSE(stale(stats, 0.2));
  stats.Add(Hash64(123456789));
  EXPECT_FALSE(stale(stats, 0.2));  // a sane threshold tolerates one row

  // Appending mostly-new values moves the sketch estimate away from the
  // baseline and trips the volume rule once past the fraction.
  stats.AddHashes(HashStream(6, 5000, 100000));
  EXPECT_GT(stats.DriftSinceFresh(), 0.0);
  EXPECT_TRUE(stale(stats, 0.2));   // 50% appended > 20%
  EXPECT_FALSE(stale(stats, 0.9));  // but not > 90%

  // A new baseline (the re-ANALYZE publication) makes it fresh again.
  stats.MarkFresh();
  EXPECT_EQ(stats.rows_at_fresh(), 15001);
  EXPECT_EQ(stats.DriftSinceFresh(), 0.0);
  EXPECT_FALSE(stale(stats, 0.2));

  // Every non-finite or non-positive knob is rejected.
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  for (const double bad :
       {0.0, -0.5, -1.0, kNaN, std::numeric_limits<double>::infinity()}) {
    const auto result = stats.IsStaleOrStatus(bad);
    ASSERT_FALSE(result.ok()) << bad;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << bad;
  }

  // An empty baseline stays fresh only until the first append, at any
  // threshold (no division by the zero baseline).
  IncrementalStats empty(IncrementalStatsOptions{});
  empty.MarkFresh();
  EXPECT_EQ(empty.rows_at_fresh(), 0);
  EXPECT_FALSE(stale(empty, 0.2));
  empty.Add(Hash64(1));
  EXPECT_TRUE(stale(empty, 1e9));
}

}  // namespace
}  // namespace ndv
