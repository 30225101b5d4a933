// Batch hashing (HashRange / HashSlice / HashAll) must be bit-identical to
// the per-row HashAt path for every column type, and the parallel exact-NDV
// scan must return the same count at every thread count.

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "table/column.h"
#include "table/multi_column.h"
#include "table/table.h"

namespace ndv {
namespace {

// Checks out[i] == HashAt(...) for HashSlice over several sub-ranges,
// HashRange over a shuffled gather list, and HashAll.
void ExpectBatchMatchesPerRow(const Column& column) {
  const int64_t n = column.size();
  ASSERT_GT(n, 0);

  // HashAll == HashAt for every row.
  const std::vector<uint64_t> all = column.HashAll();
  ASSERT_EQ(all.size(), static_cast<size_t>(n));
  for (int64_t row = 0; row < n; ++row) {
    ASSERT_EQ(all[static_cast<size_t>(row)], column.HashAt(row))
        << "HashAll mismatch at row " << row;
  }

  // HashSlice over sub-ranges, including empty and full.
  const int64_t mid = n / 2;
  const std::vector<std::pair<int64_t, int64_t>> ranges = {
      {0, n}, {0, 0}, {n, n}, {0, mid}, {mid, n}, {n / 3, 2 * n / 3}};
  for (const auto& [begin, end] : ranges) {
    std::vector<uint64_t> out(static_cast<size_t>(end - begin), 0);
    column.HashSlice(begin, end, out.data());
    for (int64_t i = 0; i < end - begin; ++i) {
      ASSERT_EQ(out[static_cast<size_t>(i)], column.HashAt(begin + i))
          << "HashSlice [" << begin << ", " << end << ") mismatch at offset "
          << i;
    }
  }

  // HashRange over a gather list with repeats and non-monotone order.
  Rng rng(31);
  std::vector<int64_t> rows;
  rows.reserve(257);
  for (int i = 0; i < 257; ++i) {
    rows.push_back(static_cast<int64_t>(rng.NextBounded(
        static_cast<uint64_t>(n))));
  }
  std::vector<uint64_t> out(rows.size(), 0);
  column.HashRange(rows, out.data());
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_EQ(out[i], column.HashAt(rows[i]))
        << "HashRange mismatch at gather index " << i;
  }
}

TEST(BatchHashTest, Int64ColumnMatchesHashAt) {
  Rng rng(41);
  std::vector<int64_t> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextU64()));
  }
  values.push_back(0);
  values.push_back(-1);
  values.push_back(std::numeric_limits<int64_t>::min());
  values.push_back(std::numeric_limits<int64_t>::max());
  ExpectBatchMatchesPerRow(Int64Column(std::move(values)));
}

TEST(BatchHashTest, DoubleColumnMatchesHashAt) {
  Rng rng(43);
  std::vector<double> values;
  for (int i = 0; i < 10000; ++i) {
    values.push_back(rng.NextDouble() * 1e9 - 5e8);
  }
  // The canonicalized cases: signed zeros and every flavor of NaN must go
  // through the same normalization in both the scalar and batch paths.
  values.push_back(0.0);
  values.push_back(-0.0);
  values.push_back(std::numeric_limits<double>::quiet_NaN());
  values.push_back(-std::numeric_limits<double>::quiet_NaN());
  values.push_back(std::numeric_limits<double>::signaling_NaN());
  values.push_back(std::numeric_limits<double>::infinity());
  values.push_back(-std::numeric_limits<double>::infinity());
  values.push_back(std::numeric_limits<double>::denorm_min());
  const DoubleColumn column(std::move(values));
  ExpectBatchMatchesPerRow(column);

  // The canonicalization itself: -0.0 == +0.0, all NaNs are one class.
  const DoubleColumn zeros({0.0, -0.0});
  EXPECT_EQ(zeros.HashAt(0), zeros.HashAt(1));
  const DoubleColumn nans({std::numeric_limits<double>::quiet_NaN(),
                           -std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::signaling_NaN()});
  EXPECT_EQ(nans.HashAt(0), nans.HashAt(1));
  EXPECT_EQ(nans.HashAt(0), nans.HashAt(2));
}

TEST(BatchHashTest, StringColumnMatchesHashAt) {
  Rng rng(47);
  std::vector<std::string> values;
  for (int i = 0; i < 8000; ++i) {
    values.push_back("value_" + std::to_string(rng.NextBounded(500)));
  }
  values.push_back("");
  values.push_back(std::string(1000, 'x'));
  ExpectBatchMatchesPerRow(StringColumn(values));
}

TEST(BatchHashTest, CombinedColumnMatchesHashAt) {
  Rng rng(53);
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  for (int i = 0; i < 5000; ++i) {
    ints.push_back(static_cast<int64_t>(rng.NextBounded(100)));
    doubles.push_back(static_cast<double>(rng.NextBounded(50)));
    strings.push_back(std::string("s").append(
        std::to_string(rng.NextBounded(20))));
  }
  const Int64Column a(std::move(ints));
  const DoubleColumn b(std::move(doubles));
  const StringColumn c(strings);
  const CombinedColumn combined({&a, &b, &c});
  ExpectBatchMatchesPerRow(combined);
}

TEST(BatchHashTest, CombinedColumnLargerThanCombineBlock) {
  // Exercise the block-buffered combine path across multiple blocks plus a
  // ragged tail (block size is 1024 internally).
  Rng rng(59);
  std::vector<int64_t> a_vals;
  std::vector<int64_t> b_vals;
  for (int i = 0; i < 3 * 1024 + 7; ++i) {
    a_vals.push_back(static_cast<int64_t>(rng.NextU64()));
    b_vals.push_back(static_cast<int64_t>(rng.NextU64()));
  }
  const Int64Column a(std::move(a_vals));
  const Int64Column b(std::move(b_vals));
  ExpectBatchMatchesPerRow(CombinedColumn({&a, &b}));
}

TEST(ParallelExactNdvTest, ThreadCountDoesNotChangeTheAnswer) {
  // Big enough to cross the parallel-scan threshold (2 * 65536 rows).
  Rng rng(61);
  std::vector<int64_t> values;
  constexpr int64_t kRows = 300000;
  values.reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    values.push_back(static_cast<int64_t>(rng.NextBounded(90000)));
  }
  const Int64Column column(std::move(values));

  const int64_t serial = ExactDistinctHashSet(column, 1);
  const int64_t sorted = ExactDistinctSorted(column);
  EXPECT_EQ(serial, sorted);
  for (int threads : {2, 3, 4, 8}) {
    EXPECT_EQ(ExactDistinctHashSet(column, threads), serial)
        << "threads=" << threads;
  }
  // threads=0 resolves via NDV_THREADS / hardware concurrency; still equal.
  EXPECT_EQ(ExactDistinctHashSet(column, 0), serial);
}

TEST(ParallelExactNdvTest, SmallColumnsStaySerialAndCorrect) {
  const Int64Column column({1, 2, 3, 2, 1});
  for (int threads : {0, 1, 4}) {
    EXPECT_EQ(ExactDistinctHashSet(column, threads), 3);
  }
  const Int64Column empty(std::vector<int64_t>{});
  EXPECT_EQ(ExactDistinctHashSet(empty, 8), 0);
}

}  // namespace
}  // namespace ndv
