// The ndvpack storage layer's contract: a packed table is the same table.
// CSV -> pack -> mmap columns must equal the heap columns value-for-value
// and hash-for-hash (including NaN / -0.0 canonicalization and strings
// with embedded quotes/newlines), v1 images must load as raw-block blocked
// columns, AnalyzeTable over either pack format must be thread-count
// invariant and bit-identical to the heap path, and the
// deserializer must reject every corruption with a Status, never a crash.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/stats_catalog.h"
#include "common/file_io.h"
#include "storage/blocked_column.h"
#include "storage/ndvpack.h"
#include "storage/pack_codec.h"
#include "storage/pack_writer.h"
#include "storage/table_loader.h"
#include "table/csv.h"
#include "table/table.h"

namespace ndv {
namespace {

// Copies serialized bytes into an 8-byte-aligned buffer (ParsePack's
// alignment contract) and keeps them alive for the returned views.
class AlignedImage {
 public:
  explicit AlignedImage(const std::string& bytes)
      : words_((bytes.size() + 7) / 8) {
    if (!bytes.empty()) {
      std::memcpy(words_.data(), bytes.data(), bytes.size());
    }
    size_ = bytes.size();
  }

  std::span<const uint8_t> bytes() const {
    return {reinterpret_cast<const uint8_t*>(words_.data()), size_};
  }

 private:
  std::vector<uint64_t> words_;
  size_t size_ = 0;
};

Table MakeMixedTable() {
  Table table;
  table.AddColumn("ints", std::make_unique<Int64Column>(std::vector<int64_t>{
                              0, -1, 42, std::numeric_limits<int64_t>::min(),
                              std::numeric_limits<int64_t>::max(), 42, 7}));
  table.AddColumn(
      "doubles",
      std::make_unique<DoubleColumn>(std::vector<double>{
          0.0, -0.0, 1.5, std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN(),
          std::numeric_limits<double>::infinity(), -2.25}));
  table.AddColumn(
      "strings",
      std::make_unique<StringColumn>(std::vector<std::string>{
          "", "plain", "comma,inside", "quote\"inside", "line\nbreak",
          "plain", "unicode \xc3\xa9"}));
  return table;
}

void ExpectTablesEqual(const Table& expected, const Table& actual) {
  ASSERT_EQ(expected.NumRows(), actual.NumRows());
  ASSERT_EQ(expected.NumColumns(), actual.NumColumns());
  for (int64_t c = 0; c < expected.NumColumns(); ++c) {
    SCOPED_TRACE("column " + expected.column_name(c));
    EXPECT_EQ(expected.column_name(c), actual.column_name(c));
    const Column& a = expected.column(c);
    const Column& b = actual.column(c);
    ASSERT_EQ(a.type(), b.type());
    ASSERT_EQ(a.size(), b.size());
    // Hash-for-hash: both per-row and through the batch kernels.
    const std::vector<uint64_t> hashes_a = a.HashAll();
    const std::vector<uint64_t> hashes_b = b.HashAll();
    EXPECT_EQ(hashes_a, hashes_b);
    for (int64_t row = 0; row < a.size(); ++row) {
      ASSERT_EQ(a.HashAt(row), b.HashAt(row)) << "row " << row;
      ASSERT_EQ(a.ValueToString(row), b.ValueToString(row)) << "row " << row;
    }
  }
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(NdvPackTest, MixedTableRoundTripsThroughBuffer) {
  const Table table = MakeMixedTable();
  const std::string bytes = SerializePack(table);
  const AlignedImage image(bytes);

  const auto view = ParsePack(image.bytes());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->row_count, 7u);
  ASSERT_EQ(view->columns.size(), 3u);

  const Table mapped = TableFromPack(*view, nullptr);
  ExpectTablesEqual(table, mapped);
}

TEST(NdvPackTest, SerializeIsAFixedPoint) {
  const Table table = MakeMixedTable();
  const std::string first = SerializePack(table);
  const AlignedImage image(first);
  const auto view = ParsePack(image.bytes());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  // Repacking the mapped columns reproduces the image byte-for-byte.
  const std::string second = SerializePack(TableFromPack(*view, nullptr));
  EXPECT_EQ(first, second);
}

TEST(NdvPackTest, CsvToPackToMmapEqualsHeapColumns) {
  // Quoted fields, embedded commas, quotes, and newlines all survive the
  // CSV -> heap -> pack -> mmap pipeline.
  const std::string csv =
      "id,score,label\n"
      "1,0.5,alpha\n"
      "2,-0.0,\"comma, embedded\"\n"
      "3,2.25,\"line\nbreak\"\n"
      "4,0.5,\"double\"\"quote\"\n"
      "5,0.0,alpha\n";
  const auto heap = ReadCsvInferredOrStatus(csv);
  ASSERT_TRUE(heap.ok()) << heap.status().ToString();
  ASSERT_EQ(heap->column(0).type(), ColumnType::kInt64);
  ASSERT_EQ(heap->column(1).type(), ColumnType::kDouble);
  ASSERT_EQ(heap->column(2).type(), ColumnType::kString);

  const std::string path = TempPath("csv_roundtrip.ndvpack");
  ASSERT_TRUE(WritePackFile(*heap, path).ok());
  const auto mapped = OpenPackFile(path);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectTablesEqual(*heap, *mapped);
}

TEST(NdvPackTest, EmptyTableRoundTrips) {
  const Table empty;
  const std::string bytes = SerializePack(empty);
  const AlignedImage image(bytes);
  const auto view = ParsePack(image.bytes());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view->row_count, 0u);
  EXPECT_TRUE(view->columns.empty());
  EXPECT_EQ(TableFromPack(*view, nullptr).NumRows(), 0);
}

TEST(NdvPackTest, ZeroRowColumnsRoundTrip) {
  Table table;
  table.AddColumn("i", std::make_unique<Int64Column>(std::vector<int64_t>{}));
  table.AddColumn("s", std::make_unique<StringColumn>(
                           std::vector<std::string>{}));
  const std::string bytes = SerializePack(table);
  const AlignedImage image(bytes);
  const auto view = ParsePack(image.bytes());
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const Table mapped = TableFromPack(*view, nullptr);
  EXPECT_EQ(mapped.NumRows(), 0);
  EXPECT_EQ(mapped.NumColumns(), 2);
  ExpectTablesEqual(table, mapped);
}

TEST(NdvPackTest, AnalyzeTableBitIdenticalHeapVsPackAtAnyThreadCount) {
  // A larger synthetic table so sampling actually exercises the columns,
  // across several 4096-row blocks with a partial last one.
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  std::vector<std::string> strings;
  Rng rng(7);
  for (int64_t i = 0; i < 20000; ++i) {
    ints.push_back(static_cast<int64_t>(rng.NextBounded(512)));
    doubles.push_back(
        static_cast<double>(rng.NextBounded(97)) / 8.0);
    strings.push_back(
        std::string("v").append(std::to_string(rng.NextBounded(300))));
  }
  Table heap;
  heap.AddColumn("i", std::make_unique<Int64Column>(std::move(ints)));
  heap.AddColumn("d", std::make_unique<DoubleColumn>(std::move(doubles)));
  heap.AddColumn("s", std::make_unique<StringColumn>(strings));

  // Both formats: v1 through ParsePack + TableFromPack, and the default
  // v2 writer.
  const std::string v1_path = TempPath("analyze_invariance_v1.ndvpack");
  const std::string v2_path = TempPath("analyze_invariance_v2.ndvpack");
  ASSERT_TRUE(WritePackFileV1(heap, v1_path).ok());
  ASSERT_TRUE(WritePackFile(heap, v2_path).ok());

  AnalyzeOptions options;
  options.sample_fraction = 0.05;
  options.seed = 99;
  for (const std::string& path : {v1_path, v2_path}) {
    SCOPED_TRACE(path);
    const auto packed = OpenPackFile(path);
    ASSERT_TRUE(packed.ok()) << packed.status().ToString();
    for (const bool exact : {false, true}) {
      options.exact = exact;
      options.threads = 1;
      const StatsCatalog heap_catalog = AnalyzeTable(heap, options);
      const std::string heap_serialized = heap_catalog.Serialize();
      for (const int threads : {1, 2, 3, 8}) {
        options.threads = threads;
        const StatsCatalog packed_catalog = AnalyzeTable(*packed, options);
        EXPECT_EQ(heap_serialized, packed_catalog.Serialize())
            << "exact=" << exact << " threads=" << threads;
      }
    }
  }
}

TEST(NdvPackTest, V1LoadsAsRawBlockedColumns) {
  // A v1 image loads into the blocked column family, cut into raw blocks
  // of the default size with a partial last block: the same block list a
  // raw-codec v2 file at the default block size opens to.
  const int64_t rows = 2 * kDefaultPackBlockRows + 5;
  std::vector<int64_t> ints(static_cast<size_t>(rows));
  std::vector<double> doubles(static_cast<size_t>(rows));
  std::vector<std::string> strings(static_cast<size_t>(rows));
  for (int64_t i = 0; i < rows; ++i) {
    ints[static_cast<size_t>(i)] = i * 7;
    doubles[static_cast<size_t>(i)] = static_cast<double>(i % 11) / 4.0;
    strings[static_cast<size_t>(i)] =
        std::string("s").append(std::to_string(i % 13));
  }
  Table heap;
  heap.AddColumn("i", std::make_unique<Int64Column>(std::move(ints)));
  heap.AddColumn("d", std::make_unique<DoubleColumn>(std::move(doubles)));
  heap.AddColumn("s", std::make_unique<StringColumn>(strings));

  const std::string v1_path = TempPath("blocked_v1.ndvpack");
  ASSERT_TRUE(WritePackFileV1(heap, v1_path).ok());
  PackWriteOptions raw;
  raw.codec = PackCodecChoice::kForceRaw;
  const std::string v2_path = TempPath("blocked_v2_raw.ndvpack");
  ASSERT_TRUE(WritePackFileV2(heap, v2_path, raw).ok());
  const auto v2 = OpenPackFile(v2_path);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  const auto* v2_ints = dynamic_cast<const BlockedInt64Column*>(&v2->column(0));
  ASSERT_NE(v2_ints, nullptr);

  for (const bool through_auto : {false, true}) {
    SCOPED_TRACE(through_auto ? "LoadTableAuto" : "OpenPackFile");
    const auto v1 =
        through_auto ? LoadTableAuto(v1_path) : OpenPackFile(v1_path);
    ASSERT_TRUE(v1.ok()) << v1.status().ToString();
    ExpectTablesEqual(heap, *v1);

    const auto* i64 = dynamic_cast<const BlockedInt64Column*>(&v1->column(0));
    const auto* dbl =
        dynamic_cast<const BlockedDoubleColumn*>(&v1->column(1));
    const auto* str =
        dynamic_cast<const BlockedStringColumn*>(&v1->column(2));
    ASSERT_NE(i64, nullptr);
    ASSERT_NE(dbl, nullptr);
    ASSERT_NE(str, nullptr);
    EXPECT_EQ(i64->block_rows(), kDefaultPackBlockRows);
    EXPECT_EQ(dbl->block_rows(), kDefaultPackBlockRows);
    EXPECT_EQ(str->block_rows(), kDefaultPackBlockRows);
    ASSERT_EQ(i64->blocks().size(), 3u);
    ASSERT_EQ(i64->blocks().size(), v2_ints->blocks().size());
    for (size_t b = 0; b < i64->blocks().size(); ++b) {
      EXPECT_EQ(i64->blocks()[b].codec, PackBlockCodec::kRaw);
      EXPECT_EQ(i64->blocks()[b].rows, v2_ints->blocks()[b].rows);
      EXPECT_EQ(i64->blocks()[b].length, v2_ints->blocks()[b].length);
    }
    EXPECT_EQ(i64->blocks().back().rows, 5);
  }
}

TEST(NdvPackTest, ExactDistinctMatchesAcrossStorage) {
  const Table table = MakeMixedTable();
  const std::string bytes = SerializePack(table);
  const AlignedImage image(bytes);
  const auto view = ParsePack(image.bytes());
  ASSERT_TRUE(view.ok());
  const Table mapped = TableFromPack(*view, nullptr);
  for (int64_t c = 0; c < table.NumColumns(); ++c) {
    EXPECT_EQ(ExactDistinctHashSet(table.column(c)),
              ExactDistinctHashSet(mapped.column(c)));
    EXPECT_EQ(ExactDistinctSorted(table.column(c)),
              ExactDistinctSorted(mapped.column(c)));
  }
}

TEST(NdvPackTest, LoadTableAutoDetectsBothFormats) {
  const Table table = MakeMixedTable();
  const std::string pack_path = TempPath("auto_detect.ndvpack");
  ASSERT_TRUE(WritePackFile(table, pack_path).ok());
  const auto from_pack = LoadTableAuto(pack_path);
  ASSERT_TRUE(from_pack.ok()) << from_pack.status().ToString();
  ExpectTablesEqual(table, *from_pack);

  // CSV with only the string column (CSV re-infers types; strings are the
  // format-stable case).
  const std::string csv_path = TempPath("auto_detect.csv");
  {
    std::string csv = "label\n\"a,b\"\nplain\n\"q\"\"q\"\n";
    FILE* f = fopen(csv_path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    fwrite(csv.data(), 1, csv.size(), f);
    fclose(f);
  }
  const auto from_csv = LoadTableAuto(csv_path);
  ASSERT_TRUE(from_csv.ok()) << from_csv.status().ToString();
  EXPECT_EQ(from_csv->NumRows(), 3);
  EXPECT_EQ(from_csv->column(0).ValueToString(0), "a,b");

  const auto missing = LoadTableAuto(TempPath("does_not_exist.anything"));
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kNotFound);
}

// ------------------------------------------------------------------------
// Rejection: every corruption yields a Status, never a crash or over-read.

std::string ValidImage() { return SerializePack(MakeMixedTable()); }

StatusCode ParseCodeOf(const std::string& bytes) {
  const AlignedImage image(bytes);
  const auto view = ParsePack(image.bytes());
  return view.ok() ? StatusCode::kOk : view.status().code();
}

TEST(NdvPackRejectTest, BadMagic) {
  std::string bytes = ValidImage();
  bytes[0] = 'X';
  EXPECT_EQ(ParseCodeOf(bytes), StatusCode::kInvalidArgument);
}

TEST(NdvPackRejectTest, TruncationAtEveryBoundary) {
  const std::string bytes = ValidImage();
  for (const size_t keep :
       {size_t{0}, size_t{7}, size_t{39}, size_t{47}, bytes.size() / 2,
        bytes.size() - 9, bytes.size() - 1}) {
    const StatusCode code = ParseCodeOf(bytes.substr(0, keep));
    EXPECT_NE(code, StatusCode::kOk) << "kept " << keep << " bytes";
  }
}

TEST(NdvPackRejectTest, EveryByteFlipIsRejectedOrHarmless) {
  // The trailing checksum makes any single-byte corruption detectable.
  const std::string bytes = ValidImage();
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string mutated = bytes;
    mutated[i] = static_cast<char>(mutated[i] ^ 0x41);
    EXPECT_NE(ParseCodeOf(mutated), StatusCode::kOk) << "flip at byte " << i;
  }
}

TEST(NdvPackRejectTest, UnsupportedVersion) {
  std::string bytes = ValidImage();
  bytes[8] = 2;  // version field
  // Re-stamp the checksum so the version check is what fires.
  const uint64_t sum =
      Checksum64(std::string_view(bytes).substr(0, bytes.size() - 8));
  std::memcpy(bytes.data() + bytes.size() - 8, &sum, 8);
  EXPECT_EQ(ParseCodeOf(bytes), StatusCode::kInvalidArgument);
}

TEST(NdvPackRejectTest, NotAPackFileThroughOpen) {
  const std::string path = TempPath("not_a_pack.ndvpack");
  FILE* f = fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  fputs("NDVPACK1 but then garbage", f);
  fclose(f);
  const auto opened = OpenPackFile(path);
  ASSERT_FALSE(opened.ok());
  // The error names the path for the operator.
  EXPECT_NE(opened.status().message().find(path), std::string::npos);
}

}  // namespace
}  // namespace ndv
