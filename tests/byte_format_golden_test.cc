// Golden bytes for every fixed-width binary format the library writes: a
// serve STATS reply, the WAL after one Put and one Publish, and the v1 and
// v2 ndvpack images of one small three-type table. The expected values
// were captured from the encoders and must never change: a diff here means
// an on-wire or on-disk format changed, which breaks peers, recovery of
// existing stores, or existing pack files.

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "catalog/durable_catalog.h"
#include "catalog/stats_catalog.h"
#include "common/file_io.h"
#include "serve/protocol.h"
#include "storage/ndvpack.h"
#include "storage/pack_writer.h"
#include "table/table.h"

namespace ndv {
namespace {

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto byte = static_cast<uint8_t>(c);
    out.push_back(kDigits[byte >> 4]);
    out.push_back(kDigits[byte & 0xf]);
  }
  return out;
}

ColumnStats FixedStats(const std::string& name, int64_t salt) {
  ColumnStats stats;
  stats.column_name = name;
  stats.table_rows = 1000 + salt;
  stats.sample_rows = 100 + salt;
  stats.sample_distinct = 10 + salt;
  stats.estimate = 50.5 + static_cast<double>(salt);
  stats.lower = 10.0 + static_cast<double>(salt);
  stats.upper = 400.25 + static_cast<double>(salt);
  stats.coverage = salt == 0 ? 1.0 : 0.5;
  stats.degraded = salt != 0;
  stats.method = salt == 0 ? "AE" : "GEE";
  return stats;
}

// The ColumnStats encoding of FixedStats(name, salt): u32-prefixed name,
// table_rows, sample_rows, sample_distinct (i64), estimate, lower, upper,
// coverage (f64 bit patterns), degraded (u8), u32-prefixed method.
const std::string kStatsC1 =
    "0100000063"
    "e903000000000000"
    "6500000000000000"
    "0b00000000000000"
    "0000000000c04940"
    "0000000000002640"
    "0000000000147940"
    "000000000000e03f"
    "01"
    "03000000474545";
const std::string kStatsA0 =
    "0100000061"
    "e803000000000000"
    "6400000000000000"
    "0a00000000000000"
    "0000000000404940"
    "0000000000002440"
    "0000000000047940"
    "000000000000f03f"
    "00"
    "020000004145";
const std::string kStatsA2 =
    "0100000061"
    "ea03000000000000"
    "6600000000000000"
    "0c00000000000000"
    "0000000000404a40"
    "0000000000002840"
    "0000000000247940"
    "000000000000e03f"
    "01"
    "03000000474545";
const std::string kStatsBc3 =
    "020000006263"
    "eb03000000000000"
    "6700000000000000"
    "0d00000000000000"
    "0000000000c04a40"
    "0000000000002a40"
    "0000000000347940"
    "000000000000e03f"
    "01"
    "03000000474545";

Table FixedTable() {
  Table table;
  table.AddColumn("ints", std::make_unique<Int64Column>(
                              std::vector<int64_t>{3, -1, 7, 3, 1 << 20}));
  table.AddColumn("doubles",
                  std::make_unique<DoubleColumn>(
                      std::vector<double>{0.5, -2.25, 0.5, 1e300, 0.0}));
  table.AddColumn("strings", std::make_unique<StringColumn>(
                                 std::vector<std::string>{"a", "bb", "a", "",
                                                          "ccc"}));
  return table;
}

TEST(ByteFormatGoldenTest, StatsReplyBytes) {
  Message reply;
  reply.type = MessageType::kStatsReply;
  reply.request_id = 0x0102030405060708ULL;
  reply.epoch = 9;
  reply.stale = true;
  reply.stats = FixedStats("c", 1);
  // type | request id | epoch | stale | ColumnStats.
  EXPECT_EQ(Hex(EncodeMessage(reply)),
            "04"
            "0807060504030201"
            "0900000000000000"
            "01" +
                kStatsC1);
}

TEST(ByteFormatGoldenTest, WalBytesAfterPutAndPublish) {
  const std::string dir = testing::TempDir() + "/golden_wal";
  std::system(("rm -rf " + dir).c_str());
  {
    auto durable = DurableCatalog::Open(
        {.dir = dir, .fsync = FsyncPolicy::kNone});
    ASSERT_TRUE(durable.ok()) << durable.status().ToString();
    ASSERT_TRUE((*durable)->AppendPut(FixedStats("a", 0)).ok());
    StatsCatalog catalog;
    catalog.Put(FixedStats("a", 2));
    catalog.Put(FixedStats("bc", 3));
    ASSERT_TRUE((*durable)->AppendPublish(catalog).ok());
  }
  const auto wal = ReadFileOrStatus(dir + "/" +
                                    std::string(DurableCatalog::kWalFile));
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  // magic | Put record | Publish record; each record is u32 length |
  // u64 checksum | u8 kind | u64 epoch | body.
  EXPECT_EQ(Hex(*wal),
            std::string("4e445657414c310a") +
                "4d000000"
                "7e09b42405274c0b"
                "01"
                "0100000000000000" +
                kStatsA0 +
                "98000000"
                "4268ea0a9c4b8634"
                "02"
                "0200000000000000"
                "02000000" +
                kStatsA2 + kStatsBc3);
}

TEST(ByteFormatGoldenTest, PackV1Checksum) {
  EXPECT_EQ(Checksum64(SerializePack(FixedTable())),
            136799527898920313ULL);
}

TEST(ByteFormatGoldenTest, PackV2Checksum) {
  EXPECT_EQ(Checksum64(SerializePackV2(FixedTable())),
            1649694703813628152ULL);
}

}  // namespace
}  // namespace ndv
