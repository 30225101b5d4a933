#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/file_io.h"
#include "datagen/string_data.h"
#include "datagen/zipf.h"
#include "storage/pack_writer.h"
#include "workloads.h"

namespace e2e {

ndv::Table MakeMixedTable(int64_t rows, int columns, uint64_t seed) {
  static constexpr double kSkews[4] = {0.0, 1.0, 2.0, 4.0};
  ndv::Table table;
  for (int c = 0; c < columns; ++c) {
    const uint64_t column_seed =
        ndv::SplitMix64(seed * 131 + static_cast<uint64_t>(c));
    const int kind = c % 8;
    std::string suffix(1, '_');
    suffix += std::to_string(c);
    if (kind < 6) {
      ndv::ZipfColumnOptions zipf;
      zipf.rows = rows;
      zipf.dup_factor = 10;
      zipf.seed = column_seed;
      std::string name;
      if (kind < 4) {
        zipf.z = kSkews[kind];
        name = "zipf" + std::to_string(static_cast<int>(zipf.z));
      } else {
        zipf.z = 1.0;
        zipf.layout = kind == 4 ? ndv::RowLayout::kClustered
                                : ndv::RowLayout::kSorted;
        name = kind == 4 ? "clustered" : "sorted";
      }
      table.AddColumn(name + suffix, ndv::MakeZipfColumn(zipf));
    } else if (kind == 6) {
      ndv::StringColumnOptions strings;
      strings.rows = rows;
      // At most 64k entries, so the codes fit the dictionary codec.
      strings.distinct = std::min<int64_t>(rows / 20, 50'000);
      strings.z = 1.0;
      strings.seed = column_seed;
      table.AddColumn("word" + suffix, ndv::MakeStringColumn(strings));
    } else {
      // Prices on a cent grid: many repeats, no usable integer codec.
      ndv::Rng rng(column_seed);
      std::vector<double> values(static_cast<size_t>(rows));
      const auto domain = static_cast<uint64_t>(rows / 4);
      for (double& value : values) {
        value = static_cast<double>(rng.NextBounded(domain)) * 0.01 + 0.005;
      }
      table.AddColumn("price" + suffix,
                      std::make_unique<ndv::DoubleColumn>(std::move(values)));
    }
  }
  return table;
}

void WritePackSynced(const ndv::Table& table, const std::string& path,
                     int64_t block_rows) {
  ndv::PackWriteOptions options;
  options.block_rows = block_rows;
  const ndv::Status written = ndv::WritePackFileV2(table, path, options);
  if (!written.ok()) Die("cannot write " + path + ": " + written.ToString());
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) Die("cannot reopen " + path);
  const ndv::Status synced = ndv::FsyncFd(fd, "pack");
  ::close(fd);
  if (!synced.ok()) Die("cannot sync " + path + ": " + synced.ToString());
}

std::vector<int64_t> ExactDistinct(const ndv::Table& table, int threads) {
  std::vector<int64_t> counts;
  for (int64_t c = 0; c < table.NumColumns(); ++c) {
    counts.push_back(ndv::ExactDistinctHashSet(table.column(c), threads));
  }
  return counts;
}

}  // namespace e2e
