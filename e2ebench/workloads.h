// The three workloads. Each fills `result` with its metrics and checks; in
// traced mode it also runs the traced decomposition and writes its spans
// to `trace_path`.
#ifndef NDV_E2EBENCH_WORKLOADS_H_
#define NDV_E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"
#include "catalog/stats_catalog.h"
#include "table/table.h"

namespace e2e {

// Set-up is repeated this many times per run and setup_s is the median;
// append-stream's set-up takes ~50 ms, so it repeats more to be as steady.
inline constexpr int kSetupRepeats = 3;
inline constexpr int kShortSetupRepeats = 9;

// A mixed-type table: Zipf int64 columns of skew 0, 1, 2 and 4 in random
// row order, one clustered and one sorted Zipf column, one string column
// and one double column, repeated until `columns` are made. The codec the
// pack writer picks follows from the data: delta for the int64 columns,
// dictionary codes for the strings, raw for the doubles.
ndv::Table MakeMixedTable(int64_t rows, int columns, uint64_t seed);

// WritePackFileV2 (auto codec, `block_rows` per block), then fsync, so
// the measured phase never pays for writing back the set-up's pages. Dies
// on failure.
void WritePackSynced(const ndv::Table& table, const std::string& path,
                     int64_t block_rows);

// Exact distinct count of every column.
std::vector<int64_t> ExactDistinct(const ndv::Table& table, int threads);

// Totals (ns) of the calls AnalyzeTable makes, summed over the columns of
// one traced call.
struct AnalyzeLayers {
  double select = 0, hash_range = 0, hash_heap = 0, profile = 0,
         estimate = 0, bounds = 0;
  double hash_by_codec[3] = {0, 0, 0};  // delta, dict, raw
  double total = 0;                     // the whole traced call
  std::vector<std::vector<int64_t>> rows;  // the sampled rows per column
};

// AnalyzeTable written out as the calls it makes per column — Floyd
// sample, HashRange, FlatHashCounter profile, GEE bounds, estimator — one
// span each, under a "catalog.analyze_table" span whose parent is
// `parent`. `codecs` names each column's pack codec. Returns the catalog
// AnalyzeTable returns for the same table and options.
ndv::StatsCatalog TracedAnalyzeTable(const ndv::Table& table,
                                     const std::vector<std::string>& codecs,
                                     const ndv::AnalyzeOptions& options,
                                     uint64_t parent, AnalyzeLayers& layers);

// Hashes the rows the traced call sampled from `heap`, the in-memory copy
// of the same table, so hash_range - hash_heap is the cost of reaching
// the values in the file.
void HashHeapReference(const ndv::Table& heap, AnalyzeLayers& layers);

// Reports the median over `runs` of every AnalyzeLayers total as the
// sample/table/storage/profile/estimator/GEE/analyze_table metrics.
void ReportAnalyzeLayers(Result& result,
                         const std::vector<AnalyzeLayers>& runs);

void RunAnalyzePack(const Options& options, Result& result);
void RunServeMixed(const Options& options, Result& result);
void RunAppendStream(const Options& options, Result& result);

}  // namespace e2e

#endif  // NDV_E2EBENCH_WORKLOADS_H_
