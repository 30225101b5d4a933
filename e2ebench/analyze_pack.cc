// analyze-pack: ANALYZE from a compressed ndvpack file through the journal.
//
// Set-up writes an 8-column, 2M-row table once with WritePackFileV2 (auto
// codec) and counts every column's exact D. Each rep then runs the user
// path end to end: LoadTableAuto (mmap) -> AnalyzeTable (1% sample, AE) ->
// DurableCatalog::AppendPublish (fsync every record) ->
// ConcurrentStatsCatalog::Publish.
//
// The traced run repeats the reps as the sequence of public calls that
// AnalyzeTable makes per column (Floyd sample, HashRange, FlatHashCounter
// profile, estimator, GEE bounds) and must reproduce AnalyzeTable's
// catalog bit for bit.

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "catalog/concurrent_catalog.h"
#include "catalog/durable_catalog.h"
#include "common/flat_hash.h"
#include "common/thread_pool.h"
#include "core/all_estimators.h"
#include "core/gee.h"
#include "profile/frequency_profile.h"
#include "sample/samplers.h"
#include "storage/pack_codec.h"
#include "storage/table_loader.h"
#include "trace.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr int64_t kRows = 2'000'000;
constexpr int kColumns = 8;
constexpr int kThreads = 1;  // AnalyzeTable workers
constexpr double kFraction = 0.01;
constexpr int kMinReps = 5;
constexpr int kRecoveries = 5;

ndv::AnalyzeOptions RepOptions(uint64_t seed, int rep) {
  ndv::AnalyzeOptions options;
  options.sample_fraction = kFraction;
  options.estimator = "AE";
  options.threads = kThreads;
  options.seed = seed + static_cast<uint64_t>(rep);
  return options;
}

std::unique_ptr<ndv::DurableCatalog> OpenJournal(const std::string& dir) {
  ndv::DurableCatalogOptions options;
  options.dir = dir;
  options.fsync = ndv::FsyncPolicy::kEveryRecord;
  auto durable = ndv::DurableCatalog::Open(options);
  if (!durable.ok()) Die("cannot open journal: " + durable.status().ToString());
  return *std::move(durable);
}

ndv::Table LoadPack(const std::string& path) {
  auto table = ndv::LoadTableAuto(path);
  if (!table.ok()) {
    Die("cannot load " + path + ": " + table.status().ToString());
  }
  return *std::move(table);
}

struct Setup {
  ndv::Table heap;  // the generated rows, also the heap copy for tracing
  std::vector<int64_t> truth;
  std::vector<std::string> codecs;  // dominant codec per column
};

int CodecIndex(const std::string& codec) {
  return codec == "delta" ? 0 : codec == "dict" ? 1 : 2;
}

// Per-rep totals of the traced rep's own calls, in nanoseconds.
struct RepLayers {
  AnalyzeLayers analyze;
  double open = 0, journal = 0, publish = 0, snapshot = 0, total = 0;
};

// One traced rep: the calls the untraced rep makes, one span each.
ndv::StatsCatalog TracedRep(const std::string& pack, const Setup& setup,
                            const ndv::AnalyzeOptions& options,
                            ndv::DurableCatalog& durable,
                            ndv::ConcurrentStatsCatalog& live,
                            RepLayers& layers) {
  trace::Span rep("analyze.rep");
  ndv::Table table;
  {
    trace::Span span("storage.open", rep.id());
    table = LoadPack(pack);
    layers.open = static_cast<double>(span.Close());
  }
  const ndv::StatsCatalog catalog = TracedAnalyzeTable(
      table, setup.codecs, options, rep.id(), layers.analyze);
  {
    trace::Span span("catalog.journal", rep.id());
    if (!durable.AppendPublish(catalog).ok()) Die("traced journal failed");
    layers.journal = static_cast<double>(span.Close());
  }
  {
    trace::Span span("catalog.publish", rep.id());
    live.Publish(catalog);
    layers.publish = static_cast<double>(span.Close());
  }
  {
    trace::Span span("catalog.snapshot", rep.id());
    for (int64_t c = 0; c < table.NumColumns(); ++c) {
      (void)live.Snapshot()->catalog.Find(table.column_name(c));
    }
    layers.snapshot = static_cast<double>(span.Close()) /
                      static_cast<double>(table.NumColumns());
  }
  layers.total = static_cast<double>(rep.Close());
  HashHeapReference(setup.heap, layers.analyze);
  return catalog;
}

}  // namespace

ndv::StatsCatalog TracedAnalyzeTable(const ndv::Table& table,
                                     const std::vector<std::string>& codecs,
                                     const ndv::AnalyzeOptions& options,
                                     uint64_t parent, AnalyzeLayers& layers) {
  static const char* const kHashSpan[3] = {"table.hash_range.delta",
                                           "table.hash_range.dict",
                                           "table.hash_range.raw"};
  const auto columns = static_cast<size_t>(table.NumColumns());
  std::vector<ndv::ColumnStats> per_column(columns);
  layers.rows.assign(columns, {});
  std::vector<double> select(columns), hash(columns), profile(columns),
      estimate(columns), bounds(columns);
  const auto estimator = ndv::MakeEstimatorByName(options.estimator);
  trace::Span region("catalog.analyze_table", parent);
  ndv::Rng root(options.seed);
  std::vector<ndv::Rng> rngs;
  for (size_t c = 0; c < columns; ++c) rngs.push_back(root.Fork());
  ndv::ParallelFor(static_cast<int64_t>(columns), options.threads,
                   [&](int64_t c64) {
    const auto c = static_cast<size_t>(c64);
    const ndv::Column& column = table.column(c64);
    trace::Span col("analyze.column", region.id());
    const int64_t n = column.size();
    const int64_t r = std::clamp<int64_t>(
        std::llround(options.sample_fraction * static_cast<double>(n)), 1, n);
    std::vector<int64_t>& rows = layers.rows[c];
    {
      trace::Span span("sample.select", col.id());
      rows = ndv::SampleWithoutReplacementFloyd(n, r, rngs[c]);
      select[c] = static_cast<double>(span.Close());
    }
    std::vector<uint64_t> hashes(rows.size());
    {
      trace::Span span(kHashSpan[CodecIndex(codecs[c])], col.id());
      column.HashRange(rows, hashes.data());
      hash[c] = static_cast<double>(span.Close());
    }
    ndv::SampleSummary sample;
    {
      trace::Span span("profile.build", col.id());
      ndv::FlatHashCounter counts;
      for (const uint64_t h : hashes) counts.Add(h);
      sample.table_rows = n;
      sample.sample_rows = r;
      sample.freq = ndv::FrequencyProfile::FromHashCounter(counts);
      profile[c] = static_cast<double>(span.Close());
    }
    ndv::ColumnStats stats;
    {
      trace::Span span("core.gee_bounds", col.id());
      const ndv::GeeBounds gee = ndv::ComputeGeeBounds(sample);
      stats.lower = gee.lower;
      stats.upper = gee.upper;
      bounds[c] = static_cast<double>(span.Close());
    }
    {
      trace::Span span("estimators.estimate", col.id());
      stats.estimate = estimator->Estimate(sample);
      estimate[c] = static_cast<double>(span.Close());
    }
    stats.column_name = table.column_name(c64);
    stats.table_rows = sample.n();
    stats.sample_rows = sample.r();
    stats.sample_distinct = sample.d();
    stats.method = options.estimator;
    per_column[c] = std::move(stats);
  });
  layers.total = static_cast<double>(region.Close());
  ndv::StatsCatalog catalog;
  for (size_t c = 0; c < columns; ++c) {
    catalog.Put(std::move(per_column[c]));
    layers.hash_range += hash[c];
    layers.hash_by_codec[CodecIndex(codecs[c])] += hash[c];
    layers.select += select[c];
    layers.profile += profile[c];
    layers.estimate += estimate[c];
    layers.bounds += bounds[c];
  }
  return catalog;
}

void HashHeapReference(const ndv::Table& heap, AnalyzeLayers& layers) {
  for (size_t c = 0; c < layers.rows.size(); ++c) {
    std::vector<uint64_t> hashes(layers.rows[c].size());
    trace::Span span("table.hash_range.heap");
    heap.column(static_cast<int64_t>(c)).HashRange(layers.rows[c],
                                                   hashes.data());
    layers.hash_heap += static_cast<double>(span.Close());
  }
}

void ReportAnalyzeLayers(Result& result,
                         const std::vector<AnalyzeLayers>& runs) {
  struct LayerMetric {
    const char* name;
    double (*ns)(const AnalyzeLayers&);
  };
  static constexpr LayerMetric kMetrics[] = {
      {"sample.select_ms", [](const AnalyzeLayers& l) { return l.select; }},
      {"table.hash_range_ms",
       [](const AnalyzeLayers& l) { return l.hash_range; }},
      {"table.hash_range_ms.delta",
       [](const AnalyzeLayers& l) { return l.hash_by_codec[0]; }},
      {"table.hash_range_ms.dict",
       [](const AnalyzeLayers& l) { return l.hash_by_codec[1]; }},
      {"table.hash_range_ms.raw",
       [](const AnalyzeLayers& l) { return l.hash_by_codec[2]; }},
      {"storage.decode_ms",
       [](const AnalyzeLayers& l) { return l.hash_range - l.hash_heap; }},
      {"profile.build_ms", [](const AnalyzeLayers& l) { return l.profile; }},
      {"estimators.estimate_ms",
       [](const AnalyzeLayers& l) { return l.estimate; }},
      {"core.gee_bounds_ms", [](const AnalyzeLayers& l) { return l.bounds; }},
      {"catalog.analyze_table_ms",
       [](const AnalyzeLayers& l) { return l.total; }},
  };
  for (const LayerMetric& metric : kMetrics) {
    std::vector<double> values;
    for (const AnalyzeLayers& l : runs) values.push_back(metric.ns(l));
    result.Metric(metric.name, Median(values) / 1e6, "ms");
  }
}

void RunAnalyzePack(const Options& options, Result& result) {
  const std::string pack = options.workdir + "/analyze.ndvpack";
  Setup setup;
  std::vector<double> setup_seconds;
  for (int i = 0; i < kSetupRepeats; ++i) {
    const int64_t start = NowNs();
    setup.heap = MakeMixedTable(kRows, kColumns, options.seed);
    WritePackSynced(setup.heap, pack, ndv::kDefaultPackBlockRows);
    setup.truth = ExactDistinct(setup.heap, kThreads);
    setup_seconds.push_back(NsToMs(NowNs() - start) / 1e3);
  }
  StampEnvironment(result);
  setup.codecs = StampPack(result, pack);
  result.Stamp("rows", static_cast<double>(kRows));
  result.Stamp("analyze_threads", kThreads);
  result.Stamp("sample_fraction", kFraction);
  result.Stamp("estimator", "AE");
  result.Stamp("fsync", "every_record");
  result.Metric("setup_s", Median(setup_seconds), "s");

  PinToCpu(1);  // the measured work is single-threaded

  // Untraced reps: the end-to-end numbers. In traced mode they get half
  // of the budget and the traced reps repeat them with the same seeds.
  const double budget_s = options.trace ? options.seconds / 2 : options.seconds;
  const std::string wal = options.workdir + "/wal";
  auto durable = OpenJournal(wal);
  ndv::ConcurrentStatsCatalog live;
  // One unmeasured rep first, so the page cache and decode buffers are
  // warm.
  (void)ndv::AnalyzeTable(LoadPack(pack), RepOptions(options.seed, -1));
  Accuracy accuracy;
  std::vector<double> rep_ns;
  std::vector<ndv::StatsCatalog> published;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  for (int rep = 0; rep < kMinReps || NowNs() < deadline; ++rep) {
    const int64_t start = NowNs();
    ndv::StatsCatalog catalog;
    uint64_t epoch = 0;
    {
      const ndv::Table table = LoadPack(pack);
      catalog = ndv::AnalyzeTable(table, RepOptions(options.seed, rep));
      const ndv::Status journaled = durable->AppendPublish(catalog);
      result.Op(journaled.ok());
      epoch = live.Publish(catalog);
      rep_ns.push_back(static_cast<double>(NowNs() - start));
    }
    result.Check(epoch == static_cast<uint64_t>(rep) + 1,
                 "published epoch follows the rep count");
    result.Check(static_cast<int64_t>(catalog.entries().size()) == kColumns,
                 "every column analyzed");
    for (size_t c = 0; c < catalog.entries().size(); ++c) {
      accuracy.Score(catalog.entries()[c], setup.truth[c]);
    }
    published.push_back(std::move(catalog));
  }
  result.Check(accuracy.malformed() == 0, "every bracket well-formed");

  // Restart from the journal the reps wrote, up to the first answer.
  durable.reset();
  std::vector<double> recover_ns;
  for (int i = 0; i < kRecoveries; ++i) {
    const int64_t start = NowNs();
    auto reopened = OpenJournal(wal);
    ndv::ConcurrentStatsCatalog recovered(reopened->state(), reopened->epoch());
    const auto first =
        recovered.Find(published.back().entries()[0].column_name);
    recover_ns.push_back(static_cast<double>(NowNs() - start));
    result.Check(first.has_value() &&
                     recovered.epoch() == published.size() &&
                     SameCatalog(recovered.Snapshot()->catalog,
                                 published.back()),
                 "journal recovery reproduces the last published catalog");
  }

  const double reps = static_cast<double>(rep_ns.size());
  result.Stamp("reps", reps);
  result.Metric("analyze_ms", Median(rep_ns) / 1e6, "ms");
  result.Metric("op_p50_us", Median(rep_ns) / 1e3, "us");
  result.Metric("op_p99_us", Quantile(rep_ns, 0.99) / 1e3, "us");
  result.Metric("truth_in_bracket", accuracy.TruthInBracket(), "share");
  result.Metric("qerror_p50", accuracy.QErrorP50(), "ratio");
  result.Metric("qerror_max", accuracy.QErrorMax(), "ratio");
  result.Metric("recover_ms", Median(recover_ns) / 1e6, "ms");
  result.Metric("scored_pairs", static_cast<double>(accuracy.pairs()),
                "count");
  if (!options.trace) return;

  // Traced reps: same seeds, fresh journal, one span per public call.
  trace::Clear();
  const std::string traced_wal = options.workdir + "/wal-traced";
  auto traced_durable = OpenJournal(traced_wal);
  ndv::ConcurrentStatsCatalog traced_live;
  std::vector<RepLayers> layers(published.size());
  for (size_t rep = 0; rep < published.size(); ++rep) {
    const ndv::StatsCatalog catalog = TracedRep(
        pack, setup, RepOptions(options.seed, static_cast<int>(rep)),
        *traced_durable, traced_live, layers[rep]);
    result.Check(SameCatalog(catalog, published[rep]),
                 "traced decomposition reproduces AnalyzeTable");
  }
  // Per-layer numbers: the median over reps of each rep's total.
  std::vector<AnalyzeLayers> analyze_layers;
  for (const RepLayers& l : layers) analyze_layers.push_back(l.analyze);
  ReportAnalyzeLayers(result, analyze_layers);
  const auto median_of = [&](double (*ns)(const RepLayers&)) {
    std::vector<double> values;
    for (const RepLayers& l : layers) values.push_back(ns(l));
    return Median(values);
  };
  result.Metric("storage.open_ms",
                median_of([](const RepLayers& l) { return l.open; }) / 1e6,
                "ms");
  result.Metric("catalog.journal_ms",
                median_of([](const RepLayers& l) { return l.journal; }) / 1e6,
                "ms");
  result.Metric("catalog.publish_us",
                median_of([](const RepLayers& l) { return l.publish; }) / 1e3,
                "us");
  result.Metric("catalog.snapshot_us",
                median_of([](const RepLayers& l) { return l.snapshot; }) / 1e3,
                "us");
  result.Metric("catalog.wal_bytes",
                static_cast<double>(FileBytes(
                    traced_wal + "/" +
                    std::string(ndv::DurableCatalog::kWalFile))) /
                    reps,
                "bytes");
  const std::vector<trace::SpanRecord> spans = trace::Collect();
  trace::CheckUnaccounted(result, spans, "analyze.rep");
  result.Metric("trace.overhead_frac",
                median_of([](const RepLayers& l) { return l.total; }) /
                        Median(rep_ns) -
                    1.0,
                "share");
  trace::Report(spans, options.trace_file);
}

}  // namespace e2e
