// append-stream: incremental statistics over an append stream.
//
// A 1M-row heap base table is analyzed, published and tracked by a
// StatsMaintainer (GEE, background=false, so drift-fired re-ANALYZEs run
// inline and the run is deterministic). The stream is a fixed number of
// 1k-row batches, each with a fixed share of never-seen values, so the
// true D after every batch is known by construction. The re-ANALYZE
// callback belongs to the benchmark: MaterializeColumnSlice of the rows
// appended so far, ConcatTables with the base, AnalyzeTable.
//
// The traced run feeds a shadow IncrementalStats the same batches through
// the calls StatsMaintainer::Append makes (HashSlice, AddHashes, Snapshot,
// Put, DriftSinceFresh, and the re-ANALYZE when drift fires) and must
// publish the same statistics for every batch.

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "catalog/concurrent_catalog.h"
#include "core/all_estimators.h"
#include "ingest/incremental_stats.h"
#include "ingest/maintenance.h"
#include "storage/materialize.h"
#include "trace.h"
#include "workloads.h"

namespace e2e {
namespace {

constexpr int64_t kBaseRows = 1'000'000;
constexpr int64_t kBaseDistinct = 2'000;
constexpr int64_t kBatchRows = 1'000;
constexpr int64_t kBatches = 2'000;
constexpr int64_t kFreshPerBatch = 50;  // never-seen values in each batch
constexpr double kFraction = 0.01;
constexpr int kAnalyzeThreads = 1;
constexpr int kMinPasses = 2;
const std::string kColumn = "v";

ndv::AnalyzeOptions AnalyzeOptionsFor(uint64_t seed) {
  ndv::AnalyzeOptions options;
  options.sample_fraction = kFraction;
  options.estimator = "GEE";
  options.threads = kAnalyzeThreads;
  options.seed = seed;
  return options;
}

ndv::IncrementalStatsOptions TrackerOptions(uint64_t seed) {
  ndv::IncrementalStatsOptions options;
  options.seed = seed;
  return options;
}

int64_t TruthAfter(int64_t batch) {
  return kBaseDistinct + (batch + 1) * kFreshPerBatch;
}

struct Data {
  ndv::Table base;
  std::unique_ptr<ndv::Int64Column> stream;  // every batch, back to back
};

Data MakeData(uint64_t seed) {
  ndv::Rng rng(seed);
  std::vector<int64_t> base(static_cast<size_t>(kBaseRows));
  for (int64_t i = 0; i < kBaseRows; ++i) {
    base[static_cast<size_t>(i)] = i % kBaseDistinct;
  }
  for (size_t i = base.size() - 1; i > 0; --i) {
    std::swap(base[i], base[rng.NextBounded(i + 1)]);
  }
  std::vector<int64_t> stream(static_cast<size_t>(kBatches * kBatchRows));
  int64_t fresh = kBaseDistinct;
  for (int64_t b = 0; b < kBatches; ++b) {
    int64_t* batch = stream.data() + b * kBatchRows;
    for (int64_t i = 0; i < kBatchRows; ++i) {
      batch[i] = i < kFreshPerBatch
                     ? fresh++
                     : static_cast<int64_t>(rng.NextBounded(kBaseDistinct));
    }
    for (int64_t i = kBatchRows - 1; i > 0; --i) {
      std::swap(batch[i],
                batch[rng.NextBounded(static_cast<uint64_t>(i) + 1)]);
    }
  }
  Data data;
  data.base.AddColumn(kColumn,
                      std::make_unique<ndv::Int64Column>(std::move(base)));
  data.stream = std::make_unique<ndv::Int64Column>(std::move(stream));
  return data;
}

ndv::ColumnSlice Batch(const Data& data, int64_t b) {
  return {data.stream.get(), b * kBatchRows, (b + 1) * kBatchRows};
}

// The benchmark's re-ANALYZE: base plus every row appended so far.
ndv::StatusOr<ndv::StatsCatalog> Reanalyze(const Data& data,
                                           int64_t appended_rows,
                                           uint64_t seed) {
  auto slice = ndv::MaterializeColumnSlice(*data.stream, 0, appended_rows);
  if (!slice.ok()) return slice.status();
  ndv::Table appended;
  appended.AddColumn(kColumn, *std::move(slice));
  auto whole = ndv::ConcatTables(data.base, appended);
  if (!whole.ok()) return whole.status();
  return ndv::AnalyzeTable(*whole, AnalyzeOptionsFor(seed));
}

uint64_t FireSeed(uint64_t seed, int64_t fire) {
  return seed + 1 + static_cast<uint64_t>(fire);
}

// One pass of the stream through a fresh StatsMaintainer.
struct Pass {
  std::vector<double> append_ns;
  std::vector<double> reanalyze_ns;
  std::vector<ndv::ColumnStats> put_stats;  // the Put of every batch
  std::vector<uint8_t> fired;
  double stream_ns = 0;
  ndv::MaintainerCounters counters;
};

Pass RunPass(const Data& data, uint64_t seed, Accuracy* accuracy,
             Result& result) {
  Pass pass;
  ndv::ConcurrentStatsCatalog catalog;
  catalog.Publish(ndv::AnalyzeTable(data.base, AnalyzeOptionsFor(seed)));
  int64_t appended_rows = 0;
  bool fired = false;
  std::shared_ptr<const ndv::CatalogEpoch> put_epoch;
  const auto reanalyze = [&]() -> ndv::StatusOr<ndv::StatsCatalog> {
    put_epoch = catalog.Snapshot();  // this batch's Put, before the refresh
    const int64_t start = NowNs();
    auto fresh = Reanalyze(
        data, appended_rows,
        FireSeed(seed, static_cast<int64_t>(pass.reanalyze_ns.size())));
    pass.reanalyze_ns.push_back(static_cast<double>(NowNs() - start));
    fired = true;
    return fresh;
  };
  ndv::StatsMaintainerOptions options;
  options.tracker = TrackerOptions(seed);
  options.estimator = "GEE";
  options.background = false;
  ndv::StatsMaintainer maintainer(&catalog, reanalyze, options);
  maintainer.Track(kColumn, ndv::FullColumnSlice(data.base.column(0)));

  uint64_t last_epoch = catalog.epoch();
  bool epochs_ok = true;
  const int64_t stream_start = NowNs();
  for (int64_t b = 0; b < kBatches; ++b) {
    appended_rows = (b + 1) * kBatchRows;
    fired = false;
    const int64_t start = NowNs();
    const uint64_t epoch = maintainer.Append(kColumn, Batch(data, b));
    pass.append_ns.push_back(static_cast<double>(NowNs() - start));

    const auto latest = catalog.Snapshot();
    const auto put = fired ? put_epoch : latest;
    epochs_ok = epochs_ok && epoch == last_epoch + 1 && put->epoch == epoch &&
                latest->epoch == epoch + (fired ? 1 : 0);
    last_epoch = latest->epoch;
    pass.put_stats.push_back(*put->catalog.Find(kColumn));
    pass.fired.push_back(fired ? 1 : 0);
    if (accuracy != nullptr) {
      accuracy->Score(pass.put_stats.back(), TruthAfter(b));
      if (fired) accuracy->Score(*latest->catalog.Find(kColumn), TruthAfter(b));
    }
  }
  pass.stream_ns = static_cast<double>(NowNs() - stream_start);
  pass.counters = maintainer.counters();
  result.AddOps(kBatches, 0);
  result.Check(epochs_ok, "every append publishes the next epoch");
  result.Check(pass.counters.publications == kBatches,
               "ingest.publications equals the batch count");
  result.Check(pass.counters.reanalyze_failures == 0 &&
                   pass.counters.reanalyzes ==
                       static_cast<int64_t>(pass.reanalyze_ns.size()) &&
                   pass.counters.drift_fires == pass.counters.reanalyzes,
               "every drift fire re-analyzed and published");
  return pass;
}

}  // namespace

void RunAppendStream(const Options& options, Result& result) {
  Data data;
  std::vector<double> setup_seconds;
  for (int i = 0; i < kShortSetupRepeats; ++i) {
    const int64_t start = NowNs();
    data = MakeData(options.seed);
    const int64_t base_distinct =
        ndv::ExactDistinctHashSet(data.base.column(0), 1);
    setup_seconds.push_back(NsToMs(NowNs() - start) / 1e3);
    result.Check(base_distinct == kBaseDistinct,
                 "base table holds the constructed distinct count");
  }
  StampEnvironment(result);
  result.Stamp("base_rows", static_cast<double>(kBaseRows));
  result.Stamp("base_distinct", static_cast<double>(kBaseDistinct));
  result.Stamp("batch_rows", static_cast<double>(kBatchRows));
  result.Stamp("batches", static_cast<double>(kBatches));
  result.Stamp("fresh_per_batch", static_cast<double>(kFreshPerBatch));
  result.Stamp("analyze_threads", kAnalyzeThreads);
  result.Stamp("estimator", "GEE");
  result.Stamp("background", "false");
  result.Metric("setup_s", Median(setup_seconds), "s");

  PinToCpu(1);  // the measured work is single-threaded

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget * 1e9);
  Accuracy accuracy;
  std::vector<Pass> passes;
  while (static_cast<int>(passes.size()) < kMinPasses || NowNs() < deadline) {
    passes.push_back(RunPass(data, options.seed,
                             passes.empty() ? &accuracy : nullptr, result));
    const Pass& pass = passes.back();
    bool same = pass.put_stats.size() == passes[0].put_stats.size() &&
                pass.fired == passes[0].fired;
    for (size_t b = 0; same && b < pass.put_stats.size(); ++b) {
      same = SameStats(pass.put_stats[b], passes[0].put_stats[b]);
    }
    result.Check(same, "every pass publishes the same statistics");
  }
  result.Check(accuracy.malformed() == 0, "every bracket well-formed");

  // Every figure is a median over passes of a per-pass figure, so a busy
  // spell of the host that spoils a few passes moves it by their share
  // only. The fires of a pass re-analyze tables of different sizes, so
  // their times form one cluster per fire: a median over all fires would
  // sit on a gap between clusters; the median of per-pass means does not.
  std::vector<double> append_p50, append_p99, reanalyze_ns;
  double stream_ns = 0;
  for (const Pass& pass : passes) {
    append_p50.push_back(Quantile(pass.append_ns, 0.5));
    append_p99.push_back(Quantile(pass.append_ns, 0.99));
    if (!pass.reanalyze_ns.empty()) {
      double sum = 0;
      for (const double ns : pass.reanalyze_ns) sum += ns;
      reanalyze_ns.push_back(sum /
                             static_cast<double>(pass.reanalyze_ns.size()));
    }
    stream_ns += pass.stream_ns;
  }
  const double rows =
      static_cast<double>(passes.size()) * kBatches * kBatchRows;
  result.Stamp("passes", static_cast<double>(passes.size()));
  result.Metric("analyze_ms", Median(reanalyze_ns) / 1e6, "ms");
  result.Metric("op_p50_us", Median(append_p50) / 1e3, "us");
  result.Metric("op_p99_us", Median(append_p99) / 1e3, "us");
  result.Metric("truth_in_bracket", accuracy.TruthInBracket(), "share");
  result.Metric("qerror_p50", accuracy.QErrorP50(), "ratio");
  result.Metric("qerror_max", accuracy.QErrorMax(), "ratio");
  result.Metric("append_p50_us", Median(append_p50) / 1e3, "us");
  result.Metric("append_p99_us", Median(append_p99) / 1e3, "us");
  result.Metric("append_rows_per_s", rows / (stream_ns / 1e9), "1/s");
  result.Metric("ingest.reanalyze_ms", Median(reanalyze_ns) / 1e6, "ms");
  result.Metric("ingest.drift_fires",
                static_cast<double>(passes[0].counters.drift_fires), "count");
  result.Metric("ingest.publications",
                static_cast<double>(passes[0].counters.publications), "count");
  result.Metric("scored_pairs", static_cast<double>(accuracy.pairs()), "count");
  if (!options.trace) return;

  // Traced pass: a shadow tracker and catalog fed the same batches through
  // the calls StatsMaintainer::Append makes.
  trace::Clear();
  const Pass& reference = passes[0];
  const auto estimator = ndv::MakeEstimatorByName("GEE");
  ndv::ConcurrentStatsCatalog shadow;
  ndv::IncrementalStats tracker(TrackerOptions(options.seed));
  double tolerance = 0;
  {
    trace::Span boot("ingest.boot");
    {
      trace::Span span("catalog.analyze_table", boot.id());
      shadow.Publish(
          ndv::AnalyzeTable(data.base, AnalyzeOptionsFor(options.seed)));
    }
    {
      trace::Span span("ingest.tracker_warm", boot.id());
      tracker.AppendBatch(ndv::FullColumnSlice(data.base.column(0)));
    }
    const auto published = shadow.Find(kColumn);
    tolerance = published->upper - published->lower;
    tracker.MarkFresh();
  }
  int64_t fires = 0;
  bool same = true;
  std::vector<uint64_t> hashes(static_cast<size_t>(kBatchRows));
  for (int64_t b = 0; b < kBatches; ++b) {
    trace::Span root("ingest.append");
    const ndv::ColumnSlice batch = Batch(data, b);
    {
      trace::Span span("table.hash_slice", root.id());
      batch.column->HashSlice(batch.begin, batch.end, hashes.data());
    }
    {
      trace::Span span("ingest.add_hashes", root.id());
      tracker.AddHashes(hashes);
    }
    ndv::ColumnStats stats;
    {
      trace::Span span("ingest.snapshot", root.id());
      stats = tracker.Snapshot(kColumn, *estimator);
    }
    same = same &&
           SameStats(stats, reference.put_stats[static_cast<size_t>(b)]);
    {
      trace::Span span("catalog.put", root.id());
      shadow.Put(std::move(stats));
    }
    bool fire = false;
    {
      trace::Span span("ingest.drift", root.id());
      fire = ndv::DriftTriggerFires(tracker.DriftSinceFresh(), tolerance);
    }
    same = same && fire == (reference.fired[static_cast<size_t>(b)] != 0);
    if (!fire) continue;
    ndv::StatusOr<ndv::StatsCatalog> fresh = ndv::InternalError("unset");
    {
      trace::Span span("ingest.reanalyze", root.id());
      fresh = Reanalyze(data, (b + 1) * kBatchRows,
                        FireSeed(options.seed, fires++));
    }
    if (!fresh.ok()) Die("traced re-ANALYZE failed");
    {
      trace::Span span("catalog.publish", root.id());
      shadow.Publish(*std::move(fresh));
    }
    const auto published = shadow.Find(kColumn);
    tolerance = published->upper - published->lower;
    tracker.MarkFresh();
  }
  result.Check(same, "traced decomposition reproduces every published batch");
  const std::vector<trace::SpanRecord> spans = trace::Collect();
  const auto median = [&](const char* name) {
    return Median(trace::Durations(spans, name));
  };
  result.Metric("table.hash_slice_us", median("table.hash_slice") / 1e3, "us");
  result.Metric("ingest.add_hashes_us", median("ingest.add_hashes") / 1e3,
                "us");
  result.Metric("ingest.snapshot_us", median("ingest.snapshot") / 1e3, "us");
  result.Metric("ingest.drift_ns", median("ingest.drift"), "ns");
  result.Metric("catalog.put_us", median("catalog.put") / 1e3, "us");
  result.Metric("catalog.publish_us", median("catalog.publish") / 1e3, "us");
  result.Metric("catalog.analyze_table_ms",
                median("catalog.analyze_table") / 1e6, "ms");
  result.Metric("ingest.tracker_warm_ms", median("ingest.tracker_warm") / 1e6,
                "ms");
  trace::CheckUnaccounted(result, spans, "ingest.append");
  result.Metric("trace.overhead_frac",
                median("ingest.append") / Median(append_p50) - 1.0,
                "share");
  trace::Report(spans, options.trace_file);
}

}  // namespace e2e
