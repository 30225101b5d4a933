#ifndef NDV_INGEST_MAINTENANCE_H_
#define NDV_INGEST_MAINTENANCE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <variant>

#include "catalog/concurrent_catalog.h"
#include "catalog/durable_catalog.h"
#include "common/mutex.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "estimators/estimator.h"
#include "ingest/incremental_stats.h"

namespace ndv {

// The one drift-and-publish loop (DESIGN.md §17), shared by `ndv_cli
// ingest` and the stats service. StatsMaintainer owns one IncrementalStats
// per tracked column, each column's drift baseline, re-ANALYZE adoption,
// and every write to a ConcurrentStatsCatalog:
//
//   * Append updates the column's tracker in O(batch) and publishes a
//     refreshed ColumnStats — estimate plus GEE [LOWER, UPPER] — as a new
//     epoch, so readers always see statistics covering the appended rows.
//     Observe only feeds the tracker.
//   * Drift trigger: the tracker's O(1) sketch drift since the last full
//     re-ANALYZE is compared against the width of the interval that
//     re-ANALYZE published. Only drift EXCEEDING the width — proof the
//     running estimate escaped the published bracket — fires a full
//     re-ANALYZE. A wide (low-information, e.g. degraded) interval
//     tolerates more drift than a tight one; a zero-width (exact) interval
//     fires on any drift. ColumnIsStale applies the same rule after the
//     volume rule.
//   * A re-ANALYZE (drift-fired in the background or inline, or
//     synchronous through Reanalyze) is published wholesale and becomes
//     every tracked column's new drift baseline.
//   * With a DurableCatalog journal attached, every publication is
//     journaled first and then published at the journal's epoch, so every
//     reader-visible epoch is recoverable; a refused journal append
//     publishes nothing.
//
// Thread-safety: all public methods are thread-safe. Publications are
// serialized, and the lock ColumnIsStale takes is never held across a
// journal append. The re-ANALYZE callback runs outside the maintainer's
// locks and may run concurrently with appends; it must tolerate that (or
// use background=false, where a drift-fired one runs inline in Append).

// The drift-trigger predicate, exported so its boundary semantics are
// testable in isolation: fire iff drift strictly exceeds the tolerance
// (the published interval's width). drift == width does not fire — the
// running estimate may still sit on the bracket's edge; any positive
// drift against a zero-width (exact-mode) interval does.
inline bool DriftTriggerFires(double drift, double tolerance) {
  return drift > tolerance;
}

struct StatsMaintainerOptions {
  IncrementalStatsOptions tracker;
  // Estimator for incremental publications. GEE by default: its point
  // estimate is always inside the [LOWER, UPPER] bracket it publishes.
  std::string estimator = "GEE";
  // false runs a fired re-ANALYZE inline in Append (deterministic
  // single-thread mode for CLIs and tests); true schedules it on the
  // shared pool.
  bool background = true;
};

struct MaintainerCounters {
  int64_t appends = 0;        // append batches observed
  int64_t rows_appended = 0;  // rows across those batches
  int64_t publications = 0;   // incremental epochs published
  int64_t drift_fires = 0;    // drift trigger activations
  int64_t reanalyzes = 0;     // full re-ANALYZEs published
  int64_t reanalyze_failures = 0;
  int64_t publish_failures = 0;  // journal appends refused
};

class StatsMaintainer {
 public:
  // Produces a full re-ANALYZE of the backing table (including appended
  // rows). Runs outside the maintainer's locks; see the thread-safety note
  // above.
  using ReanalyzeFn = std::function<StatusOr<StatsCatalog>()>;

  // `catalog` and the optional `journal` are not owned and must outlive
  // the maintainer. A journal must start at the catalog's epoch: a fresh
  // journal under an empty catalog, or a catalog built from the journal's
  // recovered state.
  StatsMaintainer(ConcurrentStatsCatalog* catalog, ReanalyzeFn reanalyze,
                  StatsMaintainerOptions options,
                  DurableCatalog* journal = nullptr);
  // Waits for any in-flight background re-ANALYZE.
  ~StatsMaintainer();

  StatsMaintainer(const StatsMaintainer&) = delete;
  StatsMaintainer& operator=(const StatsMaintainer&) = delete;

  // Registers `column` and warms its tracker with the rows of `existing`
  // (the column's current contents; pass a zero-row slice for a column
  // born empty). The drift baseline comes from the catalog's published
  // entry when present; otherwise the first publication establishes it.
  void Track(const std::string& column, const ColumnSlice& existing)
      NDV_EXCLUDES(mutex_);

  // Observes one append batch, publishes refreshed statistics, and fires
  // the drift trigger when warranted. Returns the published epoch (the
  // unchanged current one when the journal refused it). The column must
  // be tracked.
  uint64_t Append(const std::string& column, const ColumnSlice& batch)
      NDV_EXCLUDES(publish_mutex_, mutex_);
  uint64_t AppendHashes(const std::string& column,
                        std::span<const uint64_t> hashes)
      NDV_EXCLUDES(publish_mutex_, mutex_);

  // Feeds a tracked column's tracker without publishing; untracked
  // columns are ignored.
  void Observe(const std::string& column, std::span<const uint64_t> hashes)
      NDV_EXCLUDES(mutex_);

  // Staleness of `column`'s last re-ANALYZE: false with nothing appended
  // since, else the volume rule IsStaleOrStatus(changed_fraction) (its
  // InvalidArgument included), else the drift trigger. Untracked columns
  // are never stale.
  StatusOr<bool> ColumnIsStale(const std::string& column,
                               double changed_fraction) const
      NDV_EXCLUDES(mutex_);

  // Runs the re-ANALYZE callback in the calling thread and adopts its
  // result as a drift-fired one is adopted. Returns the published epoch,
  // or the callback's or journal's error with nothing published.
  StatusOr<uint64_t> Reanalyze() NDV_EXCLUDES(publish_mutex_, mutex_);

  // Current sketch drift of `column` since its last full re-ANALYZE, and
  // the tolerance (baseline interval width) that drift is judged against
  // (+infinity while no baseline exists).
  double Drift(const std::string& column) const NDV_EXCLUDES(mutex_);
  double Tolerance(const std::string& column) const NDV_EXCLUDES(mutex_);

  MaintainerCounters counters() const NDV_EXCLUDES(mutex_);
  // Status of the most recent re-ANALYZE (OK when none has run yet).
  Status last_reanalyze_status() const NDV_EXCLUDES(mutex_);
  // Status of the most recent journal append (OK when none has run yet).
  Status last_publish_status() const NDV_EXCLUDES(mutex_);

  // Blocks until no background re-ANALYZE is in flight.
  void WaitForReanalyze() NDV_EXCLUDES(mutex_);

 private:
  struct ColumnState {
    // Fresh (IncrementalStats::fresh) once a drift baseline exists.
    std::unique_ptr<IncrementalStats> stats;
    // Width of the interval published with the baseline: the tolerance.
    double tolerance = 0.0;

    void Rebase(const ColumnStats& published) {
      tolerance = published.upper - published.lower;
      stats->MarkFresh();
    }
  };

  // The one publication path: journals `next` (a column upsert or a whole
  // catalog) when a journal is attached, then publishes it. Returns the
  // published epoch, or the journal's error with nothing published.
  StatusOr<uint64_t> Publish(std::variant<ColumnStats, StatsCatalog> next)
      NDV_REQUIRES(publish_mutex_) NDV_EXCLUDES(mutex_);
  // The drift-fired re-ANALYZE: Reanalyze, then clears the in-flight flag.
  void RunReanalyze() NDV_EXCLUDES(publish_mutex_, mutex_);

  ConcurrentStatsCatalog* const catalog_;  // not owned
  const ReanalyzeFn reanalyze_;
  const StatsMaintainerOptions options_;
  DurableCatalog* const journal_;  // not owned; nullptr = unjournaled
  const std::unique_ptr<const Estimator> estimator_;

  // Serializes publications, so with a journal the reader-visible epoch
  // equals the journal's after each one. Held across journal appends.
  Mutex publish_mutex_ NDV_ACQUIRED_BEFORE(mutex_);
  mutable Mutex mutex_;
  CondVar reanalyze_done_;
  std::map<std::string, ColumnState> columns_ NDV_GUARDED_BY(mutex_);
  MaintainerCounters counters_ NDV_GUARDED_BY(mutex_);
  bool reanalyze_inflight_ NDV_GUARDED_BY(mutex_) = false;
  Status last_reanalyze_status_ NDV_GUARDED_BY(mutex_);
  Status last_publish_status_ NDV_GUARDED_BY(mutex_);
};

}  // namespace ndv

#endif  // NDV_INGEST_MAINTENANCE_H_
