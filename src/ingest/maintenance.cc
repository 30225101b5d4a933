#include "ingest/maintenance.h"

#include <limits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/thread_pool.h"
#include "core/all_estimators.h"

namespace ndv {

StatsMaintainer::StatsMaintainer(ConcurrentStatsCatalog* catalog,
                                 ReanalyzeFn reanalyze,
                                 StatsMaintainerOptions options,
                                 DurableCatalog* journal)
    : catalog_(catalog),
      reanalyze_(std::move(reanalyze)),
      options_(std::move(options)),
      journal_(journal),
      estimator_(MakeEstimatorByName(options_.estimator)) {
  NDV_CHECK_MSG(catalog_ != nullptr, "StatsMaintainer requires a catalog");
  NDV_CHECK_MSG(journal_ == nullptr || journal_->epoch() == catalog_->epoch(),
                "the journal must start at the catalog's epoch");
  NDV_CHECK_MSG(reanalyze_ != nullptr,
                "StatsMaintainer requires a re-ANALYZE callback");
  NDV_CHECK_MSG(estimator_ != nullptr, "unknown estimator '%s'",
                options_.estimator.c_str());
}

StatsMaintainer::~StatsMaintainer() { WaitForReanalyze(); }

void StatsMaintainer::Track(const std::string& column,
                            const ColumnSlice& existing) {
  auto stats = std::make_unique<IncrementalStats>(options_.tracker);
  if (existing.rows() > 0) stats->AppendBatch(existing);

  MutexLock lock(mutex_);
  ColumnState& state = columns_[column];
  NDV_CHECK_MSG(state.stats == nullptr, "column '%s' is already tracked",
                column.c_str());
  state.stats = std::move(stats);
  // A published entry (from the initial ANALYZE or a recovered catalog) is
  // the drift baseline; without one, the first publication establishes it.
  const auto published = catalog_->Find(column);
  if (published.has_value()) state.Rebase(*published);
}

uint64_t StatsMaintainer::Append(const std::string& column,
                                 const ColumnSlice& batch) {
  NDV_CHECK_MSG(batch.column != nullptr, "ColumnSlice has no column");
  NDV_CHECK_MSG(
      0 <= batch.begin && batch.begin <= batch.end &&
          batch.end <= batch.column->size(),
      "ColumnSlice [%lld, %lld) out of bounds for a %lld-row column",
      static_cast<long long>(batch.begin),
      static_cast<long long>(batch.end),
      static_cast<long long>(batch.column->size()));
  std::vector<uint64_t> hashes(static_cast<size_t>(batch.rows()));
  if (!hashes.empty()) {
    batch.column->HashSlice(batch.begin, batch.end, hashes.data());
  }
  return AppendHashes(column, hashes);
}

uint64_t StatsMaintainer::AppendHashes(const std::string& column,
                                       std::span<const uint64_t> hashes) {
  uint64_t epoch = 0;
  bool fire_inline = false;
  {
    MutexLock publish_lock(publish_mutex_);
    ColumnState* state = nullptr;
    ColumnStats snapshot;
    {
      MutexLock lock(mutex_);
      const auto it = columns_.find(column);
      NDV_CHECK_MSG(it != columns_.end(), "column '%s' is not tracked",
                    column.c_str());
      state = &it->second;
      state->stats->AddHashes(hashes);
      ++counters_.appends;
      counters_.rows_appended += static_cast<int64_t>(hashes.size());
      // GEE bounds are recomputed over the live reservoir, so the
      // published bracket covers the appended rows.
      snapshot = state->stats->Snapshot(column, *estimator_);
    }
    const StatusOr<uint64_t> published = Publish(snapshot);
    if (!published.ok()) return catalog_->epoch();
    epoch = *published;

    MutexLock lock(mutex_);
    ++counters_.publications;
    if (!state->stats->fresh()) {
      // First publication of a column no ANALYZE covered: it becomes the
      // drift baseline.
      state->Rebase(snapshot);
    } else if (DriftTriggerFires(state->stats->DriftSinceFresh(),
                                 state->tolerance) &&
               !reanalyze_inflight_) {
      ++counters_.drift_fires;
      reanalyze_inflight_ = true;
      if (options_.background) {
        SharedThreadPool().Submit([this] { RunReanalyze(); });
      } else {
        fire_inline = true;
      }
    }
  }
  if (fire_inline) RunReanalyze();
  return epoch;
}

void StatsMaintainer::Observe(const std::string& column,
                              std::span<const uint64_t> hashes) {
  MutexLock lock(mutex_);
  const auto it = columns_.find(column);
  if (it != columns_.end()) it->second.stats->AddHashes(hashes);
}

StatusOr<bool> StatsMaintainer::ColumnIsStale(const std::string& column,
                                              double changed_fraction) const {
  MutexLock lock(mutex_);
  const auto it = columns_.find(column);
  if (it == columns_.end()) return false;  // No insert feed: trust cache.
  const IncrementalStats& tracker = *it->second.stats;
  if (tracker.rows() == tracker.rows_at_fresh()) return false;
  // Rule 1, the volume rule, then Rule 2, the drift trigger: O(1) in the
  // sketch registers, no estimator re-evaluation over the reservoir.
  auto volume = tracker.IsStaleOrStatus(changed_fraction);
  if (!volume.ok() || *volume) return volume;
  return DriftTriggerFires(tracker.DriftSinceFresh(), it->second.tolerance);
}

StatusOr<uint64_t> StatsMaintainer::Reanalyze() {
  StatusOr<StatsCatalog> fresh = [&]() -> StatusOr<StatsCatalog> {
    try {
      return reanalyze_();
    } catch (const std::exception& e) {
      return InternalError("re-ANALYZE callback threw: %s", e.what());
    } catch (...) {
      return InternalError("re-ANALYZE callback threw a non-exception");
    }
  }();

  MutexLock publish_lock(publish_mutex_);
  const StatusOr<uint64_t> epoch =
      fresh.ok() ? Publish(*std::move(fresh)) : fresh.status();
  MutexLock lock(mutex_);
  last_reanalyze_status_ = epoch.status();
  if (!epoch.ok()) {
    ++counters_.reanalyze_failures;
    return epoch;
  }
  ++counters_.reanalyzes;
  // The fresh publication is the new drift baseline for every tracked
  // column it covers. Appends that raced the re-ANALYZE are already in the
  // trackers, so MarkFresh measures future drift from the tracker's state
  // now — the conservative reading (drift restarts at zero).
  const auto snapshot = catalog_->Snapshot();
  for (auto& [name, state] : columns_) {
    const auto published = snapshot->catalog.Find(name);
    if (published.has_value()) state.Rebase(*published);
  }
  return epoch;
}

void StatsMaintainer::RunReanalyze() {
  (void)Reanalyze();
  MutexLock lock(mutex_);
  reanalyze_inflight_ = false;
  reanalyze_done_.NotifyAll();
}

StatusOr<uint64_t> StatsMaintainer::Publish(
    std::variant<ColumnStats, StatsCatalog> next) {
  ColumnStats* const put = std::get_if<ColumnStats>(&next);
  if (journal_ == nullptr) {
    return put != nullptr
               ? catalog_->Put(std::move(*put))
               : catalog_->Publish(std::get<StatsCatalog>(std::move(next)));
  }
  // Write-ahead: journal first, publish second. A crash between the two
  // replays the record at the next boot; the reverse order could show
  // readers an epoch that recovery cannot reproduce.
  const Status journaled =
      put != nullptr ? journal_->AppendPut(*put)
                     : journal_->AppendPublish(std::get<StatsCatalog>(next));
  {
    MutexLock lock(mutex_);
    last_publish_status_ = journaled;
    if (!journaled.ok()) {
      ++counters_.publish_failures;
      return journaled;
    }
  }
  return catalog_->PublishAt(journal_->state(), journal_->epoch());
}

double StatsMaintainer::Drift(const std::string& column) const {
  MutexLock lock(mutex_);
  const auto it = columns_.find(column);
  NDV_CHECK_MSG(it != columns_.end(), "column '%s' is not tracked",
                column.c_str());
  return it->second.stats->DriftSinceFresh();
}

double StatsMaintainer::Tolerance(const std::string& column) const {
  MutexLock lock(mutex_);
  const auto it = columns_.find(column);
  NDV_CHECK_MSG(it != columns_.end(), "column '%s' is not tracked",
                column.c_str());
  return it->second.stats->fresh() ? it->second.tolerance
                                   : std::numeric_limits<double>::infinity();
}

MaintainerCounters StatsMaintainer::counters() const {
  MutexLock lock(mutex_);
  return counters_;
}

Status StatsMaintainer::last_reanalyze_status() const {
  MutexLock lock(mutex_);
  return last_reanalyze_status_;
}

Status StatsMaintainer::last_publish_status() const {
  MutexLock lock(mutex_);
  return last_publish_status_;
}

void StatsMaintainer::WaitForReanalyze() {
  MutexLock lock(mutex_);
  while (reanalyze_inflight_) reanalyze_done_.Wait(mutex_);
}

}  // namespace ndv
