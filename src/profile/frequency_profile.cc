#include "profile/frequency_profile.h"

#include <algorithm>

#include "common/check.h"

namespace ndv {

FrequencyProfile FrequencyProfile::FromClassCounts(
    std::span<const int64_t> counts) {
  FrequencyProfile profile;
  for (int64_t c : counts) {
    NDV_CHECK(c >= 0);
    if (c > 0) profile.Add(c);
  }
  return profile;
}

FrequencyProfile FrequencyProfile::FromFrequencyCounts(
    std::span<const int64_t> f_by_freq) {
  FrequencyProfile profile;
  for (size_t i = 0; i < f_by_freq.size(); ++i) {
    NDV_CHECK(f_by_freq[i] >= 0);
    if (f_by_freq[i] > 0) {
      profile.Add(static_cast<int64_t>(i + 1), f_by_freq[i]);
    }
  }
  return profile;
}

// Pinned to a cache line: append snapshots run this loop on every batch,
// and its latency moved with where the linker happened to place it.
[[gnu::aligned(64)]] FrequencyProfile FrequencyProfile::FromValues(
    std::span<const uint64_t> values, int64_t expected_distinct) {
  // Unreserved by default: the distinct count is typically far below
  // values.size(), and growing from small keeps the table cache-resident
  // (reserving for every value would zero and probe a mostly-empty table).
  // Callers that know better pass expected_distinct.
  FlatHashCounter counts(expected_distinct);
  for (uint64_t v : values) counts.Add(v);
  FrequencyProfile profile = FromHashCounter(counts);
  // Mass conservation: every input value lands in exactly one class, so
  // sum_i i*f(i) must equal the number of values hashed in.
  NDV_DCHECK_EQ(profile.TotalCount(), static_cast<int64_t>(values.size()));
  return profile;
}

FrequencyProfile FrequencyProfile::FromHashCounter(
    const FlatHashCounter& counts) {
  FrequencyProfile profile;
  counts.ForEach(
      [&profile](uint64_t /*key*/, int64_t count) { profile.Add(count); });
  return profile;
}

void FrequencyProfile::Add(int64_t freq, int64_t delta) {
  NDV_CHECK(freq >= 1);
  if (delta == 0) return;
  if (freq > MaxFrequency()) {
    f_.resize(static_cast<size_t>(freq), 0);
  }
  int64_t& slot = f_[static_cast<size_t>(freq - 1)];
  NDV_CHECK_MSG(slot + delta >= 0, "f(%lld) would become negative",
                static_cast<long long>(freq));
  slot += delta;
  distinct_ += delta;
  total_ += freq * delta;
  // Trim trailing zeros so MaxFrequency stays tight.
  while (!f_.empty() && f_.back() == 0) f_.pop_back();
  NDV_DCHECK_GE(distinct_, 0);
  NDV_DCHECK_GE(total_, distinct_);
}

void FrequencyProfile::Merge(const FrequencyProfile& other) {
  for (int64_t i = 1; i <= other.MaxFrequency(); ++i) {
    if (other.f(i) > 0) Add(i, other.f(i));
  }
}

FrequencyProfile FrequencyProfile::Truncated(int64_t cutoff,
                                             int64_t* removed) const {
  NDV_CHECK(cutoff >= 0);
  FrequencyProfile result;
  int64_t dropped = 0;
  for (int64_t i = 1; i <= MaxFrequency(); ++i) {
    if (f(i) == 0) continue;
    if (i <= cutoff) {
      result.Add(i, f(i));
    } else {
      dropped += f(i);
    }
  }
  if (removed != nullptr) *removed = dropped;
  return result;
}

int64_t FrequencyProfile::PairCount() const {
  int64_t pairs = 0;
  for (int64_t i = 2; i <= MaxFrequency(); ++i) {
    pairs += i * (i - 1) * f(i);
  }
  return pairs;
}

void FrequencyProfile::Validate() const {
  int64_t distinct = 0;
  int64_t total = 0;
  for (size_t i = 0; i < f_.size(); ++i) {
    NDV_CHECK(f_[i] >= 0);
    distinct += f_[i];
    total += static_cast<int64_t>(i + 1) * f_[i];
  }
  NDV_CHECK(distinct == distinct_);
  NDV_CHECK(total == total_);
  NDV_CHECK(f_.empty() || f_.back() > 0);
}

std::string FrequencyProfile::ToString() const {
  std::string out = "{";
  bool first = true;
  for (int64_t i = 1; i <= MaxFrequency(); ++i) {
    if (f(i) == 0) continue;
    if (!first) out += ", ";
    first = false;
    out += std::to_string(i) + ":" + std::to_string(f(i));
  }
  out += "}";
  return out;
}

void SampleSummary::Validate() const {
  NDV_CHECK(table_rows >= 0);
  NDV_CHECK(sample_rows >= 0);
  NDV_CHECK(sample_rows <= table_rows);
  NDV_CHECK(freq.TotalCount() == sample_rows);
  freq.Validate();
}

SampleSummary MakeSummary(int64_t table_rows,
                          std::span<const int64_t> f_by_freq) {
  SampleSummary summary;
  summary.table_rows = table_rows;
  summary.freq = FrequencyProfile::FromFrequencyCounts(f_by_freq);
  summary.sample_rows = summary.freq.TotalCount();
  summary.Validate();
  return summary;
}

}  // namespace ndv
