// Shared pieces of the end-to-end benchmark program: command-line options,
// timing, quantiles, accuracy scoring, the environment stamp and the
// result line every workload prints.
#ifndef NDV_E2EBENCH_COMMON_H_
#define NDV_E2EBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "catalog/stats_catalog.h"

namespace e2e {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir;     // scratch files of this run
  std::string trace_file;  // where the traced run writes its spans
};

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double NsToUs(int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

// Scores published statistics against the exact distinct count, the way
// Deolalikar & Laffitte score estimators: whether the truth lies inside
// [lower, upper], and the q-error max(est/true, true/est) of Li et al.
// Every scored entry is also checked for a well-formed bracket
// (lower <= upper, estimate >= lower); a malformed one is a failure.
class Accuracy {
 public:
  void Score(const ndv::ColumnStats& stats, int64_t true_distinct);

  int64_t pairs() const { return static_cast<int64_t>(qerrors_.size()); }
  int64_t malformed() const { return malformed_; }
  double TruthInBracket() const;
  double QErrorP50() const { return Quantile(qerrors_, 0.5); }
  double QErrorMax() const;

 private:
  std::vector<double> qerrors_;
  int64_t in_bracket_ = 0;
  int64_t malformed_ = 0;
};

// True when every field of the two entries is identical, doubles compared
// bit for bit.
bool SameStats(const ndv::ColumnStats& a, const ndv::ColumnStats& b);
bool SameCatalog(const ndv::StatsCatalog& a, const ndv::StatsCatalog& b);

// One workload's outcome: metrics in insertion order, operation counts and
// the environment stamp.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  // Counts one attempted operation, failed when `ok` is false.
  void Op(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }
  // A correctness check: counts as an operation; prints the reason when
  // it fails.
  void Check(bool ok, const std::string& what);
  void AddOps(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  // Environment and configuration, printed once as a JSON "stamp" line.
  void Stamp(const std::string& key, const std::string& value);
  void Stamp(const std::string& key, double value);

  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }

  // Prints the stamp, every metric with its unit, then one JSON result
  // line holding all of them.
  void Print(const Options& options) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>>
      metrics_;
  std::vector<std::pair<std::string, std::string>> stamp_;  // JSON values
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

// Build, machine and SIMD facts shared by every workload.
void StampEnvironment(Result& result);

// Records the pack's block size and each column's codec mix, read back
// from the file with InspectPackV2. Returns one dominant codec name per
// column ("delta", "dict" or "raw").
std::vector<std::string> StampPack(Result& result, const std::string& path);

// Pins the calling thread to one CPU, so thread placement is the same in
// every run instead of left to the scheduler. Threads it starts later
// inherit the mask. Ignored for cpu < 0 or a CPU the machine lacks.
void PinToCpu(int cpu);

// Directory helpers for the run's scratch area.
void RemoveTree(const std::string& path);
void MakeDirs(const std::string& path);
int64_t FileBytes(const std::string& path);

// Aborts the run with a message; for set-up failures that leave nothing
// to measure.
[[noreturn]] void Die(const std::string& message);

}  // namespace e2e

#endif  // NDV_E2EBENCH_COMMON_H_
