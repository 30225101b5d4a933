#include "common.h"

#include <sched.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <thread>

#include "common/simd_hash.h"
#include "common/thread_pool.h"
#include "storage/pack_reader.h"

namespace e2e {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : std::min(rank, values.size()) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

void Accuracy::Score(const ndv::ColumnStats& stats, int64_t true_distinct) {
  if (!(stats.lower <= stats.upper) || !(stats.estimate >= stats.lower)) {
    ++malformed_;
    std::fprintf(stderr,
                 "malformed bracket for %s: lower %.17g upper %.17g "
                 "estimate %.17g\n",
                 stats.column_name.c_str(), stats.lower, stats.upper,
                 stats.estimate);
  }
  const auto truth = static_cast<double>(true_distinct);
  if (stats.lower <= truth && truth <= stats.upper) ++in_bracket_;
  const double estimate = std::max(stats.estimate, 1.0);
  qerrors_.push_back(std::max(estimate / truth, truth / estimate));
}

double Accuracy::TruthInBracket() const {
  return qerrors_.empty() ? 0.0
                          : static_cast<double>(in_bracket_) /
                                static_cast<double>(qerrors_.size());
}

double Accuracy::QErrorMax() const {
  return qerrors_.empty() ? 0.0
                          : *std::max_element(qerrors_.begin(),
                                              qerrors_.end());
}

bool SameStats(const ndv::ColumnStats& a, const ndv::ColumnStats& b) {
  const auto bits = [](double x) { return std::bit_cast<uint64_t>(x); };
  return a.column_name == b.column_name && a.table_rows == b.table_rows &&
         a.sample_rows == b.sample_rows &&
         a.sample_distinct == b.sample_distinct &&
         bits(a.estimate) == bits(b.estimate) &&
         bits(a.lower) == bits(b.lower) && bits(a.upper) == bits(b.upper) &&
         a.method == b.method && bits(a.coverage) == bits(b.coverage) &&
         a.degraded == b.degraded;
}

bool SameCatalog(const ndv::StatsCatalog& a, const ndv::StatsCatalog& b) {
  return std::equal(a.entries().begin(), a.entries().end(),
                    b.entries().begin(), b.entries().end(), SameStats);
}

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  for (auto& [existing, entry] : metrics_) {
    if (existing == name) {
      entry = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Result::Check(bool ok, const std::string& what) {
  Op(ok);
  if (!ok) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
}

namespace {

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[40];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

}  // namespace

void Result::Stamp(const std::string& key, const std::string& value) {
  stamp_.push_back({key, JsonString(value)});
}

void Result::Stamp(const std::string& key, double value) {
  stamp_.push_back({key, JsonNumber(value)});
}

void Result::Print(const Options& options) const {
  std::string stamp = "{\"workload\": " + JsonString(options.workload) +
                      ", \"seed\": " + std::to_string(options.seed) +
                      ", \"trace\": " + (options.trace ? "1" : "0");
  for (const auto& [key, value] : stamp_) {
    stamp += ", " + JsonString(key) + ": " + value;
  }
  std::printf("stamp %s}\n", stamp.c_str());
  for (const auto& [name, entry] : metrics_) {
    std::printf("metric %-28s %18.6f %s\n", name.c_str(), entry.first,
                entry.second.c_str());
  }
  std::printf("ops %lld ops_failed %lld\n",
              static_cast<long long>(attempted_),
              static_cast<long long>(failed_));

  std::string line = "{\"correct\": ";
  line += failed_ == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_) +
          ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, entry] : metrics_) {
    if (!first) line += ", ";
    first = false;
    line += JsonString(name) + ": {\"value\": " + JsonNumber(entry.first) +
            ", \"unit\": " + JsonString(entry.second) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

void StampEnvironment(Result& result) {
  result.Stamp("build_type", NDV_BENCH_BUILD_TYPE);
  result.Stamp("compiler", NDV_BENCH_COMPILER);
  result.Stamp("nproc",
               static_cast<double>(std::thread::hardware_concurrency()));
  result.Stamp("simd", ndv::SimdLevelName(ndv::ActiveSimdLevel()));
  result.Stamp("pool_threads",
               static_cast<double>(ndv::DefaultThreadCount()));
}

std::vector<std::string> StampPack(Result& result, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  const auto info = ndv::InspectPackV2(
      {reinterpret_cast<const uint8_t*>(bytes.data()), bytes.size()});
  if (!info.ok()) {
    Die("cannot inspect " + path + ": " + info.status().ToString());
  }
  result.Stamp("pack_block_rows", static_cast<double>(info->block_rows));
  result.Stamp("pack_bytes", static_cast<double>(info->file_bytes));
  std::vector<std::string> dominant;
  std::string codecs;
  for (const ndv::PackV2ColumnInfo& column : info->columns) {
    int64_t count[3] = {0, 0, 0};
    for (const ndv::PackV2BlockInfo& block : column.blocks) {
      ++count[std::min<int>(static_cast<int>(block.codec), 2)];
    }
    static const char* const kNames[3] = {"raw", "delta", "dict"};
    const auto top = std::max_element(count, count + 3) - count;
    dominant.push_back(kNames[top]);
    if (!codecs.empty()) codecs += ' ';
    codecs += std::string(column.name) + '=';
    bool first = true;
    for (int k = 0; k < 3; ++k) {
      if (count[k] == 0) continue;
      if (!first) codecs += '+';
      first = false;
      codecs += kNames[k] + std::string(":") + std::to_string(count[k]);
    }
  }
  result.Stamp("pack_codecs", codecs);
  return dominant;
}

void PinToCpu(int cpu) {
  if (cpu < 0 || cpu >= CPU_SETSIZE) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  (void)::sched_setaffinity(0, sizeof(set), &set);
}

void RemoveTree(const std::string& path) {
  std::error_code ignored;
  std::filesystem::remove_all(path, ignored);
}

void MakeDirs(const std::string& path) {
  std::error_code error;
  std::filesystem::create_directories(path, error);
  if (error) Die("cannot create " + path + ": " + error.message());
}

int64_t FileBytes(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 ? static_cast<int64_t>(st.st_size)
                                        : 0;
}

void Die(const std::string& message) {
  std::fprintf(stderr, "e2ebench: %s\n", message.c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

}  // namespace e2e
