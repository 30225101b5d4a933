// ndv_e2ebench — end-to-end benchmark of the three user paths of the ndv
// library: ANALYZE from a compressed pack file, the stats service over
// loopback TCP, and incremental statistics over an append stream.
//
//   ndv_e2ebench --workload analyze-pack|serve-mixed|append-stream
//                --seed N --seconds S --trace 0|1 --workdir DIR
//                [--trace-file PATH]   (required with --trace 1)
//
// Prints an environment stamp, every metric with its unit, and as the last
// line one JSON object {"correct", "attempted", "failed", "metrics"}.
// Exits 1 when any operation or correctness check failed, 2 on a set-up
// error. run.py builds this binary and selects the metrics to report.

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

e2e::Options ParseArgs(int argc, char** argv) {
  e2e::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--trace-file") {
      options.trace_file = value;
    } else {
      e2e::Die("unknown flag " + flag);
    }
  }
  if (argc % 2 == 0) e2e::Die("flags come in --name value pairs");
  if (options.workdir.empty()) e2e::Die("--workdir is required");
  if (options.trace && options.trace_file.empty()) {
    e2e::Die("--trace 1 needs --trace-file");
  }
  if (!(options.seconds > 0)) e2e::Die("--seconds must be positive");
  return options;
}

}  // namespace

int main(int argc, char** argv) {
  const e2e::Options options = ParseArgs(argc, argv);
  e2e::RemoveTree(options.workdir);
  e2e::MakeDirs(options.workdir);
  e2e::Result result;
  if (options.workload == "analyze-pack") {
    e2e::RunAnalyzePack(options, result);
  } else if (options.workload == "serve-mixed") {
    e2e::RunServeMixed(options, result);
  } else if (options.workload == "append-stream") {
    e2e::RunAppendStream(options, result);
  } else {
    e2e::Die("unknown workload '" + options.workload + "'");
  }
  e2e::RemoveTree(options.workdir);
  result.Print(options);
  return result.failed() == 0 ? 0 : 1;
}
