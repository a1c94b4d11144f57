// The benchmark's workloads. Each runs PRISMA and the framework's own
// direct-read loader on the same storage in one process, closed loop, and
// reports the end-to-end metrics; a traced run adds the per-layer metrics.
// See perfbench/README.md for what each workload is for.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hpp"

namespace perfbench {

struct Options {
  std::string workload;  // tf_nvme | torch_uds | shim_chunked
  std::uint64_t seed = 1;
  double seconds = 10.0;  // length of the measured, interleaved loop
  bool trace = false;
  std::string data_root = ".bench_data";  // materialized datasets, by seed
  std::string run_dir = ".bench_run";     // sockets and span files
  /// Where a traced run writes the spans of its measured epochs (TSV);
  /// empty writes none.
  std::string spans_out;
  /// Dataset sizes; 0 keeps the workload's own (self-tests shrink them).
  std::size_t num_train = 0;
  std::size_t num_validation = 0;
};

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;  // sample reads, warm-up and baselines included
  std::uint64_t failed = 0;     // errored, short or wrong bytes
  std::vector<std::pair<std::string, double>> metrics;
  std::string meta_json;  // one JSON object
  std::string error;      // first failure, for stderr
};

/// Train and validation file counts of `o`'s workload.
std::pair<std::size_t, std::size_t> DatasetSize(const Options& o);

/// Directory of the seed's dataset on disk. Writes it first (through a
/// per-pid temporary directory renamed into place) unless it exists; keeps
/// the two most recently used seeds and removes older ones.
prisma::Result<std::string> EnsureDataset(const Options& o);

Report RunWorkload(const Options& o);

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...},
///  "meta": {...}} on one line.
std::string ToJson(const Report& r);

}  // namespace perfbench
