// One workload run in a fresh process (peak RSS is a lifetime peak):
//
//   perfbench_workload --workload <tf_nvme|torch_uds|shim_chunked>
//       --seed <n> --seconds <s> --trace <0|1>
//       [--data-root <dir>] [--run-dir <dir>] [--spans-out <file.tsv>]
//   perfbench_workload --materialize --workload <w> --seed <n> [--data-root <dir>]
//
// Prints the report as one JSON line (workloads.hpp: ToJson). perfbench/run.py
// drives it; see perfbench/README.md.
#include <signal.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.hpp"

int main(int argc, char** argv) {
  // A reader child that dies must surface as a failed epoch, not kill us
  // through a write to its pipe.
  ::signal(SIGPIPE, SIG_IGN);
  perfbench::Options o;
  bool materialize = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--materialize") {
      materialize = true;
      continue;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "perfbench_workload: %s needs a value\n", key.c_str());
      return 2;
    }
    const char* v = argv[++i];
    if (key == "--workload") o.workload = v;
    else if (key == "--seed") o.seed = std::strtoull(v, nullptr, 10);
    else if (key == "--seconds") o.seconds = std::strtod(v, nullptr);
    else if (key == "--trace") o.trace = std::string(v) == "1";
    else if (key == "--data-root") o.data_root = v;
    else if (key == "--run-dir") o.run_dir = v;
    else if (key == "--spans-out") o.spans_out = v;
    else {
      std::fprintf(stderr, "perfbench_workload: unknown flag %s\n", key.c_str());
      return 2;
    }
  }
  if (o.workload.empty()) {
    std::fprintf(stderr, "perfbench_workload: --workload is required\n");
    return 2;
  }
  if (materialize) {
    const auto dir = perfbench::EnsureDataset(o);
    if (!dir.ok()) {
      std::fprintf(stderr, "perfbench_workload: %s\n",
                   dir.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", dir->c_str());
    return 0;
  }
  const perfbench::Report r = perfbench::RunWorkload(o);
  if (!r.error.empty()) {
    std::fprintf(stderr, "perfbench_workload: %s\n", r.error.c_str());
  }
  std::printf("%s\n", perfbench::ToJson(r).c_str());
  return 0;
}
