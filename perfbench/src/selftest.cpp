// Self-tests of the benchmark's own rules: the percentile rule, self time,
// and that a corrupted dataset file shows up as failed reads. Run through
// `python3 perfbench/run.py --selftest`; exits 0 when every check holds.
#include <signal.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

int g_failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void PercentileRule() {
  using perfbench::HighestSupportedPercentile;
  Expect(HighestSupportedPercentile(19) == 0.0, "19 samples support no percentile");
  Expect(HighestSupportedPercentile(20) == 50.0, "20 samples support p50");
  Expect(HighestSupportedPercentile(99) == 50.0, "99 samples support p50, not p90");
  Expect(HighestSupportedPercentile(100) == 90.0, "100 samples support p90");
  Expect(HighestSupportedPercentile(999) == 90.0, "999 samples support p90, not p99");
  Expect(HighestSupportedPercentile(1000) == 99.0, "1000 samples support p99");
  Expect(HighestSupportedPercentile(10000) == 99.9, "10000 samples support p99.9");

  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Expect(perfbench::Percentile(v, 99) == 990.0, "p99 of 1..1000 leaves 10 above it");
  Expect(perfbench::Percentile(v, 50) == 500.0, "p50 of 1..1000 is 500");
  Expect(perfbench::Median({3.0, 1.0, 2.0}) == 2.0, "median of three");
}

void SelfTime() {
  using perfbench::SelfTimeNs;
  Expect(SelfTimeNs(0, 100, {}) == 100, "no children: all self time");
  Expect(SelfTimeNs(0, 100, {{10, 30}, {20, 40}}) == 70,
         "overlapping children count once");
  Expect(SelfTimeNs(0, 100, {{-5, 5}, {90, 120}}) == 85,
         "children clipped to the span");
  Expect(SelfTimeNs(0, 100, {{10, 30}, {20, 40}, {-5, 5}, {90, 120}}) == 55,
         "mixed overlap and clipping");
  Expect(SelfTimeNs(0, 100, {{200, 300}}) == 100, "a child outside covers nothing");
  Expect(SelfTimeNs(0, 100, {{0, 100}, {50, 60}}) == 0, "fully covered span");
}

void ContentCheck() {
  using perfbench::CheckMode;
  std::vector<std::byte> scratch;
  for (const std::uint64_t size : {1ull, 7ull, 8ull, 4096ull, 115713ull}) {
    const std::string name = "train/00000042.jpg";
    auto bytes = prisma::storage::SyntheticContent::Generate(name, size);
    const std::string n = " (" + std::to_string(size) + " bytes)";
    Expect(perfbench::CheckSample(name, size, bytes, CheckMode::kFull, 1, scratch),
           "full check passes intact content" + n);
    Expect(perfbench::CheckSample(name, size, bytes, CheckMode::kProbe, 1, scratch),
           "probe check passes intact content" + n);
    bytes[size - 1] ^= std::byte{0x20};
    Expect(!perfbench::CheckSample(name, size, bytes, CheckMode::kFull, 1, scratch),
           "full check catches the last byte flipped" + n);
    Expect(!perfbench::CheckSample(name, size + 1, bytes, CheckMode::kProbe, 1,
                                   scratch),
           "probe check catches a short read" + n);
  }
}

/// A dataset file with a flipped byte and one cut short must be reported
/// as failed reads, never as a pass.
void CorruptedDataset(const std::string& root) {
  perfbench::Options o;
  o.workload = "torch_uds";
  o.seed = 5;
  o.seconds = 0.2;
  o.num_train = 64;
  o.num_validation = 8;
  o.data_root = root + "/data";
  o.run_dir = root + "/run";
  const auto dir = perfbench::EnsureDataset(o);
  Expect(dir.ok(), "materialize a small dataset");
  if (!dir.ok()) return;

  const perfbench::Report clean = perfbench::RunWorkload(o);
  Expect(clean.correct && clean.failed == 0 && clean.attempted > 0,
         "the intact dataset passes");

  const auto ds = perfbench::MakeDataset(o.num_train, o.num_validation, o.seed);
  const std::string flipped = *dir + "/" + ds.train.At(3).name;
  {
    std::fstream f(flipped, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(ds.train.At(3).size / 2));
    char c = 0;
    f.get(c);
    f.seekp(static_cast<std::streamoff>(ds.train.At(3).size / 2));
    f.put(static_cast<char>(c ^ 0x5a));
  }
  const std::string cut = *dir + "/" + ds.train.At(7).name;
  std::filesystem::resize_file(cut, ds.train.At(7).size - 100);

  const perfbench::Report bad = perfbench::RunWorkload(o);
  Expect(!bad.correct, "a corrupted dataset is not reported correct");
  Expect(bad.failed >= 2, "flipped byte and short file both count as failed (" +
                              std::to_string(bad.failed) + " failed)");
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  const std::string root = argc > 1 ? argv[1] : ".bench_run/selftest";
  std::filesystem::remove_all(root);
  PercentileRule();
  SelfTime();
  ContentCheck();
  CorruptedDataset(root);
  std::filesystem::remove_all(root);
  std::printf("%s: %d failure(s)\n", g_failures == 0 ? "PASS" : "FAIL", g_failures);
  return g_failures == 0 ? 0 : 1;
}
