// Reader child of the shim_chunked workload. It knows nothing of PRISMA:
// two threads read dataset files with plain open/fstat/read(64 KiB)/close,
// and under LD_PRELOAD=libprisma_shim.so those calls go to the server.
//
// Driven over stdin/stdout, one line per command:
//   epoch <e> <full|probe>  reads the train files in epoch e's order, then
//                           the validation files, and replies
//                           done <samples> <failed> <wall_ns> <cpu_ns>
//                                <copies> <copy_bytes> <n> <latency_ns>...
//   quit                    writes the spans (traced run) and exits.
#include <dlfcn.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "storage/shuffler.hpp"
#include "trace.hpp"

namespace {

using perfbench::NowNs;
using perfbench::SpanKind;
using perfbench::SpanLog;

constexpr std::size_t kChunk = 64 * 1024;
constexpr int kThreads = 2;

/// The shim's consumer-path copy tally, when the shim is preloaded (the
/// reader's own copy of the library code is not exported, so only the
/// shim's can be found).
using CountFn = std::uint64_t (*)();
CountFn ShimCounter(const char* symbol) {
  void* sym = ::dlsym(RTLD_DEFAULT, symbol);
  CountFn fn = nullptr;
  std::memcpy(&fn, &sym, sizeof(fn));
  return fn;
}

struct Worker {
  std::vector<std::byte> buf;
  std::vector<std::byte> scratch;
  std::vector<std::int64_t> lat_ns;
  std::uint64_t failed = 0;
};

/// Times one POSIX call as a shim span.
template <typename Fn>
auto Timed(SpanKind kind, std::uint64_t epoch, std::uint32_t file,
           std::uint64_t offset, Fn&& fn) {
  const std::uint64_t id = SpanLog::Begin(kind, epoch, file, offset, NowNs());
  auto result = fn();
  SpanLog::End(id, NowNs());
  return result;
}

/// Reads one sample; returns the bytes read or -1.
long ReadSample(const std::string& path, std::uint64_t epoch,
                std::uint32_t file, Worker& w) {
  const int fd = Timed(SpanKind::kShimOpen, epoch, file, 0,
                       [&] { return ::open(path.c_str(), O_RDONLY); });
  if (fd < 0) return -1;
  struct stat st{};
  const int rc = Timed(SpanKind::kShimFstat, epoch, file, 0,
                       [&] { return ::fstat(fd, &st); });
  long got = 0;
  if (rc != 0 || st.st_size < 0 ||
      static_cast<std::size_t>(st.st_size) + kChunk > w.buf.size()) {
    got = -1;
  }
  while (got >= 0) {
    if (static_cast<std::size_t>(got) + kChunk > w.buf.size()) {
      got = -1;  // longer than fstat said
      break;
    }
    const ssize_t n = Timed(
        SpanKind::kShimRead, epoch, file, static_cast<std::uint64_t>(got),
        [&] { return ::read(fd, w.buf.data() + got, kChunk); });
    if (n < 0) got = -1;
    if (n <= 0) break;
    got += n;
  }
  Timed(SpanKind::kShimClose, epoch, file, 0, [&] { return ::close(fd); });
  return got;
}

}  // namespace

int main(int argc, char** argv) {
  // Never outlive the benchmark process that drives this one.
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  std::string dir;
  std::string spans_path;
  std::uint64_t seed = 1;
  std::size_t train = 0;
  std::size_t val = 0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* v = argv[i + 1];
    if (key == "--dir") dir = v;
    else if (key == "--seed") seed = std::strtoull(v, nullptr, 10);
    else if (key == "--train") train = std::strtoull(v, nullptr, 10);
    else if (key == "--val") val = std::strtoull(v, nullptr, 10);
    else if (key == "--trace") trace = std::string(v) == "1";
    else if (key == "--spans") spans_path = v;
  }
  if (dir.empty() || train == 0) {
    std::fprintf(stderr, "perfbench_reader: --dir and --train are required\n");
    return 2;
  }
  if (trace) SpanLog::Enable();

  const auto ds = perfbench::MakeDataset(train, val, seed);
  const perfbench::FileTable files(ds);
  const prisma::storage::EpochShuffler shuffler(ds.train.Names(), seed);
  const auto validation = ds.validation.Names();
  std::uint64_t max_size = 0;
  for (std::uint32_t i = 0; i < files.size(); ++i) {
    max_size = std::max(max_size, files.Size(i));
  }
  std::vector<Worker> workers(kThreads);
  for (auto& w : workers) w.buf.resize(max_size + 2 * kChunk);
  const CountFn copies = ShimCounter("_ZN6prisma14CopyAccounting6CopiesEv");
  const CountFn copy_bytes =
      ShimCounter("_ZN6prisma14CopyAccounting11CopiedBytesEv");
  perfbench::Fleet fleet(kThreads);

  char line[256];
  while (std::fgets(line, sizeof(line), stdin) != nullptr) {
    if (std::strncmp(line, "quit", 4) == 0) break;
    unsigned long long epoch = 0;
    char mode_name[16] = {};
    if (std::sscanf(line, "epoch %llu %15s", &epoch, mode_name) != 2) {
      std::fprintf(stderr, "perfbench_reader: bad command: %s", line);
      return 2;
    }
    const auto mode = std::strcmp(mode_name, "full") == 0
                          ? perfbench::CheckMode::kFull
                          : perfbench::CheckMode::kProbe;
    const auto order = shuffler.OrderFor(epoch);
    const std::uint64_t copies0 = copies != nullptr ? copies() : 0;
    const std::uint64_t bytes0 = copy_bytes != nullptr ? copy_bytes() : 0;
    const std::int64_t cpu0 = perfbench::ProcessCpuNs();
    const std::int64_t t0 = NowNs();
    // The announced train files, then the validation files nobody
    // announced.
    for (const auto* names : {&order, &validation}) {
      std::atomic<std::size_t> next{0};
      fleet.Run([&](int index) {
        Worker& w = workers[static_cast<std::size_t>(index)];
        for (;;) {
          const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
          if (i >= names->size()) break;
          const std::string& name = (*names)[i];
          const std::uint32_t id = files.Id(name);
          const std::int64_t start = NowNs();
          const std::uint64_t span =
              SpanLog::Begin(SpanKind::kSample, epoch, id, 0, start);
          const long got = ReadSample(dir + "/" + name, epoch, id, w);
          const std::int64_t end = NowNs();
          SpanLog::End(span, end);
          w.lat_ns.push_back(end - start);
          if (got < 0 || id == perfbench::kNoFile ||
              !perfbench::CheckSample(
                  name, files.Size(id),
                  std::span(w.buf.data(), static_cast<std::size_t>(got)), mode,
                  seed, w.scratch)) {
            if (w.failed++ == 0) {
              std::fprintf(stderr, "perfbench_reader: %s failed\n", name.c_str());
            }
          }
        }
      });
    }
    const std::int64_t wall = NowNs() - t0;
    const std::int64_t cpu = perfbench::ProcessCpuNs() - cpu0;
    std::string reply;
    std::uint64_t samples = 0;
    std::uint64_t failed = 0;
    std::string lat;
    for (auto& w : workers) {
      samples += w.lat_ns.size();
      failed += w.failed;
      for (const std::int64_t ns : w.lat_ns) lat += " " + std::to_string(ns);
      w.lat_ns.clear();
      w.failed = 0;
    }
    reply = "done " + std::to_string(samples) + " " + std::to_string(failed) +
            " " + std::to_string(wall) + " " + std::to_string(cpu) + " " +
            std::to_string(copies != nullptr ? copies() - copies0 : 0) + " " +
            std::to_string(copy_bytes != nullptr ? copy_bytes() - bytes0 : 0) +
            " " + std::to_string(samples) + lat + "\n";
    std::fputs(reply.c_str(), stdout);
    std::fflush(stdout);
  }
  if (trace && !SpanLog::Save(spans_path, SpanLog::Collect())) {
    std::fprintf(stderr, "perfbench_reader: cannot write %s\n", spans_path.c_str());
    return 1;
  }
  return 0;
}
