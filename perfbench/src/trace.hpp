// Spans, statistics, content checks and the consumer-thread fleet, shared
// by the workload process and the reader child.
//
// Spans are recorded only in a traced run. Each span carries a name, its
// start and end on CLOCK_MONOTONIC (so spans from the reader child line up
// with the server's), the span that was open on the recording thread when
// it began, and an id of (epoch, file, offset). They stay in per-thread
// memory until the run ends.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <thread>
#include <utility>
#include <vector>

#include "storage/dataset.hpp"

namespace perfbench {

/// CLOCK_MONOTONIC in nanoseconds.
std::int64_t NowNs();
/// CPU time of the calling thread.
std::int64_t ThreadCpuNs();
/// User + system CPU of this process (every thread), or of its waited-for
/// children.
std::int64_t ProcessCpuNs();
/// Peak resident set of this process, in MB.
double PeakRssMb();

enum class SpanKind : std::uint8_t {
  kSample,           // consumer: first call to last byte of one sample
  kStorageRead,      // storage: one backend read call
  kStorageSize,      // storage: one backend FileSize call
  kStageRead,        // dataplane: a read served by the prefetch buffer
  kStagePassthrough, // dataplane: a read the stage served from storage
  kStageFallback,    // dataplane: a zero-copy read refused (caller falls back)
  kStageSize,        // dataplane: FileSize
  kShimOpen,         // posix_shim calls, timed inside the reader
  kShimFstat,
  kShimRead,
  kShimClose,
  kCount,
};

const char* SpanName(SpanKind kind);

inline constexpr std::uint32_t kNoFile = 0xffffffffu;

struct Span {
  SpanKind kind = SpanKind::kSample;
  std::uint32_t file = kNoFile;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0: no span was open on the thread
  std::uint64_t epoch = 0;
  std::uint64_t offset = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Process-wide span store with one buffer per recording thread.
class SpanLog {
 public:
  static void Enable();
  static bool Enabled();
  /// Opens a span on the calling thread and returns its id (0 when
  /// tracing is off); pass it to End.
  static std::uint64_t Begin(SpanKind kind, std::uint64_t epoch,
                             std::uint32_t file, std::uint64_t offset,
                             std::int64_t start_ns);
  /// Closes a span opened on this thread by Begin; `kind` other than
  /// kCount renames it (a read classified by its outcome).
  static void End(std::uint64_t id, std::int64_t end_ns,
                  SpanKind kind = SpanKind::kCount);
  /// Records a span that began on another thread or in another process
  /// (async completions, spans loaded from the reader).
  static void Add(const Span& span);
  /// Every span recorded so far. Call only while no thread records.
  static std::vector<Span> Collect();
  /// Writes spans as raw records; Load reads them back.
  static bool Save(const std::string& path, const std::vector<Span>& spans);
  static std::vector<Span> Load(const std::string& path);
};

/// Persistent consumer threads, started outside any timed region. Run
/// hands every thread the same body and returns when all have finished.
class Fleet {
 public:
  explicit Fleet(int threads);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  int size() const { return static_cast<int>(threads_.size()); }
  /// Runs body(worker) on every thread; returns the thread CPU they spent.
  std::int64_t Run(const std::function<void(int)>& body);

 private:
  void Loop(int worker);

  std::mutex mu_;
  std::condition_variable cv_;
  const std::function<void(int)>* body_ = nullptr;
  std::uint64_t generation_ = 0;
  int pending_ = 0;
  bool stop_ = false;
  std::int64_t cpu_ns_ = 0;
  std::vector<std::thread> threads_;  // last: the threads use the above
};

// --- statistics ---------------------------------------------------------------

double Median(std::vector<double> v);
/// Nearest-rank percentile (p in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> v, double p);
/// The highest of 50, 90, 99, 99.9, ... that leaves at least `beyond`
/// samples above it in a sample of n; 0 when not even the median does.
double HighestSupportedPercentile(std::size_t n, std::size_t beyond = 10);
/// A span's duration minus the part of it that `children` cover; children
/// may overlap each other and stick out of the span.
std::int64_t SelfTimeNs(std::int64_t start_ns, std::int64_t end_ns,
                        std::vector<std::pair<std::int64_t, std::int64_t>> children);

// --- dataset and content checks ----------------------------------------------

/// The workloads' datasets: ImageNet-sized synthetic files whose sizes the
/// seed fixes.
prisma::storage::ImageNetDataset MakeDataset(std::size_t num_train,
                                             std::size_t num_validation,
                                             std::uint64_t seed);

/// Dense file ids: train files in catalog order, then validation files.
class FileTable {
 public:
  explicit FileTable(const prisma::storage::ImageNetDataset& ds);
  std::uint32_t Id(const std::string& name) const;
  std::uint64_t Size(std::uint32_t id) const { return sizes_[id]; }
  const std::string& Name(std::uint32_t id) const { return names_[id]; }
  std::size_t size() const { return names_.size(); }

 private:
  std::vector<std::string> names_;
  std::vector<std::uint64_t> sizes_;
  std::unordered_map<std::string, std::uint32_t> ids_;
};

enum class CheckMode {
  kFull,   // every byte
  kProbe,  // size plus a window at an offset the seed chooses
};

/// True when `got` is exactly the content of `name` (SyntheticContent) of
/// `size` bytes under `mode`. `scratch` is reused between calls.
bool CheckSample(const std::string& name, std::uint64_t size,
                 std::span<const std::byte> got, CheckMode mode,
                 std::uint64_t seed, std::vector<std::byte>& scratch);

}  // namespace perfbench
