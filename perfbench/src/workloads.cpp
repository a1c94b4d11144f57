#include "workloads.hpp"

#include <fcntl.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "common/buffer_pool.hpp"
#include "common/clock.hpp"
#include "dataplane/prefetch_object.hpp"
#include "dataplane/stage.hpp"
#include "frameworks/tf_adapter.hpp"
#include "frameworks/torch_adapter.hpp"
#include "ipc/uds_server.hpp"
#include "storage/posix_backend.hpp"
#include "storage/shuffler.hpp"
#include "storage/synthetic_backend.hpp"
#include "trace.hpp"
#include "traced.hpp"

extern char** environ;

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using prisma::Result;
using prisma::Status;

// Sizes fixed by the workload definitions (README.md).
constexpr std::size_t kTfTrain = 2048;
constexpr std::size_t kUdsTrain = 4096;
constexpr std::size_t kUdsValidation = 512;
constexpr std::size_t kBufferCapacity = 256;  // N of every stage
// The tf_nvme baseline reads this many samples per round: the vanilla
// loader is slower than PRISMA, and whole epochs of it would take most of
// the measured time.
constexpr std::size_t kTfBaselineRound = 256;
// The shim reader's read(2) size: a mean-sized sample is two chunks and
// an EOF read.
constexpr std::size_t kChunk = 64 * 1024;
constexpr std::uint64_t kMinMeasuredSamples = 1000;  // p99 has 10 beyond it
constexpr std::size_t kMinMeasuredEpochs = 3;
// An epoch counts as calm when the hypervisor stole at most 1% of the CPUs
// during it (about one /proc/stat tick per epoch on 4 CPUs).
constexpr double kCalmSteal = 0.01;
constexpr double kCalmWaitSeconds = 10.0;
// Set-ups per run; setup_s is the median of the calm ones.
constexpr int kSetups = 5;

/// One closed-loop pass: a PRISMA epoch or a baseline round.
struct Tally {
  std::uint64_t samples = 0;
  std::uint64_t failed = 0;
  std::int64_t wall_ns = 0;
  std::int64_t cpu_ns = 0;         // every process of the workload
  std::int64_t client_cpu_ns = 0;  // consumer threads, or the reader child
  std::uint64_t copies = 0;        // counted in the reader child
  std::uint64_t copy_bytes = 0;
  std::vector<double> lat_us;
  std::string error;

  double rate() const {
    return wall_ns > 0 ? static_cast<double>(samples) * 1e9 /
                             static_cast<double>(wall_ns)
                       : 0.0;
  }
};

Tally Failed(std::string error) {
  Tally t;
  t.error = std::move(error);
  return t;
}

/// Counters of the program read around the measured loop.
struct Counters {
  std::uint64_t hits = 0;
  std::uint64_t waits = 0;
  double wait_us = 0.0;
  std::uint64_t pool_misses = 0;
  std::uint64_t requests = 0;
  std::uint64_t copies = 0;
  std::uint64_t copy_bytes = 0;
};

Counters StageCounters(const prisma::dataplane::Stage& stage) {
  const auto st = stage.CollectStats();
  Counters c;
  c.hits = st.consumer_hits;
  c.waits = st.consumer_waits;
  c.wait_us = static_cast<double>(st.consumer_wait_time.count()) / 1e3;
  c.pool_misses = st.pool_misses;
  c.copies = prisma::CopyAccounting::Copies();
  c.copy_bytes = prisma::CopyAccounting::CopiedBytes();
  return c;
}

/// Waits (up to 5 s) until the stage buffers min(N, epoch size) samples.
/// The warm-up fills the buffer once, so peak_rss_mb measures the stage at
/// capacity: otherwise a consumer that keeps up (tf_nvme) leaves it nearly
/// empty, and any stall of the run decides the peak.
void AwaitFullBuffer(const prisma::dataplane::Stage& stage,
                     std::size_t epoch_size) {
  const std::size_t want = std::min(kBufferCapacity, epoch_size);
  const std::int64_t deadline = NowNs() + 5'000'000'000;
  while (stage.CollectStats().buffer_occupancy < want && NowNs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

using ReadFn = std::function<Result<std::size_t>(
    int worker, const std::string& name, std::span<std::byte> dst)>;

/// The consumer threads of an in-process workload and their buffers.
class Consumers {
 public:
  Consumers(int threads, const FileTable& files, std::uint64_t seed)
      : fleet_(threads), files_(files), seed_(seed), bufs_(threads),
        scratch_(threads) {
    std::uint64_t max_size = 0;
    for (std::uint32_t i = 0; i < files.size(); ++i) {
      max_size = std::max(max_size, files.Size(i));
    }
    for (auto& b : bufs_) b.resize(max_size + kChunk);
  }

  /// Reads order[0..count) on every thread (shared cursor, so the epoch
  /// is consumed in announced order) and checks each sample.
  Tally Pass(const std::vector<std::string>& order, std::size_t count,
             std::uint64_t epoch, CheckMode mode, bool trace_samples,
             const ReadFn& read) {
    struct Log {
      std::vector<double> lat_us;
      std::uint64_t samples = 0;
      std::uint64_t failed = 0;
      std::string error;
    };
    std::vector<Log> logs(static_cast<std::size_t>(fleet_.size()));
    std::atomic<std::size_t> next{0};
    Tally t;
    const std::int64_t cpu0 = ProcessCpuNs();
    const std::int64_t t0 = NowNs();
    t.client_cpu_ns = fleet_.Run([&](int w) {
      Log& log = logs[static_cast<std::size_t>(w)];
      std::vector<std::byte>& buf = bufs_[static_cast<std::size_t>(w)];
      std::vector<std::byte>& scratch = scratch_[static_cast<std::size_t>(w)];
      log.lat_us.reserve(count);
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= count) break;
        const std::string& name = order[i];
        const std::uint32_t id = files_.Id(name);
        const std::int64_t start = NowNs();
        const std::uint64_t span =
            trace_samples ? SpanLog::Begin(SpanKind::kSample, epoch, id, 0, start)
                          : 0;
        const auto n = read(w, name, buf);
        const std::int64_t end = NowNs();
        SpanLog::End(span, end);
        log.lat_us.push_back(static_cast<double>(end - start) / 1e3);
        ++log.samples;
        const bool ok =
            n.ok() && id != kNoFile && *n <= buf.size() &&
            CheckSample(name, files_.Size(id), std::span(buf.data(), *n), mode,
                        seed_, scratch);
        if (!ok) {
          ++log.failed;
          if (log.error.empty()) {
            log.error = name + ": " +
                        (n.ok() ? "short read or wrong bytes"
                                : n.status().ToString());
          }
        }
      }
    });
    t.wall_ns = NowNs() - t0;
    t.cpu_ns = ProcessCpuNs() - cpu0;
    for (auto& log : logs) {
      t.samples += log.samples;
      t.failed += log.failed;
      t.lat_us.insert(t.lat_us.end(), log.lat_us.begin(), log.lat_us.end());
      if (t.error.empty()) t.error = std::move(log.error);
    }
    return t;
  }

 private:
  Fleet fleet_;
  const FileTable& files_;
  const std::uint64_t seed_;
  std::vector<std::vector<std::byte>> bufs_;
  std::vector<std::vector<std::byte>> scratch_;
};

class Workload {
 public:
  explicit Workload(const Options& o)
      : o_(o),
        ds_(MakeDataset(DatasetSize(o).first, DatasetSize(o).second, o.seed)),
        files_(ds_),
        shuffler_(ds_.train.Names(), o.seed),
        ctx_(files_) {}
  virtual ~Workload() = default;

  /// Builds the stage and whatever fronts it, up to the warm-up epoch.
  virtual Status Setup() = 0;
  /// Undoes Setup; safe after a failed or repeated Setup.
  virtual void Teardown() = 0;
  /// One PRISMA epoch over the order announced for `epoch`. With `fill`,
  /// reading starts only once the buffer is full (see AwaitFullBuffer).
  virtual Tally Prisma(std::uint64_t epoch, CheckMode mode, bool fill) = 0;
  /// One round of the framework's own loader on the same storage.
  virtual Tally Baseline(std::uint64_t epoch, CheckMode mode) = 0;
  virtual Counters Snapshot() = 0;
  /// Engine and thread count of the server, when there is one.
  virtual std::string engine() const { return "none"; }
  virtual std::size_t server_threads() const { return 0; }
  /// Poller timings (the controller's Stats and the control Ping).
  virtual std::vector<double> stats_us() const { return {}; }
  virtual std::vector<double> ping_us() const { return {}; }

  const std::string& FileName(std::uint32_t id) const { return files_.Name(id); }

 protected:
  std::shared_ptr<prisma::storage::StorageBackend> Traced(
      std::shared_ptr<prisma::storage::StorageBackend> backend) {
    if (!o_.trace) return backend;
    return std::make_shared<TracedBackend>(std::move(backend), ctx_);
  }

  /// The prefetch stage every workload runs: t fixed producers, N=256, no
  /// controller, behind the traced decorator in a traced run.
  std::shared_ptr<prisma::dataplane::Stage> MakeStage(
      std::shared_ptr<prisma::storage::StorageBackend> backend,
      std::uint32_t producers, const char* framework) {
    prisma::dataplane::PrefetchOptions po;
    po.initial_producers = producers;
    po.max_producers = producers;
    po.buffer_capacity = kBufferCapacity;
    std::shared_ptr<prisma::dataplane::OptimizationObject> object =
        std::make_shared<prisma::dataplane::PrefetchObject>(
            std::move(backend), po, prisma::SteadyClock::Shared());
    if (o_.trace) object = std::make_shared<TracedObject>(object, ctx_);
    return std::make_shared<prisma::dataplane::Stage>(
        prisma::dataplane::StageInfo{std::string("perfbench-") + framework,
                                     framework},
        object);
  }

  const Options& o_;
  const prisma::storage::ImageNetDataset ds_;
  const FileTable files_;
  const prisma::storage::EpochShuffler shuffler_;
  TraceContext ctx_;
};

// --- tf_nvme -----------------------------------------------------------------

/// TensorFlow's read of one file: size, RandomAccessFile, one Read.
Result<std::size_t> TfRead(const prisma::frameworks::TfPosixFileSystem& fs,
                           const std::string& name, std::span<std::byte> dst) {
  const auto size = fs.GetFileSize(name);
  if (!size.ok()) return size.status();
  if (*size > dst.size()) return Status::OutOfRange("sample larger than buffer");
  auto file = fs.NewRandomAccessFile(name);
  if (!file.ok()) return file.status();
  return (*file)->Read(0, dst.first(static_cast<std::size_t>(*size)));
}

class TfNvme final : public Workload {
 public:
  // Two consumer threads, not one. A single consumer outruns the four
  // producers and finds 55-77% of samples already buffered, depending on
  // how the producers' reads happen to line up; the median sample then
  // flips between a buffer hit (8 us) and a short wait (24 us) from run
  // to run. Two consumers find about 20% buffered, so the median is a
  // wait on the device, as in the workload's purpose.
  //
  // The device outlives the set-ups, as the files on disk do in the other
  // workloads, and holds every file's bytes (Write), so a read copies them
  // instead of generating them. Generating a 113 KiB sample costs about
  // 60 us of byte-wise arithmetic: more than the rest of the workload's
  // CPU together, and on a shared host the speed of such code drifted by
  // up to 1.7x over seconds, with no steal reported (see README.md). The
  // stored bytes are written outside setup_s and count towards
  // peak_rss_mb.
  explicit TfNvme(const Options& o) : Workload(o), consumers_(2, files_, o.seed) {
    prisma::storage::SyntheticBackendOptions so;
    so.profile = prisma::storage::DeviceProfile::NvmeP4600();
    so.time_scale = 1.0;
    so.seed = o_.seed;
    device_ = std::make_shared<prisma::storage::SyntheticBackend>(so, ds_);
    std::vector<std::byte> bytes;
    for (const auto& f : ds_.train.files()) {
      bytes.resize(f.size);
      prisma::storage::SyntheticContent::Fill(f.name, 0, bytes);
      (void)device_->Write(f.name, bytes);  // cannot fail: an in-memory copy
    }
  }
  ~TfNvme() override { Teardown(); }

  Status Setup() override {
    auto backend = Traced(device_);
    stage_ = MakeStage(backend, 4, "tensorflow");
    if (Status s = stage_->Start(); !s.ok()) return s;
    prisma_fs_ =
        std::make_unique<prisma::frameworks::TfPosixFileSystem>(backend, stage_);
    vanilla_fs_ = std::make_unique<prisma::frameworks::TfPosixFileSystem>(device_);
    return Status::Ok();
  }

  void Teardown() override {
    if (stage_ != nullptr) stage_->Stop();
    prisma_fs_.reset();
    vanilla_fs_.reset();
    stage_.reset();
  }

  Tally Prisma(std::uint64_t epoch, CheckMode mode, bool fill) override {
    const auto order = shuffler_.OrderFor(epoch);
    if (Status s = stage_->BeginEpoch(epoch, order); !s.ok()) {
      return Failed("BeginEpoch: " + s.ToString());
    }
    if (fill) AwaitFullBuffer(*stage_, order.size());
    return consumers_.Pass(order, order.size(), epoch, mode, true,
                           [this](int, const std::string& name,
                                  std::span<std::byte> dst) {
                             return TfRead(*prisma_fs_, name, dst);
                           });
  }

  Tally Baseline(std::uint64_t epoch, CheckMode mode) override {
    const auto order = shuffler_.OrderFor(epoch);
    return consumers_.Pass(order, std::min(order.size(), kTfBaselineRound),
                           epoch, mode, false,
                           [this](int, const std::string& name,
                                  std::span<std::byte> dst) {
                             return TfRead(*vanilla_fs_, name, dst);
                           });
  }

  Counters Snapshot() override { return StageCounters(*stage_); }

 private:
  Consumers consumers_;
  std::shared_ptr<prisma::storage::SyntheticBackend> device_;
  std::shared_ptr<prisma::dataplane::Stage> stage_;
  std::unique_ptr<prisma::frameworks::TfPosixFileSystem> prisma_fs_;
  std::unique_ptr<prisma::frameworks::TfPosixFileSystem> vanilla_fs_;
};

// --- the UDS server both ipc workloads read through ---------------------------

class UdsWorkload : public Workload {
 public:
  UdsWorkload(const Options& o, std::string dir)
      : Workload(o),
        dir_(std::move(dir)),
        socket_(o.run_dir + "/p" + std::to_string(::getpid()) + "-s" +
                std::to_string(o.seed) + ".sock") {}

  Counters Snapshot() override {
    Counters c = StageCounters(*stage_);
    c.requests = server_->requests_served();
    return c;
  }
  std::string engine() const override { return engine_; }
  std::size_t server_threads() const override { return server_threads_; }

 protected:
  /// PosixBackend over the materialized files, a t=2 stage, the server
  /// with its default engine, and the control connection.
  Status StartServer() {
    disk_ = std::make_shared<prisma::storage::PosixBackend>(dir_);
    stage_ = MakeStage(Traced(disk_), 2, "pytorch");
    if (Status s = stage_->Start(); !s.ok()) return s;
    server_ = std::make_unique<prisma::ipc::UdsServer>(socket_, stage_);
    if (Status s = server_->Start(); !s.ok()) return s;
    engine_ = std::string(server_->engine_name());
    server_threads_ = server_->server_threads();
    return control_.Connect(socket_);
  }

  void StopServer() {
    control_.raw_client().Close();
    if (server_ != nullptr) server_->Stop();
    if (stage_ != nullptr) stage_->Stop();
    server_.reset();
    stage_.reset();
    disk_.reset();
  }

  Status Announce(std::uint64_t epoch, const std::vector<std::string>& order) {
    std::lock_guard<std::mutex> lock(control_mu_);
    return control_.AnnounceEpoch(epoch, order);
  }

  const std::string dir_;
  const std::string socket_;
  std::shared_ptr<prisma::storage::PosixBackend> disk_;
  std::shared_ptr<prisma::dataplane::Stage> stage_;
  std::unique_ptr<prisma::ipc::UdsServer> server_;
  std::mutex control_mu_;  // the poller shares the control connection
  prisma::frameworks::TorchWorkerClient control_;
  std::string engine_ = "none";
  std::size_t server_threads_ = 0;
};

// --- torch_uds -----------------------------------------------------------------

class TorchUds final : public UdsWorkload {
 public:
  TorchUds(const Options& o, std::string dir)
      : UdsWorkload(o, std::move(dir)), consumers_(kWorkers, files_, o.seed) {}
  ~TorchUds() override { Teardown(); }

  Status Setup() override {
    if (Status s = StartServer(); !s.ok()) return s;
    for (auto& w : workers_) {
      if (Status s = w.Connect(socket_); !s.ok()) return s;
    }
    stats_us_.clear();
    ping_us_.clear();
    {
      std::lock_guard<std::mutex> lock(poll_mu_);
      poll_stop_ = false;
    }
    poller_ = std::thread([this] { PollLoop(); });
    return Status::Ok();
  }

  void Teardown() override {
    if (poller_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(poll_mu_);
        poll_stop_ = true;
      }
      poll_cv_.notify_all();
      poller_.join();
    }
    for (auto& w : workers_) w.raw_client().Close();
    StopServer();
  }

  Tally Prisma(std::uint64_t epoch, CheckMode mode, bool fill) override {
    const auto order = shuffler_.OrderFor(epoch);
    if (Status s = Announce(epoch, order); !s.ok()) {
      return Failed("AnnounceEpoch: " + s.ToString());
    }
    if (fill) AwaitFullBuffer(*stage_, order.size());
    return consumers_.Pass(order, order.size(), epoch, mode, true,
                           [this](int w, const std::string& name,
                                  std::span<std::byte> dst) {
                             return workers_[static_cast<std::size_t>(w)]
                                 .GetItemInto(name, dst);
                           });
  }

  Tally Baseline(std::uint64_t epoch, CheckMode mode) override {
    const auto order = shuffler_.OrderFor(epoch);
    return consumers_.Pass(order, order.size(), epoch, mode, false,
                           [this](int, const std::string& name,
                                  std::span<std::byte> dst) {
                             const auto size = disk_->FileSize(name);
                             if (!size.ok()) return Result<std::size_t>(size.status());
                             if (*size > dst.size()) {
                               return Result<std::size_t>(
                                   Status::OutOfRange("sample larger than buffer"));
                             }
                             return disk_->Read(
                                 name, 0, dst.first(static_cast<std::size_t>(*size)));
                           });
  }

  std::vector<double> stats_us() const override { return stats_us_; }
  std::vector<double> ping_us() const override { return ping_us_; }

 private:
  static constexpr int kWorkers = 2;

  /// The controller's view: Stats() and a Ping at 10 Hz on the control
  /// connection.
  void PollLoop() {
    std::unique_lock<std::mutex> lock(poll_mu_);
    for (;;) {
      poll_cv_.wait_for(lock, std::chrono::milliseconds(100),
                        [this] { return poll_stop_; });
      if (poll_stop_) return;
      lock.unlock();
      {
        std::lock_guard<std::mutex> control(control_mu_);
        const std::int64_t t0 = NowNs();
        const bool stats_ok = control_.raw_client().Stats().ok();
        const std::int64_t t1 = NowNs();
        const bool ping_ok = control_.raw_client().Ping().ok();
        const std::int64_t t2 = NowNs();
        if (stats_ok) stats_us_.push_back(static_cast<double>(t1 - t0) / 1e3);
        if (ping_ok) ping_us_.push_back(static_cast<double>(t2 - t1) / 1e3);
      }
      lock.lock();
    }
  }

  Consumers consumers_;
  prisma::frameworks::TorchWorkerClient workers_[kWorkers];
  std::mutex poll_mu_;
  std::condition_variable poll_cv_;
  bool poll_stop_ = false;
  std::vector<double> stats_us_;  // written by the poller only
  std::vector<double> ping_us_;
  std::thread poller_;
};

// --- shim_chunked ------------------------------------------------------------

/// A perfbench_reader child, driven one epoch at a time over pipes.
class ReaderProc {
 public:
  /// Starts the reader; under LD_PRELOAD=libprisma_shim.so when `socket`
  /// is non-empty, else on the real files.
  static Result<std::unique_ptr<ReaderProc>> Spawn(
      const Options& o, const std::string& dir, const std::string& socket,
      std::size_t train, std::size_t val, const std::string& spans_path) {
    int to_child[2];
    int from_child[2];
    if (::pipe2(to_child, O_CLOEXEC) != 0) return Status::IoError("pipe2");
    if (::pipe2(from_child, O_CLOEXEC) != 0) {
      ::close(to_child[0]);
      ::close(to_child[1]);
      return Status::IoError("pipe2");
    }
    std::vector<std::string> args = {
        PERFBENCH_READER,      "--dir",  dir,
        "--seed",              std::to_string(o.seed),
        "--train",             std::to_string(train),
        "--val",               std::to_string(val),
        "--trace",             spans_path.empty() ? "0" : "1",
        "--spans",             spans_path.empty() ? "-" : spans_path};
    std::vector<std::string> env;
    for (char** e = environ; *e != nullptr; ++e) {
      const std::string_view kv(*e);
      if (kv.starts_with("LD_PRELOAD=") || kv.starts_with("PRISMA_SHIM_")) continue;
      env.emplace_back(kv);
    }
    if (!socket.empty()) {
      env.push_back(std::string("LD_PRELOAD=") + PERFBENCH_SHIM_LIB);
      env.push_back("PRISMA_SHIM_SOCKET=" + socket);
      env.push_back("PRISMA_SHIM_PREFIX=" + dir);
    }
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    std::vector<char*> envp;
    for (auto& e : env) envp.push_back(e.data());
    envp.push_back(nullptr);

    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, to_child[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&fa, from_child[1], STDOUT_FILENO);
    pid_t pid = -1;
    const int rc = ::posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(),
                                 envp.data());
    posix_spawn_file_actions_destroy(&fa);
    ::close(to_child[0]);
    ::close(from_child[1]);
    if (rc != 0) {
      ::close(to_child[1]);
      ::close(from_child[0]);
      return Status::IoError(std::string("posix_spawn reader: ") +
                             std::strerror(rc));
    }
    auto proc = std::unique_ptr<ReaderProc>(new ReaderProc);
    proc->pid_ = pid;
    proc->in_ = to_child[1];
    proc->out_ = ::fdopen(from_child[0], "r");
    return proc;
  }

  ~ReaderProc() {
    if (pid_ > 0) {
      ::kill(pid_, SIGKILL);
      Quit();
    }
  }
  ReaderProc(const ReaderProc&) = delete;
  ReaderProc& operator=(const ReaderProc&) = delete;

  /// Reads one epoch (train order, then the validation files).
  Tally Epoch(std::uint64_t epoch, CheckMode mode) {
    const std::string cmd = "epoch " + std::to_string(epoch) +
                            (mode == CheckMode::kFull ? " full\n" : " probe\n");
    if (::write(in_, cmd.data(), cmd.size()) !=
        static_cast<ssize_t>(cmd.size())) {
      return Failed("reader: write failed");
    }
    char* line = nullptr;
    std::size_t cap = 0;
    const ssize_t len = ::getline(&line, &cap, out_);
    std::unique_ptr<char, decltype(&std::free)> owned(line, &std::free);
    if (len <= 0 || std::strncmp(line, "done ", 5) != 0) {
      return Failed("reader: no reply for epoch " + std::to_string(epoch));
    }
    // done <samples> <failed> <wall_ns> <cpu_ns> <copies> <copy_bytes> <n> <lat_ns>...
    char* p = line + 5;
    const auto next = [&p] { return std::strtoll(p, &p, 10); };
    Tally t;
    t.samples = static_cast<std::uint64_t>(next());
    t.failed = static_cast<std::uint64_t>(next());
    t.wall_ns = next();
    t.client_cpu_ns = next();
    t.copies = static_cast<std::uint64_t>(next());
    t.copy_bytes = static_cast<std::uint64_t>(next());
    const long long n = next();
    t.lat_us.reserve(static_cast<std::size_t>(std::max(0LL, n)));
    for (long long i = 0; i < n; ++i) {
      t.lat_us.push_back(static_cast<double>(next()) / 1e3);
    }
    if (t.failed > 0) {
      t.error = "reader: " + std::to_string(t.failed) +
                " failed samples in epoch " + std::to_string(epoch);
    }
    return t;
  }

  /// Ends the reader and waits for it; true when it exited cleanly.
  bool Quit() {
    if (pid_ <= 0) return true;
    static constexpr char kQuit[] = "quit\n";
    const bool sent = ::write(in_, kQuit, sizeof(kQuit) - 1) ==
                      static_cast<ssize_t>(sizeof(kQuit) - 1);
    ::close(in_);
    int status = 0;
    const pid_t got = ::waitpid(pid_, &status, 0);
    pid_ = -1;
    std::fclose(out_);
    return sent && got > 0 && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  ReaderProc() = default;
  pid_t pid_ = -1;
  int in_ = -1;
  std::FILE* out_ = nullptr;
};

class ShimChunked final : public UdsWorkload {
 public:
  ShimChunked(const Options& o, std::string dir)
      : UdsWorkload(o, std::move(dir)) {}
  ~ShimChunked() override {
    Teardown();
    if (baseline_ != nullptr) baseline_->Quit();
  }

  Status Setup() override {
    if (Status s = StartServer(); !s.ok()) return s;
    const std::string spans =
        o_.trace ? fs::absolute(o_.run_dir + "/reader-" +
                                std::to_string(readers_++) + ".spans")
                       .string()
                 : std::string();
    auto reader = ReaderProc::Spawn(o_, dir_, socket_, ds_.train.NumFiles(),
                                    ds_.validation.NumFiles(), spans);
    if (!reader.ok()) return reader.status();
    reader_ = std::move(*reader);
    reader_spans_ = spans;
    return Status::Ok();
  }

  void Teardown() override {
    if (reader_ != nullptr) {
      if (!reader_->Quit()) reader_error_ = true;
      reader_.reset();
      if (!reader_spans_.empty()) {
        for (const Span& s : SpanLog::Load(reader_spans_)) SpanLog::Add(s);
        std::error_code ec;
        fs::remove(reader_spans_, ec);
      }
    }
    StopServer();
  }

  Tally Prisma(std::uint64_t epoch, CheckMode mode, bool fill) override {
    const auto order = shuffler_.OrderFor(epoch);
    if (Status s = Announce(epoch, order); !s.ok()) {
      return Failed("AnnounceEpoch: " + s.ToString());
    }
    if (fill) AwaitFullBuffer(*stage_, order.size());
    const std::int64_t cpu0 = ProcessCpuNs();
    Tally t = reader_->Epoch(epoch, mode);
    t.cpu_ns = ProcessCpuNs() - cpu0 + t.client_cpu_ns;
    return t;
  }

  Tally Baseline(std::uint64_t epoch, CheckMode mode) override {
    if (baseline_ == nullptr) {
      auto reader = ReaderProc::Spawn(o_, dir_, "", ds_.train.NumFiles(),
                                      ds_.validation.NumFiles(), "");
      if (!reader.ok()) return Failed(reader.status().ToString());
      baseline_ = std::move(*reader);
    }
    return baseline_->Epoch(epoch, mode);
  }

  bool reader_error() const { return reader_error_; }

 private:
  std::unique_ptr<ReaderProc> reader_;
  std::unique_ptr<ReaderProc> baseline_;
  std::string reader_spans_;
  int readers_ = 0;
  bool reader_error_ = false;
};

// --- reporting ---------------------------------------------------------------

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string NumList(const std::vector<double>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ", ";
    s += Num(v[i]);
  }
  return s + "]";
}

std::string Quote(const std::string& s) {
  std::string q = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') q += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    q += c;
  }
  return q + "\"";
}

std::vector<double> Durations(const std::vector<Span>& spans, SpanKind kind) {
  std::vector<double> us;
  for (const Span& s : spans) {
    if (s.kind == kind) us.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
  }
  return us;
}

/// One line per span: name, start and end (ns, CLOCK_MONOTONIC), id,
/// parent, epoch, file and offset.
bool WriteSpans(const std::string& path, const std::vector<Span>& spans,
                const Workload& w) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "name\tstart_ns\tend_ns\tid\tparent\tepoch\tfile\toffset\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%s\t%lld\t%lld\t%llu\t%llu\t%llu\t%s\t%llu\n",
                 SpanName(s.kind), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.epoch),
                 s.file == kNoFile ? "-" : w.FileName(s.file).c_str(),
                 static_cast<unsigned long long>(s.offset));
  }
  return std::fclose(f) == 0;
}

/// Per-layer metrics of a traced run from the spans of the measured epochs
/// and the counters read around them. `has_server` is false where no ipc
/// layer sits between the consumers and the stage (tf_nvme): ipc.* is 0.
void AddLayerMetrics(Report& r, std::vector<Span> spans,
                     const std::vector<Tally>& epochs, const Counters& c0,
                     const Counters& c1, const std::vector<double>& stats_us,
                     const std::vector<double>& ping_us, double failed_frac,
                     bool has_server) {
  double samples = 0;
  double wall_ns = 0;
  double cpu_ns = 0;
  double client_ns = 0;
  double reader_copies = 0;
  double reader_copy_bytes = 0;
  for (const Tally& t : epochs) {
    samples += static_cast<double>(t.samples);
    wall_ns += static_cast<double>(t.wall_ns);
    cpu_ns += static_cast<double>(t.cpu_ns);
    client_ns += static_cast<double>(t.client_cpu_ns);
    reader_copies += static_cast<double>(t.copies);
    reader_copy_bytes += static_cast<double>(t.copy_bytes);
  }
  samples = std::max(samples, 1.0);
  const auto per_sample = [&](double v) { return v / samples; };

  double storage_busy_ns = 0;
  std::size_t storage_reads = 0;
  std::map<std::pair<std::uint64_t, std::uint32_t>,
           std::vector<std::pair<std::int64_t, std::int64_t>>>
      stage_by_sample;
  for (const Span& s : spans) {
    switch (s.kind) {
      case SpanKind::kStorageRead:
        storage_busy_ns += static_cast<double>(s.end_ns - s.start_ns);
        ++storage_reads;
        break;
      case SpanKind::kStageRead:
      case SpanKind::kStagePassthrough:
      case SpanKind::kStageFallback:
      case SpanKind::kStageSize:
        stage_by_sample[{s.epoch, s.file}].emplace_back(s.start_ns, s.end_ns);
        break;
      default:
        break;
    }
  }
  double self_ns = 0;
  for (const Span& s : spans) {
    if (!has_server || s.kind != SpanKind::kSample) continue;
    const auto it = stage_by_sample.find({s.epoch, s.file});
    self_ns += static_cast<double>(
        it == stage_by_sample.end()
            ? s.end_ns - s.start_ns
            : SelfTimeNs(s.start_ns, s.end_ns, it->second));
  }
  const auto stage_reads = Durations(spans, SpanKind::kStageRead);
  const double hits = static_cast<double>(c1.hits - c0.hits);
  const double waits = static_cast<double>(c1.waits - c0.waits);
  auto& m = r.metrics;
  m.emplace_back("storage.read_us_p50",
                 Percentile(Durations(spans, SpanKind::kStorageRead), 50));
  m.emplace_back("storage.inflight_mean",
                 wall_ns > 0 ? storage_busy_ns / wall_ns : 0.0);
  m.emplace_back("storage.reads_per_sample",
                 per_sample(static_cast<double>(storage_reads)));
  m.emplace_back("buffer.hit_ratio", hits + waits > 0 ? hits / (hits + waits) : 0.0);
  m.emplace_back("buffer.wait_us_per_sample", per_sample(c1.wait_us - c0.wait_us));
  m.emplace_back("stage.read_us_p50", Percentile(stage_reads, 50));
  m.emplace_back("stage.read_us_p99", Percentile(stage_reads, 99));
  m.emplace_back("stage.passthrough_us_p50",
                 Percentile(Durations(spans, SpanKind::kStagePassthrough), 50));
  m.emplace_back("pool.allocs_per_sample",
                 per_sample(static_cast<double>(c1.pool_misses - c0.pool_misses)));
  m.emplace_back("copy.copies_per_sample",
                 per_sample(static_cast<double>(c1.copies - c0.copies) + reader_copies));
  m.emplace_back("copy.bytes_per_sample",
                 per_sample(static_cast<double>(c1.copy_bytes - c0.copy_bytes) +
                            reader_copy_bytes));
  m.emplace_back("ipc.requests_per_sample",
                 per_sample(static_cast<double>(c1.requests - c0.requests)));
  m.emplace_back("ipc.self_us_per_sample", per_sample(self_ns) / 1e3);
  m.emplace_back("ipc.ping_us_p50", Percentile(ping_us, 50));
  m.emplace_back("cpu.client_us_per_sample", per_sample(client_ns) / 1e3);
  m.emplace_back("cpu.server_us_per_sample", per_sample(cpu_ns - client_ns) / 1e3);
  m.emplace_back("shim.open_us_p50", Percentile(Durations(spans, SpanKind::kShimOpen), 50));
  m.emplace_back("shim.fstat_us_p50",
                 Percentile(Durations(spans, SpanKind::kShimFstat), 50));
  m.emplace_back("shim.read_us_p50", Percentile(Durations(spans, SpanKind::kShimRead), 50));
  m.emplace_back("controlplane.stats_us_p50", Percentile(stats_us, 50));
  m.emplace_back("failed_frac", failed_frac);
}

/// CPU time the hypervisor gave to others (steal) over all CPUs, in
/// seconds; 0 where /proc/stat has no such column.
double StealSeconds() {
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) return 0.0;
  unsigned long long v[8] = {};
  const int n = std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu",
                            &v[0], &v[1], &v[2], &v[3], &v[4], &v[5], &v[6],
                            &v[7]);
  std::fclose(f);
  const long hz = ::sysconf(_SC_CLK_TCK);
  return n == 8 && hz > 0 ? static_cast<double>(v[7]) / static_cast<double>(hz)
                          : 0.0;
}

/// Restricts the calling thread, and every thread it starts afterwards, to
/// the last CPU it may run on. Returns that CPU, or -1 if that failed.
int PinToOneCpu() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) last = c;
  }
  if (last < 0) return -1;
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  return ::sched_setaffinity(0, sizeof(set), &set) == 0 ? last : -1;
}

unsigned HardwareThreads() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<unsigned>(n) : 1u;
}

/// Share of all CPUs stolen since `steal0` (StealSeconds) over `wall_ns`.
double StealFrac(double steal0, std::int64_t wall_ns) {
  if (wall_ns <= 0) return 0.0;
  return (StealSeconds() - steal0) / (static_cast<double>(wall_ns) / 1e9) /
         HardwareThreads();
}

/// Median of `values` over the calm passes: those stolen no more than the
/// third-calmest pass. Ties all count, so a run with no steal uses every
/// pass. On a shared host a burst of another guest's work slows whatever
/// runs during it, sleeps and wake-ups most of all; the calm passes
/// measure this program.
double CalmMedian(const std::vector<double>& values,
                  const std::vector<double>& steal) {
  if (values.empty()) return 0.0;
  std::vector<double> sorted = steal;
  std::sort(sorted.begin(), sorted.end());
  const double limit = sorted[std::min<std::size_t>(values.size(), 3) - 1];
  std::vector<double> calm;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (steal[i] <= limit) calm.push_back(values[i]);
  }
  return Median(std::move(calm));
}

}  // namespace

std::pair<std::size_t, std::size_t> DatasetSize(const Options& o) {
  if (o.workload == "tf_nvme") {
    return {o.num_train != 0 ? o.num_train : kTfTrain, 0};
  }
  return {o.num_train != 0 ? o.num_train : kUdsTrain,
          o.num_validation != 0 ? o.num_validation : kUdsValidation};
}

Result<std::string> EnsureDataset(const Options& o) {
  const auto [train, val] = DatasetSize(o);
  std::error_code ec;
  const fs::path root = fs::absolute(o.data_root);
  fs::create_directories(root, ec);
  const fs::path dir = root / ("s" + std::to_string(o.seed) + "-" +
                               std::to_string(train) + "-" + std::to_string(val));
  if (!fs::exists(dir / "complete")) {
    const fs::path tmp =
        root / ("tmp-" + std::to_string(::getpid()) + "-s" + std::to_string(o.seed));
    fs::remove_all(tmp, ec);
    const auto ds = MakeDataset(train, val, o.seed);
    prisma::storage::PosixBackend writer(tmp);
    Status s = prisma::storage::Materialize(ds.train, writer);
    if (s.ok()) s = prisma::storage::Materialize(ds.validation, writer);
    // Flushed before any run starts, so writeback of the new files does
    // not compete with the measurement.
    if (s.ok()) ::sync();
    if (s.ok()) s = writer.Write("complete", {});
    if (s.ok()) {
      fs::rename(tmp, dir, ec);
      if (ec) s = Status::IoError("rename " + tmp.string() + ": " + ec.message());
    }
    if (!s.ok()) {
      fs::remove_all(tmp, ec);
      return s;
    }
  }
  // Reuse is by seed; keep the two most recent so disk use stays bounded.
  fs::last_write_time(dir, fs::file_time_type::clock::now(), ec);
  std::vector<std::pair<fs::file_time_type, fs::path>> seeds;
  for (const auto& e : fs::directory_iterator(root, ec)) {
    if (e.path().filename().string().starts_with("s")) {
      seeds.emplace_back(fs::last_write_time(e.path(), ec), e.path());
    }
  }
  std::sort(seeds.rbegin(), seeds.rend());
  for (std::size_t i = 2; i < seeds.size(); ++i) {
    if (seeds[i].second != dir) fs::remove_all(seeds[i].second, ec);
  }
  return dir.string();
}

Report RunWorkload(const Options& o) {
  Report r;
  const auto fail = [&r](std::string error) {
    r.correct = false;
    if (r.error.empty()) r.error = std::move(error);
    return r;
  };
  if (o.trace) SpanLog::Enable();
  std::error_code ec;
  fs::create_directories(o.run_dir, ec);

  std::unique_ptr<Workload> w;
  ShimChunked* shim = nullptr;
  int pinned_cpu = -1;
  if (o.workload == "tf_nvme") {
    // tf_nvme sleeps on its device most of the time and needs about a
    // quarter of one CPU. Unpinned, the scheduler mostly kept all its
    // threads on one CPU. After a burst of steal it sometimes spread them
    // over several CPUs and left them there for the rest of the process.
    // Each sample then cost about twice the consumer CPU: wake-ups crossed
    // CPUs and payloads were copied from another CPU's cache. So
    // cpu_us_per_sample flipped between two values from run to run
    // (README.md). Pinned before any thread starts, every thread of the
    // workload stays on the CPU the scheduler itself usually chose.
    pinned_cpu = PinToOneCpu();
    w = std::make_unique<TfNvme>(o);
  } else if (o.workload == "torch_uds" || o.workload == "shim_chunked") {
    const auto dir = EnsureDataset(o);
    if (!dir.ok()) return fail("dataset: " + dir.status().ToString());
    if (o.workload == "torch_uds") {
      w = std::make_unique<TorchUds>(o, *dir);
    } else {
      auto s = std::make_unique<ShimChunked>(o, *dir);
      shim = s.get();
      w = std::move(s);
    }
  } else {
    return fail("unknown workload " + o.workload);
  }

  const auto note = [&r](const Tally& t) {
    r.attempted += t.samples;
    r.failed += t.failed;
    if (!t.error.empty() && r.error.empty()) r.error = t.error;
  };

  // Set-up: stage, server, connections and reader, then a warm-up epoch.
  // setup_s is the median of several; the first one is the stage that gets
  // measured, and the others come after the peak RSS is read, so no
  // torn-down stage counts towards it. The warm-up checks a probe window,
  // like a timed epoch: checking every byte means generating every byte,
  // which took a third of set-up on torch_uds, at a speed that drifts with
  // the host's (README.md).
  std::uint64_t epoch = 0;
  std::vector<double> setup_s;
  std::vector<double> setup_steal;
  const auto timed_setup = [&]() -> bool {
    const double steal0 = StealSeconds();
    const std::int64_t t0 = NowNs();
    if (Status s = w->Setup(); !s.ok()) {
      w->Teardown();
      fail("setup: " + s.ToString());
      return false;
    }
    const Tally warm = w->Prisma(epoch++, CheckMode::kProbe, true);
    setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_steal.push_back(StealFrac(steal0, NowNs() - t0));
    note(warm);
    if (warm.samples == 0) {
      w->Teardown();
      fail("warm-up read nothing: " + warm.error);
      return false;
    }
    return true;
  };
  if (!timed_setup()) return r;
  // One PRISMA epoch and one direct pass, untimed, checked byte for byte.
  note(w->Prisma(epoch++, CheckMode::kFull, false));
  note(w->Baseline(epoch, CheckMode::kFull));

  // Untimed epochs until one is not stolen from, for at most
  // kCalmWaitSeconds: a run that starts inside another guest's burst then
  // still gets calm epochs to measure (CalmMedian).
  const CheckMode mode = o.trace ? CheckMode::kFull : CheckMode::kProbe;
  const std::int64_t wait0 = NowNs();
  for (;;) {
    const double steal0 = StealSeconds();
    const Tally t = w->Prisma(epoch++, mode, false);
    note(t);
    if (t.samples == 0 || StealFrac(steal0, t.wall_ns) <= kCalmSteal ||
        NowNs() - wait0 > static_cast<std::int64_t>(kCalmWaitSeconds * 1e9)) {
      break;
    }
  }
  const double calm_wait_s = static_cast<double>(NowNs() - wait0) / 1e9;

  // Measured loop: PRISMA epochs interleaved with baseline rounds, so both
  // see the same machine. Timed epochs check size plus a probe window; the
  // traced run checks every byte.
  const std::uint64_t first = epoch;
  const Counters c0 = w->Snapshot();
  const double loop_steal0 = StealSeconds();
  const std::int64_t loop0 = NowNs();
  std::vector<Tally> epochs;
  std::vector<double> baseline_rates;
  std::vector<double> lat_us;
  std::vector<double> epoch_p50;
  std::vector<double> epoch_p99;
  std::vector<double> epoch_steal;
  std::vector<double> epoch_hit_ratio;
  std::vector<double> epoch_client_us;
  std::vector<double> baseline_steal;
  std::uint64_t measured = 0;
  const std::int64_t deadline =
      NowNs() + static_cast<std::int64_t>(o.seconds * 1e9);
  while (NowNs() < deadline || measured < kMinMeasuredSamples ||
         epochs.size() < kMinMeasuredEpochs) {
    double steal0 = StealSeconds();
    const Counters before = w->Snapshot();
    Tally t = w->Prisma(epoch, mode, false);
    note(t);
    if (t.samples == 0) break;
    epoch_steal.push_back(StealFrac(steal0, t.wall_ns));
    const Counters after = w->Snapshot();
    const double hits = static_cast<double>(after.hits - before.hits);
    const double waits = static_cast<double>(after.waits - before.waits);
    epoch_hit_ratio.push_back(hits + waits > 0 ? hits / (hits + waits) : 0.0);
    epoch_client_us.push_back(static_cast<double>(t.client_cpu_ns) / 1e3 /
                              static_cast<double>(t.samples));
    measured += t.samples;
    epoch_p50.push_back(Percentile(t.lat_us, 50));
    epoch_p99.push_back(Percentile(t.lat_us, 99));
    lat_us.insert(lat_us.end(), t.lat_us.begin(), t.lat_us.end());
    t.lat_us.clear();
    epochs.push_back(std::move(t));
    steal0 = StealSeconds();
    const Tally b = w->Baseline(epoch, mode);
    note(b);
    baseline_rates.push_back(b.rate());
    baseline_steal.push_back(StealFrac(steal0, b.wall_ns));
    ++epoch;
  }
  const Counters c1 = w->Snapshot();
  const double steal_frac = StealFrac(loop_steal0, NowNs() - loop0);
  const std::uint64_t end = epoch;
  w->Teardown();  // joins the poller before its timings are read
  const std::string engine = w->engine();
  const std::size_t server_threads = w->server_threads();
  const std::vector<double> stats_us = w->stats_us();
  const std::vector<double> ping_us = w->ping_us();
  const double peak_rss_mb = PeakRssMb();
  for (int k = 1; k < kSetups; ++k) {
    if (!timed_setup()) return r;
    w->Teardown();
  }
  if (shim != nullptr && shim->reader_error()) fail("reader exited uncleanly");

  std::vector<double> rates;
  std::vector<double> cpu_us;
  for (const Tally& t : epochs) {
    rates.push_back(t.rate());
    cpu_us.push_back(static_cast<double>(t.cpu_ns) / 1e3 /
                     static_cast<double>(std::max<std::uint64_t>(t.samples, 1)));
  }
  const double failed_frac =
      r.attempted > 0 ? static_cast<double>(r.failed) / static_cast<double>(r.attempted)
                      : 1.0;
  auto& m = r.metrics;
  // Every figure is a median over passes: epochs, set-ups or baseline
  // rounds, the calm ones (CalmMedian). Latency percentiles are taken
  // per epoch (at least 2048 samples, so at least 20 beyond p99).
  m.emplace_back("samples_per_s", CalmMedian(rates, epoch_steal));
  m.emplace_back("read_p50_us", CalmMedian(epoch_p50, epoch_steal));
  m.emplace_back("read_p99_us", CalmMedian(epoch_p99, epoch_steal));
  m.emplace_back("cpu_us_per_sample", CalmMedian(cpu_us, epoch_steal));
  m.emplace_back("peak_rss_mb", peak_rss_mb);
  m.emplace_back("setup_s", CalmMedian(setup_s, setup_steal));
  m.emplace_back("baseline.direct_samples_per_s",
                 CalmMedian(baseline_rates, baseline_steal));
  if (o.trace) {
    std::vector<Span> spans;
    for (const Span& s : SpanLog::Collect()) {
      if (s.epoch >= first && s.epoch < end) spans.push_back(s);
    }
    if (!o.spans_out.empty() && !WriteSpans(o.spans_out, spans, *w)) {
      fail("cannot write " + o.spans_out);
    }
    AddLayerMetrics(r, std::move(spans), epochs, c0, c1, stats_us, ping_us,
                    failed_frac, server_threads > 0);
  }
  if (r.failed > 0 || measured < kMinMeasuredSamples) r.correct = false;
  if (!r.error.empty()) r.correct = false;

  const double tail = HighestSupportedPercentile(lat_us.size());
  r.meta_json = "{\"workload\": " + Quote(o.workload) +
                ", \"seed\": " + std::to_string(o.seed) +
                ", \"trace\": " + (o.trace ? "true" : "false") +
                ", \"nproc\": " + std::to_string(HardwareThreads()) +
                ", \"pinned_cpu\": " + std::to_string(pinned_cpu) +
                ", \"build_type\": " + Quote(PERFBENCH_BUILD_TYPE) +
                ", \"engine\": " + Quote(engine) +
                ", \"server_threads\": " + std::to_string(server_threads) +
                ", \"samples_measured\": " + std::to_string(measured) +
                ", \"epochs_measured\": " + std::to_string(epochs.size()) +
                ", \"failed_frac\": " + Num(failed_frac) +
                ", \"steal_frac\": " + Num(steal_frac) +
                ", \"calm_wait_s\": " + Num(calm_wait_s) +
                ", \"tail_percentile\": " + Num(tail) +
                ", \"read_tail_us\": " + Num(Percentile(lat_us, tail)) +
                ", \"runs\": {\"samples_per_s\": " + NumList(rates) +
                ", \"cpu_us_per_sample\": " + NumList(cpu_us) +
                ", \"read_p50_us\": " + NumList(epoch_p50) +
                ", \"read_p99_us\": " + NumList(epoch_p99) +
                ", \"steal_frac\": " + NumList(epoch_steal) +
                ", \"buffer.hit_ratio\": " + NumList(epoch_hit_ratio) +
                ", \"cpu.client_us_per_sample\": " + NumList(epoch_client_us) +
                ", \"setup_steal_frac\": " + NumList(setup_steal) +
                ", \"baseline_steal_frac\": " + NumList(baseline_steal) +
                ", \"setup_s\": " + NumList(setup_s) +
                ", \"baseline.direct_samples_per_s\": " +
                NumList(baseline_rates) + "}}";
  return r;
}

std::string ToJson(const Report& r) {
  std::string s = std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(r.attempted) +
                  ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    if (i > 0) s += ", ";
    s += Quote(r.metrics[i].first) + ": " + Num(r.metrics[i].second);
  }
  s += "}, \"meta\": " + (r.meta_json.empty() ? std::string("{}") : r.meta_json);
  if (!r.error.empty()) s += ", \"error\": " + Quote(r.error);
  return s + "}";
}

}  // namespace perfbench
