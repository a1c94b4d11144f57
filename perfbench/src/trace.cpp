#include "trace.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <mutex>

#include "common/rng.hpp"

namespace perfbench {

namespace {

std::int64_t ToNs(const timespec& ts) {
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

std::int64_t ToNs(const timeval& tv) {
  return static_cast<std::int64_t>(tv.tv_sec) * 1'000'000'000 +
         static_cast<std::int64_t>(tv.tv_usec) * 1000;
}

std::atomic<bool> g_enabled{false};
std::atomic<std::uint64_t> g_next_id{1};

struct ThreadSpans {
  std::vector<Span> done;
  std::vector<Span> open;  // stack: the innermost open span is the parent
};

std::mutex g_threads_mu;
// Buffers outlive their threads, so Collect sees spans of exited threads.
std::vector<std::unique_ptr<ThreadSpans>> g_threads;

ThreadSpans& Local() {
  thread_local ThreadSpans* local = [] {
    auto owned = std::make_unique<ThreadSpans>();
    owned->done.reserve(1 << 14);
    ThreadSpans* raw = owned.get();
    std::lock_guard<std::mutex> lock(g_threads_mu);
    g_threads.push_back(std::move(owned));
    return raw;
  }();
  return *local;
}

}  // namespace

std::int64_t NowNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return ToNs(ts);
}

std::int64_t ThreadCpuNs() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ToNs(ts);
}

std::int64_t ProcessCpuNs() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ToNs(ru.ru_utime) + ToNs(ru.ru_stime);
}

double PeakRssMb() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

const char* SpanName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kSample: return "sample";
    case SpanKind::kStorageRead: return "storage.read";
    case SpanKind::kStorageSize: return "storage.file_size";
    case SpanKind::kStageRead: return "stage.read";
    case SpanKind::kStagePassthrough: return "stage.passthrough";
    case SpanKind::kStageFallback: return "stage.fallback";
    case SpanKind::kStageSize: return "stage.file_size";
    case SpanKind::kShimOpen: return "shim.open";
    case SpanKind::kShimFstat: return "shim.fstat";
    case SpanKind::kShimRead: return "shim.read";
    case SpanKind::kShimClose: return "shim.close";
    case SpanKind::kCount: break;
  }
  return "unknown";
}

void SpanLog::Enable() { g_enabled.store(true, std::memory_order_release); }

bool SpanLog::Enabled() { return g_enabled.load(std::memory_order_relaxed); }

std::uint64_t SpanLog::Begin(SpanKind kind, std::uint64_t epoch,
                             std::uint32_t file, std::uint64_t offset,
                             std::int64_t start_ns) {
  if (!Enabled()) return 0;
  ThreadSpans& t = Local();
  Span s;
  s.kind = kind;
  s.file = file;
  s.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  s.parent = t.open.empty() ? 0 : t.open.back().id;
  s.epoch = epoch;
  s.offset = offset;
  s.start_ns = start_ns;
  t.open.push_back(s);
  return s.id;
}

void SpanLog::End(std::uint64_t id, std::int64_t end_ns, SpanKind kind) {
  if (id == 0) return;
  ThreadSpans& t = Local();
  for (auto it = t.open.rbegin(); it != t.open.rend(); ++it) {
    if (it->id != id) continue;
    it->end_ns = end_ns;
    if (kind != SpanKind::kCount) it->kind = kind;
    t.done.push_back(*it);
    t.open.erase(std::next(it).base());
    return;
  }
}

void SpanLog::Add(const Span& span) {
  if (!Enabled()) return;
  Span s = span;
  if (s.id == 0) s.id = g_next_id.fetch_add(1, std::memory_order_relaxed);
  Local().done.push_back(s);
}

std::vector<Span> SpanLog::Collect() {
  std::lock_guard<std::mutex> lock(g_threads_mu);
  std::vector<Span> all;
  for (const auto& t : g_threads) {
    all.insert(all.end(), t->done.begin(), t->done.end());
  }
  return all;
}

bool SpanLog::Save(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      std::fwrite(spans.data(), sizeof(Span), spans.size(), f) == spans.size();
  return std::fclose(f) == 0 && ok;
}

std::vector<Span> SpanLog::Load(const std::string& path) {
  std::vector<Span> spans;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return spans;
  Span s;
  while (std::fread(&s, sizeof(Span), 1, f) == 1) spans.push_back(s);
  std::fclose(f);
  return spans;
}

Fleet::Fleet(int threads) {
  for (int w = 0; w < threads; ++w) threads_.emplace_back([this, w] { Loop(w); });
}

Fleet::~Fleet() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

std::int64_t Fleet::Run(const std::function<void(int)>& body) {
  std::unique_lock<std::mutex> lock(mu_);
  body_ = &body;
  pending_ = size();
  cpu_ns_ = 0;
  ++generation_;
  cv_.notify_all();
  cv_.wait(lock, [this] { return pending_ == 0; });
  body_ = nullptr;
  return cpu_ns_;
}

void Fleet::Loop(int worker) {
  std::uint64_t seen = 0;
  for (;;) {
    const std::function<void(int)>* body = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
      body = body_;
    }
    const std::int64_t cpu0 = ThreadCpuNs();
    (*body)(worker);
    const std::int64_t cpu = ThreadCpuNs() - cpu0;
    std::lock_guard<std::mutex> lock(mu_);
    cpu_ns_ += cpu;
    if (--pending_ == 0) cv_.notify_all();
  }
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 50.0); }

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const std::size_t idx = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  const auto nth = v.begin() + static_cast<std::ptrdiff_t>(
                                   std::min(idx, v.size() - 1));
  std::nth_element(v.begin(), nth, v.end());
  return *nth;
}

double HighestSupportedPercentile(std::size_t n, std::size_t beyond) {
  double best = 0.0;
  double tail = 0.5;  // share of the sample above the percentile
  for (int i = 0; i < 12; ++i) {
    // Samples strictly above the nearest-rank percentile: n - ceil(p*n).
    const auto at = static_cast<std::size_t>(
        std::ceil((1.0 - tail) * static_cast<double>(n) - 1e-9));
    if (n < at || n - at < beyond) break;
    best = 100.0 * (1.0 - tail);
    tail = i == 0 ? 0.1 : tail / 10.0;
  }
  return best;
}

std::int64_t SelfTimeNs(
    std::int64_t start_ns, std::int64_t end_ns,
    std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  for (auto& c : children) {
    c.first = std::max(c.first, start_ns);
    c.second = std::min(c.second, end_ns);
  }
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t reach = start_ns;  // end of the union so far
  for (const auto& [s, e] : children) {
    if (e <= s) continue;
    const std::int64_t from = std::max(s, reach);
    if (e > from) {
      covered += e - from;
      reach = e;
    }
  }
  return (end_ns - start_ns) - covered;
}

prisma::storage::ImageNetDataset MakeDataset(std::size_t num_train,
                                             std::size_t num_validation,
                                             std::uint64_t seed) {
  prisma::storage::SyntheticImageNetSpec spec;
  spec.num_train = num_train;
  spec.num_validation = num_validation;
  spec.seed = seed;
  return prisma::storage::MakeSyntheticImageNet(spec);
}

FileTable::FileTable(const prisma::storage::ImageNetDataset& ds) {
  for (const auto* split : {&ds.train, &ds.validation}) {
    for (const auto& f : split->files()) {
      ids_.emplace(f.name, static_cast<std::uint32_t>(names_.size()));
      names_.push_back(f.name);
      sizes_.push_back(f.size);
    }
  }
}

std::uint32_t FileTable::Id(const std::string& name) const {
  const auto it = ids_.find(name);
  return it == ids_.end() ? kNoFile : it->second;
}

bool CheckSample(const std::string& name, std::uint64_t size,
                 std::span<const std::byte> got, CheckMode mode,
                 std::uint64_t seed, std::vector<std::byte>& scratch) {
  if (got.size() != size) return false;
  if (size == 0) return true;
  std::uint64_t offset = 0;
  std::size_t len = static_cast<std::size_t>(size);
  if (mode == CheckMode::kProbe) {
    constexpr std::size_t kWindow = 64;
    len = std::min<std::size_t>(kWindow, len);
    std::uint64_t h = seed;
    for (const char c : name) h = h * 0x100000001b3ull ^ static_cast<unsigned char>(c);
    offset = prisma::SplitMix64(h).Next() % (size - len + 1);
  }
  if (scratch.size() < len) scratch.resize(len);
  const std::span<std::byte> want(scratch.data(), len);
  prisma::storage::SyntheticContent::Fill(name, offset, want);
  return std::memcmp(want.data(), got.data() + offset, len) == 0;
}

}  // namespace perfbench
