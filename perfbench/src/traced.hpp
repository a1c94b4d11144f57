// Bench-owned decorators that time calls into the storage and dataplane
// modules in a traced run. Each forwards every virtual of its interface to
// the object it wraps, so the traced run executes the same paths as the
// untraced one; the untraced run does not install them at all.
#pragma once

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "dataplane/optimization_object.hpp"
#include "storage/backend.hpp"
#include "trace.hpp"

namespace perfbench {

/// What the decorators need to stamp span ids: the file table and the
/// epoch the stage was last told about.
class TraceContext {
 public:
  explicit TraceContext(const FileTable& files) : files_(files) {}
  std::uint32_t FileId(const std::string& path) const { return files_.Id(path); }
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_acquire); }
  void set_epoch(std::uint64_t epoch) {
    epoch_.store(epoch, std::memory_order_release);
  }

 private:
  const FileTable& files_;
  std::atomic<std::uint64_t> epoch_{0};
};

/// Times each backend call as a storage span.
class TracedBackend final : public prisma::storage::StorageBackend {
 public:
  TracedBackend(std::shared_ptr<prisma::storage::StorageBackend> inner,
                const TraceContext& ctx)
      : inner_(std::move(inner)), ctx_(ctx) {}

  prisma::Result<std::size_t> Read(const std::string& path,
                                   std::uint64_t offset,
                                   std::span<std::byte> dst) override;
  prisma::Result<std::vector<std::byte>> ReadAll(const std::string& path) override;
  prisma::Result<prisma::SamplePayload> ReadAllShared(
      const std::string& path,
      const std::shared_ptr<prisma::BufferPool>& pool) override;
  void ReadAllSharedAsync(const std::string& path,
                          const std::shared_ptr<prisma::BufferPool>& pool,
                          const AsyncIo& io, PayloadCallback cb) override;
  prisma::Status Write(const std::string& path,
                       std::span<const std::byte> data) override {
    return inner_->Write(path, data);
  }
  prisma::Status Remove(const std::string& path) override {
    return inner_->Remove(path);
  }
  prisma::Result<std::uint64_t> FileSize(const std::string& path) override;
  prisma::storage::BackendStats Stats() const override { return inner_->Stats(); }

  /// True when the calling thread issued a backend Read since the last
  /// call (how TracedObject tells a pass-through read from a buffered one).
  static bool TakeReadFlag();

 private:
  std::shared_ptr<prisma::storage::StorageBackend> inner_;
  const TraceContext& ctx_;
};

/// Outermost object of the traced stage: forwards to the PrefetchObject
/// and times every read and metadata call as a stage span. An async read
/// is timed from the call to its waiter.
class TracedObject final : public prisma::dataplane::OptimizationObject {
 public:
  TracedObject(std::shared_ptr<prisma::dataplane::OptimizationObject> inner,
               TraceContext& ctx)
      : inner_(std::move(inner)), ctx_(ctx) {}

  std::string_view Name() const override { return inner_->Name(); }
  prisma::Status Start() override { return inner_->Start(); }
  void Stop() override { inner_->Stop(); }
  prisma::Result<std::size_t> Read(const std::string& path,
                                   std::uint64_t offset,
                                   std::span<std::byte> dst) override;
  prisma::Result<prisma::dataplane::SampleView> ReadRef(
      const std::string& path, std::uint64_t offset,
      std::size_t max_bytes) override;
  void ReadRefAsync(const std::string& path, std::uint64_t offset,
                    std::size_t max_bytes, prisma::ThreadPool& offload,
                    ReadRefWaiter waiter) override;
  prisma::Result<std::uint64_t> FileSize(const std::string& path) override;
  prisma::Status BeginEpoch(std::uint64_t epoch,
                            const std::vector<std::string>& order) override {
    ctx_.set_epoch(epoch);
    return inner_->BeginEpoch(epoch, order);
  }
  prisma::Status ApplyKnobs(const prisma::dataplane::StageKnobs& knobs) override {
    return inner_->ApplyKnobs(knobs);
  }
  prisma::dataplane::StageStatsSnapshot CollectStats() const override {
    return inner_->CollectStats();
  }
  prisma::Status ApplyNamedKnob(std::string_view knob, double value) override {
    return inner_->ApplyNamedKnob(knob, value);
  }
  void AppendNamedStats(
      prisma::dataplane::ObjectStatsSection& section) const override {
    inner_->AppendNamedStats(section);
  }

 private:
  struct AsyncSpan;
  static void OnRef(void* ctx,
                    prisma::Result<prisma::dataplane::SampleView> result);

  std::shared_ptr<prisma::dataplane::OptimizationObject> inner_;
  TraceContext& ctx_;
};

}  // namespace perfbench
