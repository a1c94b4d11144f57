#include "traced.hpp"

#include <utility>

namespace perfbench {

namespace {

thread_local bool t_backend_read = false;

/// Span of a call that completes on the calling thread.
class Scoped {
 public:
  Scoped(SpanKind kind, std::uint64_t epoch, std::uint32_t file,
         std::uint64_t offset)
      : id_(SpanLog::Begin(kind, epoch, file, offset, NowNs())) {}
  ~Scoped() { SpanLog::End(id_, NowNs()); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  std::uint64_t id_;
};

struct AsyncPayloadSpan {
  Span span;
  prisma::storage::StorageBackend::PayloadCallback cb;
};

void OnPayload(void* ctx, prisma::Result<prisma::SamplePayload> result) {
  std::unique_ptr<AsyncPayloadSpan> st(static_cast<AsyncPayloadSpan*>(ctx));
  st->span.end_ns = NowNs();
  SpanLog::Add(st->span);
  st->cb.fn(st->cb.ctx, std::move(result));
}

}  // namespace

bool TracedBackend::TakeReadFlag() {
  return std::exchange(t_backend_read, false);
}

prisma::Result<std::size_t> TracedBackend::Read(const std::string& path,
                                                std::uint64_t offset,
                                                std::span<std::byte> dst) {
  t_backend_read = true;
  Scoped span(SpanKind::kStorageRead, ctx_.epoch(), ctx_.FileId(path), offset);
  return inner_->Read(path, offset, dst);
}

prisma::Result<std::vector<std::byte>> TracedBackend::ReadAll(
    const std::string& path) {
  t_backend_read = true;
  Scoped span(SpanKind::kStorageRead, ctx_.epoch(), ctx_.FileId(path), 0);
  return inner_->ReadAll(path);
}

prisma::Result<prisma::SamplePayload> TracedBackend::ReadAllShared(
    const std::string& path, const std::shared_ptr<prisma::BufferPool>& pool) {
  Scoped span(SpanKind::kStorageRead, ctx_.epoch(), ctx_.FileId(path), 0);
  return inner_->ReadAllShared(path, pool);
}

void TracedBackend::ReadAllSharedAsync(
    const std::string& path, const std::shared_ptr<prisma::BufferPool>& pool,
    const AsyncIo& io, PayloadCallback cb) {
  auto* st = new AsyncPayloadSpan;
  st->span.kind = SpanKind::kStorageRead;
  st->span.epoch = ctx_.epoch();
  st->span.file = ctx_.FileId(path);
  st->span.start_ns = NowNs();
  st->cb = cb;
  inner_->ReadAllSharedAsync(path, pool, io, {&OnPayload, st});
}

prisma::Result<std::uint64_t> TracedBackend::FileSize(const std::string& path) {
  Scoped span(SpanKind::kStorageSize, ctx_.epoch(), ctx_.FileId(path), 0);
  return inner_->FileSize(path);
}

struct TracedObject::AsyncSpan {
  Span span;
  ReadRefWaiter waiter;
};

prisma::Result<std::size_t> TracedObject::Read(const std::string& path,
                                               std::uint64_t offset,
                                               std::span<std::byte> dst) {
  const std::uint64_t id = SpanLog::Begin(
      SpanKind::kStageRead, ctx_.epoch(), ctx_.FileId(path), offset, NowNs());
  TracedBackend::TakeReadFlag();
  auto n = inner_->Read(path, offset, dst);
  // PrefetchObject::Read serves a pass-through read with a backend Read
  // on this thread; a buffered read never calls one.
  SpanLog::End(id, NowNs(),
               TracedBackend::TakeReadFlag() ? SpanKind::kStagePassthrough
                                             : SpanKind::kStageRead);
  return n;
}

prisma::Result<prisma::dataplane::SampleView> TracedObject::ReadRef(
    const std::string& path, std::uint64_t offset, std::size_t max_bytes) {
  const std::uint64_t id = SpanLog::Begin(
      SpanKind::kStageRead, ctx_.epoch(), ctx_.FileId(path), offset, NowNs());
  auto view = inner_->ReadRef(path, offset, max_bytes);
  SpanLog::End(id, NowNs(),
               view.ok() ? SpanKind::kStageRead : SpanKind::kStageFallback);
  return view;
}

void TracedObject::ReadRefAsync(const std::string& path, std::uint64_t offset,
                                std::size_t max_bytes,
                                prisma::ThreadPool& offload,
                                ReadRefWaiter waiter) {
  auto* st = new AsyncSpan;
  st->span.epoch = ctx_.epoch();
  st->span.file = ctx_.FileId(path);
  st->span.offset = offset;
  st->span.start_ns = NowNs();
  st->waiter = waiter;
  inner_->ReadRefAsync(path, offset, max_bytes, offload, {&OnRef, st});
}

void TracedObject::OnRef(void* ctx,
                         prisma::Result<prisma::dataplane::SampleView> result) {
  std::unique_ptr<AsyncSpan> st(static_cast<AsyncSpan*>(ctx));
  st->span.end_ns = NowNs();
  st->span.kind =
      result.ok() ? SpanKind::kStageRead : SpanKind::kStageFallback;
  SpanLog::Add(st->span);
  st->waiter.fn(st->waiter.ctx, std::move(result));
}

prisma::Result<std::uint64_t> TracedObject::FileSize(const std::string& path) {
  Scoped span(SpanKind::kStageSize, ctx_.epoch(), ctx_.FileId(path), 0);
  return inner_->FileSize(path);
}

}  // namespace perfbench
