#include "cuda/runtime.hpp"

#include <algorithm>
#include <utility>

#include "sim/logging.hpp"

namespace uvmd::cuda {

Runtime::Runtime(const uvm::UvmConfig &cfg,
                 interconnect::LinkSpec link)
    : driver_(cfg, std::move(link))
{
    for (int i = 0; i < cfg.num_gpus; ++i) {
        compute_engines_.push_back(std::make_unique<sim::Resource>(
            "gpu" + std::to_string(i) + ".compute"));
    }
    streams_.emplace_back();  // stream 0, the default stream
}

Runtime::~Runtime() = default;

// ----------------------------------------------------------------
// Memory management
// ----------------------------------------------------------------

mem::VirtAddr
Runtime::mallocManaged(sim::Bytes size, std::string name)
{
    host_time_ += apiCost(ApiOp::kCudaMallocManaged, size);
    return driver_.allocManaged(size, std::move(name));
}

void
Runtime::freeManaged(mem::VirtAddr addr)
{
    // cudaFree of managed memory synchronizes with outstanding work.
    synchronize();
    host_time_ += apiCost(ApiOp::kCudaFreeManaged, 0);
    driver_.freeManaged(addr);
}

CudaError
Runtime::tryFreeManaged(mem::VirtAddr addr)
{
    synchronize();
    host_time_ += apiCost(ApiOp::kCudaFreeManaged, 0);
    return driver_.tryFreeManaged(addr) ? CudaError::kSuccess
                                        : CudaError::kErrorInvalidValue;
}

mem::VirtAddr
Runtime::mallocDevice(sim::Bytes size, std::string name,
                      uvm::GpuId gpu)
{
    host_time_ += apiCost(ApiOp::kCudaMalloc, size);
    // Explicit device buffers consume framebuffer capacity directly;
    // this is where the Listing-4 style fails on oversubscription.
    driver_.reserveGpuMemory(gpu, size);
    mem::VirtAddr addr = next_device_addr_;
    next_device_addr_ += mem::alignUp(size, mem::kBigPageSize) +
                         mem::kBigPageSize;
    device_buffers_.emplace(addr,
                            DeviceBuffer{size, gpu, std::move(name)});
    return addr;
}

CudaError
Runtime::tryMallocDevice(sim::Bytes size, std::string name,
                         mem::VirtAddr *out, uvm::GpuId gpu)
{
    host_time_ += apiCost(ApiOp::kCudaMalloc, size);
    if (!driver_.tryReserveGpuMemory(gpu, size))
        return CudaError::kErrorMemoryAllocation;
    mem::VirtAddr addr = next_device_addr_;
    next_device_addr_ += mem::alignUp(size, mem::kBigPageSize) +
                         mem::kBigPageSize;
    device_buffers_.emplace(addr,
                            DeviceBuffer{size, gpu, std::move(name)});
    if (out)
        *out = addr;
    return CudaError::kSuccess;
}

void
Runtime::freeDevice(mem::VirtAddr addr)
{
    auto it = device_buffers_.find(addr);
    if (it == device_buffers_.end())
        sim::fatal("freeDevice: unknown device pointer");
    host_time_ += apiCost(ApiOp::kCudaFree, it->second.size);
    driver_.unreserveGpuMemory(it->second.gpu, it->second.size);
    device_buffers_.erase(it);
}

CudaError
Runtime::tryFreeDevice(mem::VirtAddr addr)
{
    auto it = device_buffers_.find(addr);
    if (it == device_buffers_.end())
        return CudaError::kErrorInvalidValue;
    host_time_ += apiCost(ApiOp::kCudaFree, it->second.size);
    driver_.unreserveGpuMemory(it->second.gpu, it->second.size);
    device_buffers_.erase(it);
    return CudaError::kSuccess;
}

// ----------------------------------------------------------------
// Stream ops
// ----------------------------------------------------------------

StreamId
Runtime::createStream()
{
    streams_.emplace_back();
    return static_cast<StreamId>(streams_.size()) - 1;
}

void
Runtime::enqueue(StreamId stream, StreamOp op)
{
    if (stream < 0 || stream >= static_cast<StreamId>(streams_.size()))
        sim::fatal("enqueue: unknown stream");
    op.issue_time = host_time_;
    streams_[stream].ops.push_back(std::move(op));
    pump(stream);
}

bool
Runtime::validManagedSpan(mem::VirtAddr addr, sim::Bytes size)
{
    uvm::VaRange *range = driver_.vaSpace().rangeOf(addr);
    return range && addr + size <= range->base + range->size;
}

CudaError
Runtime::prefetchAsync(mem::VirtAddr addr, sim::Bytes size,
                       uvm::ProcessorId dst, StreamId stream)
{
    // The issue cost is paid even when validation rejects the call:
    // the API crossing happens either way.
    host_time_ += apiCost(ApiOp::kApiIssue, size);
    if (!validManagedSpan(addr, size) || stream < 0 ||
        stream >= static_cast<StreamId>(streams_.size()))
        return CudaError::kErrorInvalidValue;
    StreamOp op;
    op.type = StreamOp::Type::kPrefetch;
    op.addr = addr;
    op.size = size;
    op.dst = dst;
    enqueue(stream, std::move(op));
    return CudaError::kSuccess;
}

void
Runtime::memAdvise(mem::VirtAddr addr, sim::Bytes size,
                   uvm::MemAdvise advice, uvm::GpuId gpu)
{
    host_time_ += apiCost(ApiOp::kApiIssue, size);
    runUntil(host_time_);
    driver_.memAdvise(addr, size, advice, gpu);
}

CudaError
Runtime::discardAsync(mem::VirtAddr addr, sim::Bytes size,
                      uvm::DiscardMode mode, StreamId stream)
{
    host_time_ += apiCost(ApiOp::kApiIssue, size);
    if (!validManagedSpan(addr, size) || stream < 0 ||
        stream >= static_cast<StreamId>(streams_.size()))
        return CudaError::kErrorInvalidValue;
    StreamOp op;
    op.type = StreamOp::Type::kDiscard;
    op.addr = addr;
    op.size = size;
    op.mode = mode;
    enqueue(stream, std::move(op));
    return CudaError::kSuccess;
}

void
Runtime::launch(KernelDesc kernel, StreamId stream, uvm::GpuId gpu)
{
    host_time_ += apiCost(ApiOp::kLaunch, 0);
    StreamOp op;
    op.type = StreamOp::Type::kKernel;
    op.kernel = std::move(kernel);
    op.gpu = gpu;
    enqueue(stream, std::move(op));
}

void
Runtime::memcpyAsync(mem::VirtAddr device_addr, sim::Bytes size,
                     bool to_device, StreamId stream, uvm::GpuId gpu)
{
    if (!device_buffers_.count(device_addr))
        sim::fatal("memcpyAsync: unknown device pointer");
    host_time_ += apiCost(ApiOp::kApiIssue, size);
    StreamOp op;
    op.type = to_device ? StreamOp::Type::kMemcpyH2D
                        : StreamOp::Type::kMemcpyD2H;
    op.addr = device_addr;
    op.size = size;
    op.gpu = gpu;
    enqueue(stream, std::move(op));
}

EventHandle
Runtime::recordEvent(StreamId stream)
{
    host_time_ += apiCost(ApiOp::kApiIssue, 0);
    events_.emplace_back();
    EventHandle handle = static_cast<EventHandle>(events_.size()) - 1;
    StreamOp op;
    op.type = StreamOp::Type::kEventRecord;
    op.event = handle;
    enqueue(stream, std::move(op));
    return handle;
}

void
Runtime::streamWaitEvent(StreamId stream, EventHandle event)
{
    if (event < 0 || event >= static_cast<EventHandle>(events_.size()))
        sim::fatal("streamWaitEvent: unknown event");
    host_time_ += apiCost(ApiOp::kApiIssue, 0);
    StreamOp op;
    op.type = StreamOp::Type::kEventWait;
    op.event = event;
    enqueue(stream, std::move(op));
}

// ----------------------------------------------------------------
// Dispatch machinery
// ----------------------------------------------------------------

void
Runtime::pump(StreamId id)
{
    StreamState &s = streams_[id];
    if (s.dispatch_scheduled || s.blocked || s.ops.empty())
        return;
    s.dispatch_scheduled = true;
    s.dispatch_at = std::max({s.ready, s.ops.front().issue_time,
                              clock_.now});
    s.dispatch_seq = clock_.next_seq++;
}

bool
Runtime::step(sim::SimTime deadline)
{
    // Each stream holds at most one pending dispatch, so a scan over
    // the streams is the whole scheduler.
    auto key = [](const StreamState &s) {
        return std::pair(s.dispatch_at, s.dispatch_seq);
    };
    StreamId next = -1;
    for (StreamId id = 0; id < static_cast<StreamId>(streams_.size());
         ++id) {
        const StreamState &s = streams_[id];
        if (s.dispatch_scheduled &&
            (next < 0 || key(s) < key(streams_[next])))
            next = id;
    }
    if (next < 0 || streams_[next].dispatch_at > deadline)
        return false;
    clock_.now = streams_[next].dispatch_at;
    ++clock_.dispatched;
    executeHead(next);
    return true;
}

void
Runtime::runUntil(sim::SimTime t)
{
    while (step(t)) {
    }
    clock_.now = std::max(clock_.now, t);
}

void
Runtime::executeHead(StreamId id)
{
    StreamState &s = streams_[id];
    s.dispatch_scheduled = false;
    if (s.ops.empty())
        return;

    StreamOp &head = s.ops.front();
    if (head.type == StreamOp::Type::kEventWait) {
        EventState &ev = events_[head.event];
        if (!ev.recorded) {
            // Park the stream; the record will wake it.
            s.blocked = true;
            ev.waiters.push_back(id);
            return;
        }
    }

    StreamOp op = std::move(head);
    s.ops.pop_front();
    s.ready = executeOp(op, clock_.now);
    pump(id);
}

sim::SimTime
Runtime::executeOp(StreamOp &op, sim::SimTime t0)
{
    switch (op.type) {
      case StreamOp::Type::kKernel: {
        sim::SimTime mem_done;
        try {
            mem_done = driver_.gpuAccess(op.gpu, op.kernel.accesses, t0);
        } catch (const uvm::GpuOomError &) {
            // Asynchronous failure: the launch already returned, so
            // the error becomes sticky, like cudaGetLastError.
            last_error_ = CudaError::kErrorMemoryAllocation;
            return t0;
        }
        sim::SimTime compute_done =
            compute_engines_[op.gpu]->reserve(t0, op.kernel.compute);
        if (op.kernel.body)
            op.kernel.body(driver_);
        return std::max(mem_done, compute_done);
      }
      case StreamOp::Type::kPrefetch:
        try {
            return driver_.prefetch(op.addr, op.size, op.dst, t0);
        } catch (const uvm::GpuOomError &) {
            last_error_ = CudaError::kErrorMemoryAllocation;
            return t0;
        }
      case StreamOp::Type::kDiscard:
        return driver_.discard(op.addr, op.size, op.mode,
                               t0 + apiCost(ApiOp::kDiscardEntry,
                                            op.size));
      case StreamOp::Type::kMemcpyH2D:
        return driver_.transferEngine().rawTransfer(
            op.gpu, op.size, interconnect::Direction::kHostToDevice,
            t0);
      case StreamOp::Type::kMemcpyD2H:
        return driver_.transferEngine().rawTransfer(
            op.gpu, op.size, interconnect::Direction::kDeviceToHost,
            t0);
      case StreamOp::Type::kEventRecord: {
        EventState &ev = events_[op.event];
        ev.recorded = true;
        ev.time = t0;
        for (StreamId waiter : ev.waiters) {
            streams_[waiter].blocked = false;
            pump(waiter);
        }
        ev.waiters.clear();
        return t0;
      }
      case StreamOp::Type::kEventWait: {
        const EventState &ev = events_[op.event];
        return std::max(t0, ev.time);
      }
    }
    sim::panic("executeOp: bad op type");
}

// ----------------------------------------------------------------
// Synchronization and host execution
// ----------------------------------------------------------------

void
Runtime::synchronize()
{
    while (step(sim::kTimeNever)) {
    }
    sim::SimTime done = host_time_;
    for (const StreamState &s : streams_) {
        if (!s.ops.empty())
            sim::panic("synchronize: stream still has queued ops "
                       "(waiting on an event that is never recorded?)");
        done = std::max(done, s.ready);
    }
    host_time_ = std::max(done, clock_.now);
}

void
Runtime::streamSynchronize(StreamId stream)
{
    StreamState &s = streams_[stream];
    while (!s.ops.empty() || s.dispatch_scheduled) {
        if (!step(sim::kTimeNever))
            sim::panic("streamSynchronize: stream stuck (event never "
                       "recorded?)");
    }
    host_time_ = std::max(host_time_, s.ready);
}

void
Runtime::hostTouch(mem::VirtAddr addr, sim::Bytes size,
                   uvm::AccessKind kind)
{
    // Order the host access after everything already dispatched up to
    // the host's current time.
    runUntil(host_time_);
    host_time_ = driver_.hostAccess(addr, size, kind, host_time_);
}

void
Runtime::hostWrite(mem::VirtAddr addr, const void *data,
                   std::size_t len)
{
    hostTouch(addr, len, uvm::AccessKind::kWrite);
    driver_.poke(addr, data, len);
}

void
Runtime::hostRead(mem::VirtAddr addr, void *out, std::size_t len)
{
    hostTouch(addr, len, uvm::AccessKind::kRead);
    driver_.peek(addr, out, len);
}

}  // namespace uvmd::cuda
