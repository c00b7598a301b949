/**
 * @file
 * Runtime — the CUDA-like programming interface of the simulation.
 *
 * Applications use this class the way a CUDA UVM program uses the
 * CUDA runtime (paper Listings 2/3/6): allocate managed memory,
 * enqueue prefetches / discards / kernels on streams, synchronize,
 * and touch memory from the host.  The legacy explicit path
 * (cudaMalloc / cudaMemcpyAsync, Listing 1/4/5) is provided for the
 * No-UVM and manual-swap baselines.
 *
 * Time model: the host thread has its own timeline (API calls cost
 * host time per the Table-2 model); each stream executes its ops in
 * order, and each op reserves spans on the relevant engine timelines
 * (GPU compute, per-direction DMA).  Ops on different streams
 * therefore overlap exactly where the hardware would allow it.  The
 * Runtime dispatches head ops itself: a scan over the streams picks
 * the earliest pending dispatch, ties broken in schedule order.
 */

#ifndef UVMD_CUDA_RUNTIME_HPP
#define UVMD_CUDA_RUNTIME_HPP

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "cuda/api_cost.hpp"
#include "cuda/error.hpp"
#include "cuda/stream.hpp"
#include "interconnect/link.hpp"
#include "sim/resource.hpp"
#include "uvm/driver.hpp"

namespace uvmd::cuda {

class Runtime
{
  public:
    Runtime(const uvm::UvmConfig &cfg, interconnect::LinkSpec link);
    ~Runtime();

    Runtime(const Runtime &) = delete;
    Runtime &operator=(const Runtime &) = delete;

    // ------------------------------------------------------------
    // Memory management
    // ------------------------------------------------------------

    /** cudaMallocManaged. */
    mem::VirtAddr mallocManaged(sim::Bytes size, std::string name);

    /** cudaFree of a managed pointer. */
    void freeManaged(mem::VirtAddr addr);

    /** Like freeManaged(), but a bad pointer (unknown range or a
     *  double free) returns kErrorInvalidValue instead of dying. */
    CudaError tryFreeManaged(mem::VirtAddr addr);

    /** cudaMalloc: an explicit device buffer (No-UVM path).  Fails
     *  fatally when the device is out of memory — the Listing-4
     *  failure mode. */
    mem::VirtAddr mallocDevice(sim::Bytes size, std::string name,
                               uvm::GpuId gpu = 0);

    /** Like mallocDevice(), but an out-of-memory device returns
     *  kErrorMemoryAllocation (with @p out untouched) instead of
     *  dying — the checked Listing-4 variant. */
    CudaError tryMallocDevice(sim::Bytes size, std::string name,
                              mem::VirtAddr *out, uvm::GpuId gpu = 0);

    /** cudaFree of a device pointer. */
    void freeDevice(mem::VirtAddr addr);

    /** Like freeDevice(), but an unknown pointer (or double free)
     *  returns kErrorInvalidValue instead of dying. */
    CudaError tryFreeDevice(mem::VirtAddr addr);

    // ------------------------------------------------------------
    // Asynchronous stream operations
    // ------------------------------------------------------------

    /** Create an additional stream (stream 0 always exists). */
    StreamId createStream();

    /** cudaMemPrefetchAsync.  @return kErrorInvalidValue (without
     *  enqueuing) when [addr, addr+size) is not within one managed
     *  range or the stream is unknown. */
    CudaError prefetchAsync(mem::VirtAddr addr, sim::Bytes size,
                            uvm::ProcessorId dst, StreamId stream = 0);

    /** cudaMemAdvise (synchronous hint; see uvm::MemAdvise). */
    void memAdvise(mem::VirtAddr addr, sim::Bytes size,
                   uvm::MemAdvise advice, uvm::GpuId gpu = 0);

    /** UvmDiscardAsync / UvmDiscardLazyAsync (paper Section 4).
     *  Same validation contract as prefetchAsync. */
    CudaError discardAsync(mem::VirtAddr addr, sim::Bytes size,
                           uvm::DiscardMode mode, StreamId stream = 0);

    /** Kernel launch. */
    void launch(KernelDesc kernel, StreamId stream = 0,
                uvm::GpuId gpu = 0);

    /** cudaMemcpyAsync between a host span and an explicit device
     *  buffer (No-UVM path); @p to_device picks the direction. */
    void memcpyAsync(mem::VirtAddr device_addr, sim::Bytes size,
                     bool to_device, StreamId stream = 0,
                     uvm::GpuId gpu = 0);

    /** cudaEventRecord. @return a handle for streamWaitEvent. */
    EventHandle recordEvent(StreamId stream);

    /** cudaStreamWaitEvent. */
    void streamWaitEvent(StreamId stream, EventHandle event);

    // ------------------------------------------------------------
    // Synchronization
    // ------------------------------------------------------------

    /** cudaDeviceSynchronize: drain all streams. */
    void synchronize();

    /** cudaStreamSynchronize. */
    void streamSynchronize(StreamId stream);

    // ------------------------------------------------------------
    // Host-side execution
    // ------------------------------------------------------------

    /** Synchronous host touch of managed memory (faults + migrates
     *  as needed) — a host loop reading/writing the buffer. */
    void hostTouch(mem::VirtAddr addr, sim::Bytes size,
                   uvm::AccessKind kind);

    /** Pure host computation time (e.g. batch generation). */
    void hostCompute(sim::SimDuration d) { host_time_ += d; }

    /** hostTouch(write) + real data write (backed mode). */
    void hostWrite(mem::VirtAddr addr, const void *data,
                   std::size_t len);

    /** hostTouch(read) + real data read. */
    void hostRead(mem::VirtAddr addr, void *out, std::size_t len);

    template <typename T>
    void
    hostWriteValue(mem::VirtAddr addr, const T &v)
    {
        hostWrite(addr, &v, sizeof(T));
    }

    template <typename T>
    T
    hostReadValue(mem::VirtAddr addr)
    {
        T v{};
        hostRead(addr, &v, sizeof(T));
        return v;
    }

    // ------------------------------------------------------------
    // Introspection
    // ------------------------------------------------------------

    uvm::UvmDriver &driver() { return driver_; }

    /** The dispatch clock; its executed() count feeds the host-perf
     *  simulated-events/sec figure.  (Named for the event queue it
     *  replaced, which benchmark harnesses still read it as.) */
    const DispatchClock &eventQueue() const { return clock_; }

    /** Sticky error from asynchronously-executed work (e.g. a kernel
     *  that hit true memory exhaustion), like cudaPeekAtLastError. */
    CudaError lastError() const { return last_error_; }

    /** Read and clear the sticky error (cudaGetLastError). */
    CudaError
    getLastError()
    {
        CudaError err = last_error_;
        last_error_ = CudaError::kSuccess;
        return err;
    }

    /** Host-thread wall clock (== total elapsed after synchronize). */
    sim::SimTime now() const { return host_time_; }

    sim::Resource &computeEngine(uvm::GpuId gpu = 0)
    {
        return *compute_engines_[gpu];
    }

  private:
    /** Is [addr, addr+size) contained in one managed range? */
    bool validManagedSpan(mem::VirtAddr addr, sim::Bytes size);

    void enqueue(StreamId stream, StreamOp op);

    /** Schedule a dispatch for @p stream if it has runnable work. */
    void pump(StreamId stream);

    /** Run the earliest pending dispatch if it is due by @p deadline.
     *  @return true if one ran. */
    bool step(sim::SimTime deadline);

    /** Run every dispatch due by @p t, then advance the clock to @p t. */
    void runUntil(sim::SimTime t);

    /** Execute the head op of @p stream at the current clock time. */
    void executeHead(StreamId stream);

    sim::SimTime executeOp(StreamOp &op, sim::SimTime t0);

    uvm::UvmDriver driver_;
    DispatchClock clock_;
    std::vector<std::unique_ptr<sim::Resource>> compute_engines_;

    sim::SimTime host_time_ = 0;
    CudaError last_error_ = CudaError::kSuccess;
    std::vector<StreamState> streams_;
    std::vector<EventState> events_;

    struct DeviceBuffer {
        sim::Bytes size;
        uvm::GpuId gpu;
        std::string name;
    };
    std::unordered_map<mem::VirtAddr, DeviceBuffer> device_buffers_;
    mem::VirtAddr next_device_addr_ = mem::VirtAddr{1} << 50;
};

}  // namespace uvmd::cuda

#endif  // UVMD_CUDA_RUNTIME_HPP
