/**
 * @file
 * CUDA stream and event state.
 *
 * Streams are in-order queues of asynchronous operations; events are
 * the cross-stream synchronization primitive (cudaEventRecord /
 * cudaStreamWaitEvent).  The Runtime owns both and dispatches stream
 * ops itself: each runnable stream holds one pending dispatch of its
 * head op, and the Runtime runs the earliest one next.  This header
 * only holds the data types.
 */

#ifndef UVMD_CUDA_STREAM_HPP
#define UVMD_CUDA_STREAM_HPP

#include <cstdint>
#include <deque>
#include <vector>

#include "cuda/kernel.hpp"
#include "uvm/config.hpp"
#include "uvm/driver.hpp"

namespace uvmd::cuda {

using StreamId = int;
using EventHandle = int;

/** One queued asynchronous operation. */
struct StreamOp {
    enum class Type {
        kKernel,
        kPrefetch,
        kDiscard,
        kMemcpyH2D,
        kMemcpyD2H,
        kEventRecord,
        kEventWait,
    };

    Type type;

    /** Host time at which the op was enqueued; it cannot start
     *  earlier even if the stream is idle. */
    sim::SimTime issue_time = 0;

    // kKernel
    KernelDesc kernel;
    uvm::GpuId gpu = 0;

    // kPrefetch / kDiscard / kMemcpy*
    mem::VirtAddr addr = 0;
    sim::Bytes size = 0;
    uvm::ProcessorId dst;
    uvm::DiscardMode mode = uvm::DiscardMode::kEager;

    // kEventRecord / kEventWait
    EventHandle event = -1;
};

struct StreamState {
    std::deque<StreamOp> ops;

    /** Completion time of the last executed op. */
    sim::SimTime ready = 0;

    /** A dispatch of the head op is pending. */
    bool dispatch_scheduled = false;

    /** When the pending dispatch falls due, and its schedule order:
     *  pending dispatches run by (dispatch_at, dispatch_seq). */
    sim::SimTime dispatch_at = 0;
    std::uint64_t dispatch_seq = 0;

    /** The head op is an event-wait on an un-recorded event. */
    bool blocked = false;
};

/** The Runtime's dispatch clock. */
struct DispatchClock {
    /** Time of the latest dispatch, or of the latest host sync point
     *  if that is later. */
    sim::SimTime now = 0;

    /** Schedule order handed to the next pending dispatch. */
    std::uint64_t next_seq = 0;

    /** Head-op dispatches run so far, a wait that parks included (the
     *  numerator of the simulated-events/sec host-perf metric). */
    std::uint64_t dispatched = 0;

    std::uint64_t executed() const { return dispatched; }
};

struct EventState {
    bool recorded = false;
    sim::SimTime time = 0;
    std::vector<StreamId> waiters;
};

}  // namespace uvmd::cuda

#endif  // UVMD_CUDA_STREAM_HPP
