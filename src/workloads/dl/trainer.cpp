#include "workloads/dl/trainer.hpp"

#include <map>
#include <vector>

#include "sim/logging.hpp"

namespace uvmd::workloads::dl {

using cuda::KernelDesc;
using cuda::Runtime;
using uvm::AccessKind;
using uvm::ProcessorId;

namespace {

/** Host-side batch generation time (excluded pre-processing is
 *  modelled as zero; this is the in-loop part). */
constexpr sim::SimDuration kHostGenTime = sim::microseconds(200);

/** Buffers and per-batch loops shared by the training policies. */
class TrainerBase
{
  public:
    TrainerBase(Runtime &rt, const TrainParams &p) : rt_(rt), p_(p) {}
    virtual ~TrainerBase() = default;

    virtual void setup() = 0;
    virtual void runBatch() = 0;

  protected:
    Runtime &rt_;
    const TrainParams &p_;

    std::size_t layerCount() const { return p_.net.layers.size(); }
    sim::Bytes dataBytes() const
    {
        return static_cast<sim::Bytes>(p_.net.data_bytes_per_sample) *
               p_.batch_size;
    }
    sim::Bytes labelBytes() const
    {
        return static_cast<sim::Bytes>(4096) * p_.batch_size;
    }
};

/**
 * The Listing-6 UVM trainer, with optional discard.  All buffers are
 * managed; prefetches precede every kernel (the UVM-opt optimization)
 * and double as the mandatory lazy re-arm.
 */
class UvmTrainer : public TrainerBase
{
  public:
    UvmTrainer(Runtime &rt, const TrainParams &p, System sys)
        : TrainerBase(rt, p), sys_(sys)
    {}

    void
    setup() override
    {
        const NetSpec &net = p_.net;
        std::size_t n = layerCount();
        data_ = rt_.mallocManaged(dataBytes(), "dl.data");
        labels_ = rt_.mallocManaged(labelBytes(), "dl.labels");
        workspace_ =
            rt_.mallocManaged(net.workspace_bytes, "dl.workspace");
        loss_ = rt_.mallocManaged(4096, "dl.loss");
        for (std::size_t i = 0; i < n; ++i) {
            weights_.push_back(rt_.mallocManaged(
                net.layerWeightBytes(i), "dl.w" + std::to_string(i)));
            outputs_.push_back(rt_.mallocManaged(
                net.layerActBytes(i, p_.batch_size),
                "dl.out" + std::to_string(i)));
            deltas_.push_back(rt_.mallocManaged(
                net.layerActBytes(i, p_.batch_size),
                "dl.delta" + std::to_string(i)));
        }
        // Initialize weights on the GPU (random init kernel).
        for (std::size_t i = 0; i < n; ++i) {
            KernelDesc init;
            init.name = "dl.init" + std::to_string(i);
            init.accesses = {{weights_[i], net.layerWeightBytes(i),
                              AccessKind::kWrite}};
            init.compute = sim::microseconds(20);
            rt_.launch(init);
        }
        rt_.synchronize();
    }

    void
    runBatch() override
    {
        const NetSpec &net = p_.net;
        std::size_t n = layerCount();

        // Host generates the batch (after the previous batch's
        // discard of the data buffer, the host write repopulates it).
        rt_.hostCompute(kHostGenTime);
        rt_.hostTouch(data_, dataBytes(), AccessKind::kWrite);
        rt_.hostTouch(labels_, labelBytes(), AccessKind::kWrite);
        rt_.prefetchAsync(data_, dataBytes(), ProcessorId::gpu(0));
        rt_.prefetchAsync(labels_, labelBytes(), ProcessorId::gpu(0));

        // ---- Forward ----
        for (std::size_t i = 0; i < n; ++i) {
            sim::Bytes w = net.layerWeightBytes(i);
            sim::Bytes act = net.layerActBytes(i, p_.batch_size);
            rt_.prefetchAsync(weights_[i], w, ProcessorId::gpu(0));
            // Re-arms the output discarded during the last backward.
            rt_.prefetchAsync(outputs_[i], act, ProcessorId::gpu(0));
            rt_.prefetchAsync(workspace_, net.workspace_bytes,
                              ProcessorId::gpu(0));

            KernelDesc fwd;
            fwd.name = "fwd" + std::to_string(i);
            fwd.accesses = {
                {prevOutput(i), prevOutputBytes(i), AccessKind::kRead},
                {weights_[i], w, AccessKind::kRead},
                {workspace_, net.workspace_bytes,
                 AccessKind::kReadWrite},
                {outputs_[i], act, AccessKind::kWrite}};
            fwd.compute = net.layerFwdCompute(i, p_.batch_size);
            rt_.launch(fwd);
            // CUDNN workspace contents die with every layer (§7.5).
            discardFor(rt_, sys_, workspace_, net.workspace_bytes,
                       /*paired_with_prefetch=*/true);
        }

        // ---- Backward ----
        for (std::size_t idx = n; idx-- > 0;) {
            sim::Bytes w = net.layerWeightBytes(idx);
            sim::Bytes act = net.layerActBytes(idx, p_.batch_size);
            mem::VirtAddr grad_in =
                idx + 1 < n ? deltas_[idx + 1] : labels_;
            sim::Bytes grad_in_bytes =
                idx + 1 < n
                    ? net.layerActBytes(idx + 1, p_.batch_size)
                    : labelBytes();

            // The stored outputs may have been evicted during the
            // rest of forward: prefetch them back (required traffic).
            rt_.prefetchAsync(outputs_[idx], act, ProcessorId::gpu(0));
            rt_.prefetchAsync(deltas_[idx], act, ProcessorId::gpu(0));
            rt_.prefetchAsync(workspace_, net.workspace_bytes,
                              ProcessorId::gpu(0));

            KernelDesc bwd;
            bwd.name = "bwd" + std::to_string(idx);
            bwd.accesses = {
                {prevOutput(idx), prevOutputBytes(idx),
                 AccessKind::kRead},
                {outputs_[idx], act, AccessKind::kRead},
                {grad_in, grad_in_bytes, AccessKind::kRead},
                {weights_[idx], w, AccessKind::kRead},
                {workspace_, net.workspace_bytes,
                 AccessKind::kReadWrite},
                {deltas_[idx], act, AccessKind::kWrite}};
            if (idx == 0) {
                bwd.accesses.push_back(
                    {loss_, 4096, AccessKind::kWrite});
            }
            bwd.compute = net.layerBwdCompute(idx, p_.batch_size);
            rt_.launch(bwd);
            discardFor(rt_, sys_, workspace_, net.workspace_bytes,
                       true);

            KernelDesc update;
            update.name = "upd" + std::to_string(idx);
            update.accesses = {{deltas_[idx], act, AccessKind::kRead},
                               {weights_[idx], w,
                                AccessKind::kReadWrite}};
            update.compute = net.layerFwdCompute(idx, p_.batch_size) /
                             4;
            rt_.launch(update);

            // Dead after backward_idx (Listing 6): this layer's
            // stored output, and the incoming delta it consumed.
            // Both are re-armed by next-batch prefetches: paired.
            discardFor(rt_, sys_, outputs_[idx], act, true);
            if (idx + 1 < n) {
                discardFor(rt_, sys_, deltas_[idx + 1],
                           net.layerActBytes(idx + 1, p_.batch_size),
                           true);
            } else {
                // Labels die after the last-layer backward.  They are
                // refilled by a host write, not a prefetch: unpaired.
                discardFor(rt_, sys_, labels_, labelBytes(), false);
            }
        }
        // delta_0 dies with its update; the input batch dies after
        // backward_0 and is refilled by the host: unpaired.
        discardFor(rt_, sys_, deltas_[0],
                   net.layerActBytes(0, p_.batch_size), true);
        discardFor(rt_, sys_, data_, dataBytes(), false);

        // Host polls the loss (closes the audit chain as required).
        rt_.synchronize();
        rt_.hostTouch(loss_, 8, AccessKind::kRead);
    }

  private:
    mem::VirtAddr
    prevOutput(std::size_t i) const
    {
        return i == 0 ? data_ : outputs_[i - 1];
    }

    sim::Bytes
    prevOutputBytes(std::size_t i) const
    {
        return i == 0 ? dataBytes()
                      : p_.net.layerActBytes(i - 1, p_.batch_size);
    }

    System sys_;
    mem::VirtAddr data_ = 0, labels_ = 0, workspace_ = 0, loss_ = 0;
    std::vector<mem::VirtAddr> weights_, outputs_, deltas_;
};

/** The Listing-4 trainer: explicit device buffers, no swapping. */
class NoUvmTrainer : public TrainerBase
{
  public:
    using TrainerBase::TrainerBase;

    void
    setup() override
    {
        const NetSpec &net = p_.net;
        // This is the call chain that dies on oversubscription.
        d_data_ = rt_.mallocDevice(dataBytes(), "dl.d_data");
        d_labels_ = rt_.mallocDevice(labelBytes(), "dl.d_labels");
        d_workspace_ =
            rt_.mallocDevice(net.workspace_bytes, "dl.d_ws");
        for (std::size_t i = 0; i < layerCount(); ++i) {
            d_weights_.push_back(rt_.mallocDevice(
                2 * net.layerWeightBytes(i), "dl.d_w"));
            d_outputs_.push_back(rt_.mallocDevice(
                net.layerActBytes(i, p_.batch_size), "dl.d_out"));
            d_deltas_.push_back(rt_.mallocDevice(
                net.layerActBytes(i, p_.batch_size), "dl.d_delta"));
        }
    }

    void
    runBatch() override
    {
        const NetSpec &net = p_.net;
        std::size_t n = layerCount();
        rt_.hostCompute(kHostGenTime);
        rt_.memcpyAsync(d_data_, dataBytes(), /*to_device=*/true);
        rt_.memcpyAsync(d_labels_, labelBytes(), true);
        for (std::size_t i = 0; i < n; ++i) {
            KernelDesc fwd;
            fwd.name = "fwd" + std::to_string(i);
            fwd.compute = net.layerFwdCompute(i, p_.batch_size);
            rt_.launch(fwd);
        }
        for (std::size_t idx = n; idx-- > 0;) {
            KernelDesc bwd;
            bwd.name = "bwd" + std::to_string(idx);
            bwd.compute = net.layerBwdCompute(idx, p_.batch_size);
            rt_.launch(bwd);
            KernelDesc update;
            update.name = "upd" + std::to_string(idx);
            update.compute =
                net.layerFwdCompute(idx, p_.batch_size) / 4;
            rt_.launch(update);
        }
        // Read the scalar loss back.
        rt_.memcpyAsync(d_labels_, 4096, /*to_device=*/false);
        rt_.synchronize();
    }

  private:
    mem::VirtAddr d_data_ = 0, d_labels_ = 0, d_workspace_ = 0;
    std::vector<mem::VirtAddr> d_weights_, d_outputs_, d_deltas_;
};

/**
 * The Listing-5 / PyTorch-LMS trainer: per-layer device buffers from
 * a caching allocator, explicit swaps around every layer.
 */
class ManualSwapTrainer : public TrainerBase
{
  public:
    using TrainerBase::TrainerBase;

    void
    setup() override
    {
        budget_ = rt_.driver().allocator(0).usableBytes();
        d_workspace_ =
            rt_.mallocDevice(p_.net.workspace_bytes, "dl.d_ws");
        allocated_ += mem::alignUp(p_.net.workspace_bytes,
                                   mem::kBigPageSize);
    }

    void
    runBatch() override
    {
        const NetSpec &net = p_.net;
        std::size_t n = layerCount();
        rt_.hostCompute(kHostGenTime);

        // Forward: swap weights in, compute, stream outputs out.
        mem::VirtAddr d_in = acquire(dataBytes());
        rt_.memcpyAsync(d_in, dataBytes(), true);
        for (std::size_t i = 0; i < n; ++i) {
            sim::Bytes w = net.layerWeightBytes(i);
            sim::Bytes act = net.layerActBytes(i, p_.batch_size);
            mem::VirtAddr d_w = acquire(w);
            rt_.memcpyAsync(d_w, w, true);
            mem::VirtAddr d_out = acquire(act);
            KernelDesc fwd;
            fwd.name = "fwd" + std::to_string(i);
            fwd.compute = net.layerFwdCompute(i, p_.batch_size);
            rt_.launch(fwd);
            // The manual policy checkpoints every output to the host
            // (it cannot know what will fit later).
            rt_.memcpyAsync(d_out, act, false);
            release(d_w, w);
            release(d_in, i == 0 ? dataBytes()
                                 : net.layerActBytes(i - 1,
                                                     p_.batch_size));
            d_in = d_out;
        }
        release(d_in, net.layerActBytes(n - 1, p_.batch_size));

        // Backward: swap outputs and weights back in per layer.
        for (std::size_t idx = n; idx-- > 0;) {
            sim::Bytes w = net.layerWeightBytes(idx);
            sim::Bytes act = net.layerActBytes(idx, p_.batch_size);
            sim::Bytes act_next =
                idx + 1 < n ? net.layerActBytes(idx + 1, p_.batch_size)
                            : labelBytes();
            mem::VirtAddr d_out = acquire(act);
            mem::VirtAddr d_out_next = acquire(act_next);
            mem::VirtAddr d_w = acquire(w);
            mem::VirtAddr d_grad = acquire(act);
            mem::VirtAddr d_grad_in = acquire(act_next);
            rt_.memcpyAsync(d_out, act, true);
            rt_.memcpyAsync(d_out_next, act_next, true);
            rt_.memcpyAsync(d_w, w, true);
            // The incoming gradient was checkpointed to the host by
            // the previous backward step (the manual policy cannot
            // assume it still fits on the device).
            rt_.memcpyAsync(d_grad_in, act_next, true);
            KernelDesc bwd;
            bwd.name = "bwd" + std::to_string(idx);
            bwd.compute = net.layerBwdCompute(idx, p_.batch_size);
            rt_.launch(bwd);
            KernelDesc update;
            update.name = "upd" + std::to_string(idx);
            update.compute =
                net.layerFwdCompute(idx, p_.batch_size) / 4;
            rt_.launch(update);
            // Updated weights and the produced gradient go back to
            // the host copies.
            rt_.memcpyAsync(d_w, w, false);
            rt_.memcpyAsync(d_grad, act, false);
            release(d_out, act);
            release(d_out_next, act_next);
            release(d_w, w);
            release(d_grad, act);
            release(d_grad_in, act_next);
        }
        rt_.synchronize();
    }

  private:
    /** Caching allocator: reuse freed buffers of the same size to
     *  dodge the Table-2 cudaMalloc/cudaFree costs, spilling cached
     *  buffers (largest first) when the device fills up — the manual
     *  policy's cache management. */
    mem::VirtAddr
    acquire(sim::Bytes size)
    {
        auto &pool = cache_[size];
        if (!pool.empty()) {
            mem::VirtAddr addr = pool.back();
            pool.pop_back();
            return addr;
        }
        sim::Bytes footprint = mem::alignUp(size, mem::kBigPageSize);
        while (allocated_ + footprint > budget_ && dropOneCached()) {
        }
        if (allocated_ + footprint > budget_) {
            sim::fatal("ManualSwapTrainer: per-layer working set "
                       "exceeds GPU memory");
        }
        allocated_ += footprint;
        return rt_.mallocDevice(size, "dl.cache");
    }

    void
    release(mem::VirtAddr addr, sim::Bytes size)
    {
        cache_[size].push_back(addr);
    }

    /** Free one cached buffer, largest size first. */
    bool
    dropOneCached()
    {
        for (auto it = cache_.rbegin(); it != cache_.rend(); ++it) {
            if (it->second.empty())
                continue;
            mem::VirtAddr addr = it->second.back();
            it->second.pop_back();
            rt_.freeDevice(addr);
            allocated_ -=
                mem::alignUp(it->first, mem::kBigPageSize);
            return true;
        }
        return false;
    }

    mem::VirtAddr d_workspace_ = 0;
    sim::Bytes budget_ = 0;
    sim::Bytes allocated_ = 0;
    std::map<sim::Bytes, std::vector<mem::VirtAddr>> cache_;
};

}  // namespace

TrainResult
runTraining(System sys, const TrainParams &p,
            interconnect::LinkSpec link, const uvm::UvmConfig &cfg)
{
    TrainResult result;
    result.system = sys;
    result.batch_size = p.batch_size;

    Runtime rt(cfg, std::move(link));
    trace::Auditor auditor;
    rt.driver().setObserver(&auditor);

    std::unique_ptr<TrainerBase> trainer;
    switch (sys) {
      case System::kNoUvm:
        trainer = std::make_unique<NoUvmTrainer>(rt, p);
        break;
      case System::kManualSwap:
        trainer = std::make_unique<ManualSwapTrainer>(rt, p);
        break;
      default:
        trainer = std::make_unique<UvmTrainer>(rt, p, sys);
        break;
    }

    trainer->setup();
    const Periods batches =
        runPeriods(rt, auditor, p.warmup_batches + p.measured_batches,
                   p.warmup_batches, sys != System::kManualSwap,
                   [&](int) { trainer->runBatch(); });
    result.measured = batches.measured;
    harvest(result, rt, auditor, batches);
    result.throughput =
        p.measured_batches * p.batch_size /
        sim::toSeconds(result.elapsed);
    return result;
}

}  // namespace uvmd::workloads::dl
