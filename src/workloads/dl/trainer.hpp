/**
 * @file
 * Deep-learning training loops under the five memory systems
 * (Sections 6 and 7.5).
 *
 * One training batch is: generate inputs on the host, forward through
 * every layer (writing per-layer outputs and using the shared
 * workspace), then backward (reading the stored outputs, producing
 * per-layer deltas, updating weights).  Dead-buffer structure follows
 * Listing 6: after backward_i, output_i and delta_{i+1} are dead;
 * the workspace dies after every layer; the input batch dies after
 * backward_0.
 *
 * Policies:
 *  - No-UVM (Listing 4): everything cudaMalloc'ed up front; only runs
 *    when the whole allocation fits.
 *  - ManualSwap (Listing 5 / PyTorch-LMS): per-layer device buffers
 *    from a caching allocator, explicit cudaMemcpy swaps.
 *  - UVM-opt / UvmDiscard / UvmDiscardLazy (Listing 6).
 */

#ifndef UVMD_WORKLOADS_DL_TRAINER_HPP
#define UVMD_WORKLOADS_DL_TRAINER_HPP

#include "workloads/common.hpp"
#include "workloads/dl/model_zoo.hpp"

namespace uvmd::workloads::dl {

struct TrainParams {
    NetSpec net;
    int batch_size = 32;

    /** Paper methodology: train 3 mini-batches, measure the next 7. */
    int warmup_batches = 3;
    int measured_batches = 7;
};

/**
 * A training run.  The inherited counters cover the whole run (setup,
 * warm-up and measured batches, the Auditor finalized at the end);
 * @c elapsed, @c throughput and @c measured cover the measured
 * batches only.
 */
struct TrainResult : RunResult {
    int batch_size = 0;

    /** Images (samples) per second over the measured batches. */
    double throughput = 0.0;

    /** The measured region (only elapsed and kRunCounters are set):
     *  each field's value after the last measured batch minus its
     *  value after the last warm-up batch.  required and redundant
     *  count the transfers the Auditor closed in between, so they
     *  add up to the traffic when its open transfers are the same
     *  at both ends. */
    RunResult measured;
};

/**
 * Train @p params.net under @p sys.  Fatal for No-UVM when the
 * allocation exceeds GPU memory (the Listing 4 failure mode).
 *
 * The batches are runPeriods() periods, but for ManualSwap, whose
 * caching allocator is trainer state outside the digest.
 */
TrainResult runTraining(System sys, const TrainParams &params,
                        interconnect::LinkSpec link,
                        const uvm::UvmConfig &cfg =
                            uvm::UvmConfig::rtx3080ti());

}  // namespace uvmd::workloads::dl

#endif  // UVMD_WORKLOADS_DL_TRAINER_HPP
