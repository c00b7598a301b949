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

    /** Stop simulating once a batch ends in the state it started
     *  from (see runTraining); the results are the same either way.
     *  Tests turn it off to compare. */
    bool fast_forward = true;
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

    /** The measured region's counters (only kRunCounters is set):
     *  each field's value after the last measured batch minus its
     *  value after the last warm-up batch.  required and redundant
     *  count the transfers the Auditor closed in between, so they
     *  add up to the traffic when its open transfers are the same
     *  at both ends. */
    RunResult measured;

    /** Batches actually simulated (host work): every batch of the run
     *  without the fast-forward, fewer with it. */
    int batches_simulated = 0;
};

/**
 * Train @p params.net under @p sys.  Fatal for No-UVM when the
 * allocation exceeds GPU memory (the Listing 4 failure mode).
 *
 * Steady-state fast-forward: the simulation is deterministic, so once
 * the state after batch b equals the state after batch b-1 (equal
 * cuda::Runtime::stateDigest(), times relative to now()), every later
 * batch repeats batch b exactly.  The run then stops simulating and
 * computes the clock, the traffic and every RunResult counter at the
 * later batch boundaries from the last period.  The result is the
 * one the full simulation gives, field for field.  The fast-forward
 * is off with params.fast_forward unset, for ManualSwap (its caching
 * allocator is trainer state outside the digest) and whenever the
 * state takes no digest (backed mode, fault injection, the random
 * victim policy).
 */
TrainResult runTraining(System sys, const TrainParams &params,
                        interconnect::LinkSpec link,
                        const uvm::UvmConfig &cfg =
                            uvm::UvmConfig::rtx3080ti());

}  // namespace uvmd::workloads::dl

#endif  // UVMD_WORKLOADS_DL_TRAINER_HPP
