/**
 * @file
 * Radix-sort micro-benchmark (paper Section 7.3).
 *
 * Sorts a large key/value array in digit passes.  Each pass runs two
 * kernels: a local-sort kernel that reads the input buffer and writes
 * a temporary buffer (after which the *input* is dead), and a reorder
 * kernel that reads the temporary buffer and rewrites the input
 * (after which the *temporary* is dead).  Both dead buffers are the
 * discard targets (Section 7.3).
 *
 * When either buffer alone exceeds the available GPU memory, each
 * kernel thrashes: the cyclic scans defeat the LRU used queue and
 * memory migrates continuously — the regime where the paper observes
 * discard's benefit shrinking (Tables 5/6).
 *
 * The paper also notes (Section 7.3 text) that UvmDiscard *without*
 * the re-arming prefetches suffers up to a 3.9x slowdown purely from
 * the extra GPU faults; `use_prefetch=false` reproduces that setup.
 * The passes are runPeriods() periods.
 */

#ifndef UVMD_WORKLOADS_RADIX_SORT_HPP
#define UVMD_WORKLOADS_RADIX_SORT_HPP

#include "workloads/common.hpp"

namespace uvmd::workloads {

struct RadixParams {
    /** Key/value payload (the input buffer). */
    sim::Bytes data_bytes = 5 * static_cast<sim::Bytes>(1e9) / 2;

    /** Digit passes (64-bit keys, 8-bit digits). */
    int passes = 8;

    /** Kernel compute time per KiB touched. */
    double compute_ns_per_kib = 2.0;

    /** Issue the re-arming prefetches before each kernel (the
     *  Section 4.2 best practice).  Disabled to reproduce the 3.9x
     *  fault-storm result. */
    bool use_prefetch = true;

    double ovsp_ratio = 0.0;

    sim::Bytes
    footprint() const
    {
        return 2 * data_bytes;  // input + temporary
    }
};

RunResult runRadixSort(System sys, const RadixParams &params,
                       interconnect::LinkSpec link,
                       const uvm::UvmConfig &cfg =
                           uvm::UvmConfig::rtx3080ti());

}  // namespace uvmd::workloads

#endif  // UVMD_WORKLOADS_RADIX_SORT_HPP
