/**
 * @file
 * Heap allocation count of the bench_host_perf binary, which
 * replaces the global operator new/delete family
 * (alloc_count.cpp).  The driver_discard stage reports the
 * allocations of a warmed steady-state cycle (allocs_per_iter; the
 * gate fails on any increase from 0), the e2e_radix, e2e_dl and
 * e2e_hashjoin stages their allocations per run and e2e_verify its
 * allocations per script.
 */

#ifndef UVMD_BENCH_ALLOC_COUNT_HPP
#define UVMD_BENCH_ALLOC_COUNT_HPP

#include <cstdint>

/** Heap allocations made by this binary so far, any thread. */
std::uint64_t heapAllocations();

#endif  // UVMD_BENCH_ALLOC_COUNT_HPP
