/**
 * @file
 * Regenerates Table 2: cost of CUDA API calls in microseconds for
 * 2/8/32/128 MB buffers (cudaMalloc, cudaFree, UvmDiscard — plus
 * UvmDiscardLazy, which the paper discusses but does not tabulate).
 *
 * cudaMalloc/cudaFree come from the host API cost model;
 * UvmDiscard(Lazy) is *measured* against the driver model: the buffer
 * is made GPU-resident and mapped, then discarded, exactly the state
 * in which an application issues the directive.
 */

#include "bench_util.hpp"
#include "cuda/runtime.hpp"

namespace {

using namespace uvmd;

/** Simulated duration of one discard call on a resident buffer. */
double
measureDiscardUs(uvm::DiscardMode mode, sim::Bytes size)
{
    cuda::Runtime rt(uvm::UvmConfig::rtx3080ti(),
                     interconnect::LinkSpec::pcie4());
    mem::VirtAddr buf = rt.mallocManaged(size, "t2.buf");
    rt.prefetchAsync(buf, size, uvm::ProcessorId::gpu(0));
    rt.synchronize();

    sim::SimTime start = rt.now();
    rt.discardAsync(buf, size, mode);
    rt.synchronize();
    return sim::toMicroseconds(rt.now() - start);
}

}  // namespace

/** The harness body; main() turns a sim::FatalError into exit 1. */
static int
runHarness(int, char **)
{
    using namespace uvmd;
    using namespace uvmd::bench;
    using cuda::ApiOp;
    using cuda::apiCost;

    banner("Table 2: cost of CUDA API calls (us)");

    const sim::Bytes sizes[] = {2 * sim::kMiB, 8 * sim::kMiB,
                                32 * sim::kMiB, 128 * sim::kMiB};

    trace::Table table("Measured (simulated) API costs, us");
    table.header({"Buffer Size", "2MB", "8MB", "32MB", "128MB"});

    std::vector<std::string> malloc_row{"cudaMalloc"};
    std::vector<std::string> free_row{"cudaFree"};
    std::vector<std::string> eager_row{"UvmDiscard"};
    std::vector<std::string> lazy_row{"UvmDiscardLazy"};
    for (sim::Bytes size : sizes) {
        malloc_row.push_back(trace::fmt(
            sim::toMicroseconds(apiCost(ApiOp::kCudaMalloc, size)), 0));
        free_row.push_back(trace::fmt(
            sim::toMicroseconds(apiCost(ApiOp::kCudaFree, size)), 0));
        eager_row.push_back(trace::fmt(
            measureDiscardUs(uvm::DiscardMode::kEager, size), 0));
        lazy_row.push_back(trace::fmt(
            measureDiscardUs(uvm::DiscardMode::kLazy, size), 0));
    }
    table.row(malloc_row);
    table.row(free_row);
    table.row(eager_row);
    table.row(lazy_row);
    table.print();
    table.writeCsv("table2_api_cost.csv");

    trace::Table paper("Paper Table 2 (for reference), us");
    paper.header({"Buffer Size", "2MB", "8MB", "32MB", "128MB"});
    paper.row({"cudaMalloc", "48", "184", "726", "939"});
    paper.row({"cudaFree", "32", "38", "63", "1184"});
    paper.row({"UvmDiscard", "4", "7", "20", "70"});
    paper.print();
    return 0;
}

int
main(int argc, char **argv)
{
    return uvmd::bench::harnessMain(argc, argv, runHarness);
}
