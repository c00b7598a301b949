/**
 * @file
 * The eviction process pinned through the public driver API.
 *
 * Each case fills a tiny GPU, then runs one prefetch or access that
 * needs a chunk, and compares everything the reclaim of the victim
 * can be seen by against a fixed rendering:
 *
 *   - the simulated time the operation took;
 *   - every observer event it reported, in order;
 *   - every nonzero `uvm.` counter and the allocator's counters;
 *   - the victim's queue membership, chunk ownership and masks.
 *
 * One case per victim kind and condition of the Section 5.5 order:
 * an unused chunk, an eagerly and a lazily discarded block (the
 * deferred unmap), a used block with all pages live, used blocks
 * holding discarded pages with and without a pinned CPU copy, the
 * kDropEvictedCpuCopy bug, the FIFO and random policies, a
 * whole-range refill that reclaims a run of victims, the
 * ensureFreeChunk path of a cross-GPU move, injected allocation
 * failures that are retried, and true exhaustion.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "test_util.hpp"
#include "uvm/driver.hpp"
#include "verify/snapshot.hpp"

namespace uvmd::uvm {
namespace {

using mem::kBigPageSize;
using mem::kSmallPageSize;

constexpr sim::Bytes kPage = kSmallPageSize;

/**
 * Renders an eviction case for comparison against its pinned text.
 * Besides the observer events it records each step the driver's
 * retry loops report to a progress sink, in the same stream.
 */
class Pin : public sim::ProgressSink
{
  public:
    /** @param origin blocks print as their index from this address
     *  @param start  progress steps print relative to this time */
    Pin(UvmDriver &drv, mem::VirtAddr origin, sim::SimTime start)
        : drv_(drv), origin_(origin), start_(start)
    {
        drv_.setObserver(&rec_);
        drv_.setProgressSink(this);
    }
    ~Pin() override
    {
        drv_.setObserver(nullptr);
        drv_.setProgressSink(nullptr);
    }

    void
    onStep(const char *phase, sim::SimTime now) override
    {
        phases_.emplace_back(phase);
        rec_.events.push_back({'P', 0, {}, int(phases_.size() - 1),
                               int(now - start_)});
    }

    std::string
    block(mem::VirtAddr base) const
    {
        return "b" + std::to_string((base - origin_) / kBigPageSize);
    }

    /** Time, events, counters, then the state of each of @p blocks. */
    std::string
    render(sim::SimDuration elapsed,
           std::initializer_list<mem::VirtAddr> blocks) const
    {
        std::ostringstream os;
        os << "t=" << elapsed << "\n";
        for (const test::EventRecorder::Event &e : rec_.events)
            os << event(e) << "\n";
        sim::StatGroup uvm = drv_.counters();
        for (std::size_t i = 0; i < uvm.names().size(); ++i) {
            if (uvm.values()[i] != 0)
                os << "uvm." << uvm.names()[i] << "=" << uvm.values()[i]
                   << "\n";
        }
        for (int g = 0; g < drv_.config().num_gpus; ++g) {
            sim::StatGroup alloc = drv_.allocator(g).stats();
            for (std::size_t i = 0; i < alloc.names().size(); ++i) {
                os << "gpu" << g << "." << alloc.names()[i] << "="
                   << alloc.values()[i] << "\n";
            }
            os << "gpu" << g << ".allocated="
               << drv_.allocator(g).allocatedChunks() << "\n";
        }
        for (mem::VirtAddr base : blocks) {
            const VaBlock &b = *drv_.vaSpace().blockOf(base);
            os << block(base) << " on=" << mem::toString(b.link.on)
               << " chunk=" << b.has_gpu_chunk << " owner=" << b.owner_gpu
               << " big=" << b.gpu_mapping_big << "\n"
               << "  gpu=" << runs(b.resident_gpu)
               << " cpu=" << runs(b.resident_cpu)
               << " present=" << runs(b.cpu_pages_present) << "\n"
               << "  mapped_gpu=" << runs(b.mapped_gpu)
               << " mapped_cpu=" << runs(b.mapped_cpu)
               << " prepared=" << runs(b.gpu_prepared) << "\n"
               << "  discarded=" << runs(b.discarded)
               << " lazily=" << runs(b.discarded_lazily) << "\n";
        }
        return os.str();
    }

  private:
    static std::string
    runs(const PageMask &mask)
    {
        return "[" + verify::maskToRuns(mask) + "]";
    }

    std::string
    event(const test::EventRecorder::Event &e) const
    {
        std::string head = std::string(1, e.kind) + " ";
        std::string where = e.a < 0 ? "cpu" : "gpu" + std::to_string(e.a);
        switch (e.kind) {
          case 'T':
          case 'S':
            return head + block(e.base) + " " + runs(e.pages) + " " +
                   interconnect::toString(
                       static_cast<interconnect::Direction>(e.a)) +
                   " " + toString(static_cast<TransferCause>(e.b));
          case 'A':
            return head + block(e.base) + " " + runs(e.pages) + " " +
                   (e.a & 2 ? "r" : "") + (e.a & 1 ? "w" : "") + " " +
                   (e.b < 0 ? "cpu" : "gpu" + std::to_string(e.b));
          case 'M':
          case 'U':
            return head + block(e.base) + " " + runs(e.pages) + " " +
                   where;
          case 'C':
            return head + block(e.base) + " " + runs(e.pages) +
                   (e.a ? " discard" : " rearm");
          case 'Q':
            return head + block(e.base) + " " +
                   mem::toString(static_cast<mem::QueueKind>(e.a)) + ">" +
                   mem::toString(static_cast<mem::QueueKind>(e.b));
          case 'X':
            return head + toString(static_cast<FaultEvent>(e.a)) + " " +
                   block(e.base) + " pages=" + std::to_string(e.b);
          case 'P':
            return head + phases_[e.a] + " +" + std::to_string(e.b);
          default:
            return head + block(e.base) + " " + runs(e.pages);
        }
    }

    UvmDriver &drv_;
    mem::VirtAddr origin_;
    sim::SimTime start_;
    test::EventRecorder rec_;
    std::vector<std::string> phases_;
};

std::vector<Access>
rw(mem::VirtAddr addr, sim::Bytes size)
{
    return {{addr, size, AccessKind::kReadWrite}};
}

/**
 * A two-chunk GPU holding blocks 0 and 1 of a three-block range, in
 * that LRU order.  The host wrote pages 0-255 of each block first, so
 * those pages keep a pinned CPU copy; pages 256-511 were born on the
 * GPU.
 */
struct FullGpu {
    explicit FullGpu(UvmConfig cfg = test::tinyConfig(2))
        : drv(cfg, test::testLink())
    {
        a = drv.allocManaged(3 * kBigPageSize, "a");
        for (int i = 0; i < 2; ++i) {
            t = drv.hostAccess(blk(i), 256 * kPage, AccessKind::kWrite, t);
            t = drv.prefetch(blk(i), kBigPageSize, ProcessorId::gpu(0), t);
        }
    }

    mem::VirtAddr blk(int i) const { return a + i * kBigPageSize; }

    /** Prefetch block 2, which needs a chunk; @return its duration. */
    sim::SimDuration
    prefetchBlock2()
    {
        sim::SimTime end =
            drv.prefetch(blk(2), kBigPageSize, ProcessorId::gpu(0), t);
        sim::SimDuration d = end - t;
        t = end;
        return d;
    }

    UvmDriver drv;
    mem::VirtAddr a = 0;
    sim::SimTime t = 0;
};

// The pinned texts below were recorded from the driver; a change to
// any line is a change of the eviction's observable behaviour.

TEST(EvictionPin, UnusedChunkIsReclaimedWithoutTransfer)
{
    FullGpu f;
    // Pull block 0 back to the host: its drained chunk goes unused.
    f.t = f.drv.hostAccess(f.blk(0), kBigPageSize, AccessKind::kRead, f.t);
    Pin pin(f.drv, f.a, f.t);
    sim::SimDuration d = f.prefetchBlock2();
    EXPECT_EQ(pin.render(d, {f.blk(0), f.blk(2)}), R"(t=8242
P alloc-chunk-evict +0
Q b0 unused>none
P alloc-chunk-evict +1000
Q b2 none>used
M b2 [0-511] gpu0
uvm.managed_allocs=1
uvm.managed_bytes=6291456
uvm.gpu_map_ops=3
uvm.gpu_unmap_ops=1
uvm.cpu_map_ops=3
uvm.cpu_unmap_ops=2
uvm.cpu_fault_batches=3
uvm.evictions_unused=1
uvm.prefetch_calls=3
uvm.prefetch_migrated_pages=1536
uvm.blocks_walked=6
uvm.dma_descriptors=3
uvm.bytes_h2d.prefetch=2097152
uvm.bytes_d2h.cpu_fault=2097152
gpu0.chunk_allocs=3
gpu0.chunk_frees=1
gpu0.chunks_retired=0
gpu0.allocated=2
b0 on=none chunk=0 owner=-1 big=0
  gpu=[] cpu=[0-511] present=[0-511]
  mapped_gpu=[] mapped_cpu=[0-511] prepared=[]
  discarded=[] lazily=[]
b2 on=used chunk=1 owner=0 big=1
  gpu=[0-511] cpu=[] present=[]
  mapped_gpu=[0-511] mapped_cpu=[] prepared=[0-511]
  discarded=[] lazily=[]
)");
    f.drv.checkInvariants();
}

TEST(EvictionPin, EagerlyDiscardedBlockIsReclaimedWithoutTransfer)
{
    FullGpu f;
    f.t = f.drv.discard(f.blk(1), kBigPageSize, DiscardMode::kEager, f.t);
    Pin pin(f.drv, f.a, f.t);
    sim::SimDuration d = f.prefetchBlock2();
    EXPECT_EQ(pin.render(d, {f.blk(1), f.blk(2)}), R"(t=8242
P alloc-chunk-evict +0
S b1 [0-511] d2h eviction
C b1 [256-511] rearm
Q b1 discarded>none
P alloc-chunk-evict +1000
Q b2 none>used
M b2 [0-511] gpu0
uvm.managed_allocs=1
uvm.managed_bytes=6291456
uvm.gpu_map_ops=3
uvm.gpu_unmap_ops=1
uvm.cpu_map_ops=2
uvm.cpu_unmap_ops=2
uvm.cpu_fault_batches=2
uvm.evictions_discarded=1
uvm.prefetch_calls=3
uvm.prefetch_migrated_pages=1536
uvm.discard_calls_eager=1
uvm.discarded_pages=512
uvm.blocks_walked=6
uvm.dma_descriptors=2
uvm.bytes_h2d.prefetch=2097152
uvm.saved_d2h_bytes=2097152
gpu0.chunk_allocs=3
gpu0.chunk_frees=1
gpu0.chunks_retired=0
gpu0.allocated=2
b1 on=none chunk=0 owner=-1 big=0
  gpu=[] cpu=[0-255] present=[0-255]
  mapped_gpu=[] mapped_cpu=[] prepared=[]
  discarded=[0-255] lazily=[]
b2 on=used chunk=1 owner=0 big=1
  gpu=[0-511] cpu=[] present=[]
  mapped_gpu=[0-511] mapped_cpu=[] prepared=[0-511]
  discarded=[] lazily=[]
)");
    f.drv.checkInvariants();
}

TEST(EvictionPin, LazilyDiscardedBlockPaysTheDeferredUnmap)
{
    FullGpu f;
    f.t = f.drv.discard(f.blk(1), kBigPageSize, DiscardMode::kLazy, f.t);
    Pin pin(f.drv, f.a, f.t);
    sim::SimDuration d = f.prefetchBlock2();
    EXPECT_EQ(pin.render(d, {f.blk(1), f.blk(2)}), R"(t=9742
P alloc-chunk-evict +0
U b1 [0-511] gpu0
S b1 [0-511] d2h eviction
C b1 [256-511] rearm
Q b1 discarded>none
P alloc-chunk-evict +2500
Q b2 none>used
M b2 [0-511] gpu0
uvm.managed_allocs=1
uvm.managed_bytes=6291456
uvm.gpu_map_ops=3
uvm.gpu_unmap_ops=1
uvm.cpu_map_ops=2
uvm.cpu_unmap_ops=2
uvm.cpu_fault_batches=2
uvm.evictions_discarded=1
uvm.prefetch_calls=3
uvm.prefetch_migrated_pages=1536
uvm.discard_calls_lazy=1
uvm.discarded_pages=512
uvm.blocks_walked=6
uvm.dma_descriptors=2
uvm.bytes_h2d.prefetch=2097152
uvm.saved_d2h_bytes=2097152
gpu0.chunk_allocs=3
gpu0.chunk_frees=1
gpu0.chunks_retired=0
gpu0.allocated=2
b1 on=none chunk=0 owner=-1 big=0
  gpu=[] cpu=[0-255] present=[0-255]
  mapped_gpu=[] mapped_cpu=[] prepared=[]
  discarded=[0-255] lazily=[]
b2 on=used chunk=1 owner=0 big=1
  gpu=[0-511] cpu=[] present=[]
  mapped_gpu=[0-511] mapped_cpu=[] prepared=[0-511]
  discarded=[] lazily=[]
)");
    f.drv.checkInvariants();
}

TEST(EvictionPin, UsedBlockSwapsItsLivePagesOut)
{
    FullGpu f;
    Pin pin(f.drv, f.a, f.t);
    sim::SimDuration d = f.prefetchBlock2();
    EXPECT_EQ(pin.render(d, {f.blk(0), f.blk(2)}), R"(t=100628
P alloc-chunk-evict +0
U b0 [0-511] gpu0
T b0 [0-511] d2h eviction
Q b0 used>unused
Q b0 unused>none
P alloc-chunk-evict +93386
Q b2 none>used
M b2 [0-511] gpu0
uvm.managed_allocs=1
uvm.managed_bytes=6291456
uvm.gpu_map_ops=3
uvm.gpu_unmap_ops=1
uvm.cpu_map_ops=2
uvm.cpu_unmap_ops=2
uvm.cpu_fault_batches=2
uvm.evictions_used=1
uvm.prefetch_calls=3
uvm.prefetch_migrated_pages=1536
uvm.blocks_walked=5
uvm.dma_descriptors=3
uvm.bytes_h2d.prefetch=2097152
uvm.bytes_d2h.eviction=2097152
gpu0.chunk_allocs=3
gpu0.chunk_frees=1
gpu0.chunks_retired=0
gpu0.allocated=2
b0 on=none chunk=0 owner=-1 big=0
  gpu=[] cpu=[0-511] present=[0-511]
  mapped_gpu=[] mapped_cpu=[] prepared=[]
  discarded=[] lazily=[]
b2 on=used chunk=1 owner=0 big=1
  gpu=[0-511] cpu=[] present=[]
  mapped_gpu=[0-511] mapped_cpu=[] prepared=[0-511]
  discarded=[] lazily=[]
)");
    f.drv.checkInvariants();
}

TEST(EvictionPin, UsedBlockSkipsItsDiscardedPages)
{
    // A partial discard leaves the block on the used queue: pages
    // 100-199 fall back to their pinned copy, 300-399 have none.
    UvmConfig cfg = test::tinyConfig(2);
    cfg.partial_discard_splits = true;
    FullGpu f(cfg);
    f.t = f.drv.discard(f.blk(0) + 100 * kPage, 100 * kPage,
                        DiscardMode::kEager, f.t);
    f.t = f.drv.discard(f.blk(0) + 300 * kPage, 100 * kPage,
                        DiscardMode::kLazy, f.t);
    Pin pin(f.drv, f.a, f.t);
    sim::SimDuration d = f.prefetchBlock2();
    EXPECT_EQ(pin.render(d, {f.blk(0), f.blk(2)}), R"(t=83860
P alloc-chunk-evict +0
U b0 [0-99,200-511] gpu0
T b0 [0-99,200-299,400-511] d2h eviction
S b0 [100-199,300-399] d2h eviction
C b0 [300-399] rearm
Q b0 used>unused
Q b0 unused>none
P alloc-chunk-evict +76618
Q b2 none>used
M b2 [0-511] gpu0
uvm.managed_allocs=1
uvm.managed_bytes=6291456
uvm.gpu_map_ops=3
uvm.gpu_mapping_splits=1
uvm.gpu_unmap_ops=2
uvm.cpu_map_ops=2
uvm.cpu_unmap_ops=2
uvm.cpu_fault_batches=2
uvm.evictions_used=1
uvm.prefetch_calls=3
uvm.prefetch_migrated_pages=1536
uvm.discard_calls_eager=1
uvm.discard_calls_lazy=1
uvm.discarded_pages=200
uvm.blocks_walked=7
uvm.dma_descriptors=5
uvm.bytes_h2d.prefetch=2097152
uvm.bytes_d2h.eviction=1277952
uvm.saved_d2h_bytes=819200
gpu0.chunk_allocs=3
gpu0.chunk_frees=1
gpu0.chunks_retired=0
gpu0.allocated=2
b0 on=none chunk=0 owner=-1 big=0
  gpu=[] cpu=[0-299,400-511] present=[0-299,400-511]
  mapped_gpu=[] mapped_cpu=[] prepared=[]
  discarded=[100-199] lazily=[]
b2 on=used chunk=1 owner=0 big=1
  gpu=[0-511] cpu=[] present=[]
  mapped_gpu=[0-511] mapped_cpu=[] prepared=[0-511]
  discarded=[] lazily=[]
)");
    f.drv.checkInvariants();
}

TEST(EvictionPin, WithoutTheDiscardQueueADiscardedBlockIsAUsedVictim)
{
    UvmConfig cfg = test::tinyConfig(2);
    cfg.discard_queue_enabled = false;
    FullGpu f(cfg);
    f.t = f.drv.discard(f.blk(0), kBigPageSize, DiscardMode::kLazy, f.t);
    Pin pin(f.drv, f.a, f.t);
    sim::SimDuration d = f.prefetchBlock2();
    EXPECT_EQ(pin.render(d, {f.blk(0), f.blk(2)}), R"(t=8742
P alloc-chunk-evict +0
U b0 [0-511] gpu0
S b0 [0-511] d2h eviction
C b0 [256-511] rearm
Q b0 used>unused
Q b0 unused>none
P alloc-chunk-evict +1500
Q b2 none>used
M b2 [0-511] gpu0
uvm.managed_allocs=1
uvm.managed_bytes=6291456
uvm.gpu_map_ops=3
uvm.gpu_unmap_ops=1
uvm.cpu_map_ops=2
uvm.cpu_unmap_ops=2
uvm.cpu_fault_batches=2
uvm.evictions_used=1
uvm.prefetch_calls=3
uvm.prefetch_migrated_pages=1536
uvm.discard_calls_lazy=1
uvm.discarded_pages=512
uvm.blocks_walked=6
uvm.dma_descriptors=2
uvm.bytes_h2d.prefetch=2097152
uvm.saved_d2h_bytes=2097152
gpu0.chunk_allocs=3
gpu0.chunk_frees=1
gpu0.chunks_retired=0
gpu0.allocated=2
b0 on=none chunk=0 owner=-1 big=0
  gpu=[] cpu=[0-255] present=[0-255]
  mapped_gpu=[] mapped_cpu=[] prepared=[]
  discarded=[0-255] lazily=[]
b2 on=used chunk=1 owner=0 big=1
  gpu=[0-511] cpu=[] present=[]
  mapped_gpu=[0-511] mapped_cpu=[] prepared=[0-511]
  discarded=[] lazily=[]
)");
    f.drv.checkInvariants();
}

TEST(EvictionPin, DropEvictedCpuCopyBugLosesTheLivePages)
{
    UvmConfig cfg = test::tinyConfig(2);
    cfg.bug = BugInjection::kDropEvictedCpuCopy;
    cfg.partial_discard_splits = true;
    FullGpu f(cfg);
    f.t = f.drv.discard(f.blk(0) + 100 * kPage, 100 * kPage,
                        DiscardMode::kEager, f.t);
    Pin pin(f.drv, f.a, f.t);
    sim::SimDuration d = f.prefetchBlock2();
    EXPECT_EQ(pin.render(d, {f.blk(0), f.blk(2)}), R"(t=92244
P alloc-chunk-evict +0
U b0 [0-99,200-511] gpu0
T b0 [0-99,200-511] d2h eviction
S b0 [100-199] d2h eviction
Q b0 used>unused
Q b0 unused>none
P alloc-chunk-evict +85002
Q b2 none>used
M b2 [0-511] gpu0
uvm.managed_allocs=1
uvm.managed_bytes=6291456
uvm.gpu_map_ops=3
uvm.gpu_mapping_splits=1
uvm.gpu_unmap_ops=2
uvm.cpu_map_ops=2
uvm.cpu_unmap_ops=2
uvm.cpu_fault_batches=2
uvm.evictions_used=1
uvm.prefetch_calls=3
uvm.prefetch_migrated_pages=1536
uvm.discard_calls_eager=1
uvm.discarded_pages=100
uvm.blocks_walked=6
uvm.dma_descriptors=4
uvm.bytes_h2d.prefetch=2097152
uvm.bytes_d2h.eviction=1687552
uvm.saved_d2h_bytes=409600
gpu0.chunk_allocs=3
gpu0.chunk_frees=1
gpu0.chunks_retired=0
gpu0.allocated=2
b0 on=none chunk=0 owner=-1 big=0
  gpu=[] cpu=[100-199] present=[0-511]
  mapped_gpu=[] mapped_cpu=[] prepared=[]
  discarded=[100-199] lazily=[]
b2 on=used chunk=1 owner=0 big=1
  gpu=[0-511] cpu=[] present=[]
  mapped_gpu=[0-511] mapped_cpu=[] prepared=[0-511]
  discarded=[] lazily=[]
)");
}

TEST(EvictionPin, WholeRangeRefillTakesARunOfDiscardedVictims)
{
    // The oversubscribed refill of range b reclaims two blocks of the
    // lazily discarded range a, head first, one per chunk it needs.
    UvmDriver drv(test::tinyConfig(3), test::testLink());
    mem::VirtAddr a = drv.allocManaged(3 * kBigPageSize, "a");
    mem::VirtAddr b = drv.allocManaged(2 * kBigPageSize, "b");
    sim::SimTime t = drv.hostAccess(a, 3 * kBigPageSize,
                                    AccessKind::kWrite, 0);
    t = drv.prefetch(a, 3 * kBigPageSize, ProcessorId::gpu(0), t);
    t = drv.discard(a, 3 * kBigPageSize, DiscardMode::kLazy, t);
    Pin pin(drv, a, t);
    sim::SimTime end =
        drv.prefetch(b, 2 * kBigPageSize, ProcessorId::gpu(0), t);
    EXPECT_EQ(pin.render(end - t, {a, a + kBigPageSize,
                                   a + 2 * kBigPageSize, b}),
              R"(t=19484
P alloc-chunk-evict +0
U b0 [0-511] gpu0
S b0 [0-511] d2h eviction
Q b0 discarded>none
P alloc-chunk-evict +2500
Q b4 none>used
M b4 [0-511] gpu0
P alloc-chunk-evict +9742
U b1 [0-511] gpu0
S b1 [0-511] d2h eviction
Q b1 discarded>none
P alloc-chunk-evict +12242
Q b5 none>used
M b5 [0-511] gpu0
uvm.managed_allocs=2
uvm.managed_bytes=10485760
uvm.gpu_map_ops=5
uvm.gpu_unmap_ops=2
uvm.cpu_map_ops=3
uvm.cpu_unmap_ops=3
uvm.cpu_fault_batches=3
uvm.evictions_discarded=2
uvm.prefetch_calls=2
uvm.prefetch_migrated_pages=2560
uvm.discard_calls_lazy=1
uvm.discarded_pages=1536
uvm.blocks_walked=3
uvm.dma_descriptors=3
uvm.bytes_h2d.prefetch=6291456
uvm.saved_d2h_bytes=4194304
gpu0.chunk_allocs=5
gpu0.chunk_frees=2
gpu0.chunks_retired=0
gpu0.allocated=3
b0 on=none chunk=0 owner=-1 big=0
  gpu=[] cpu=[0-511] present=[0-511]
  mapped_gpu=[] mapped_cpu=[] prepared=[]
  discarded=[0-511] lazily=[]
b1 on=none chunk=0 owner=-1 big=0
  gpu=[] cpu=[0-511] present=[0-511]
  mapped_gpu=[] mapped_cpu=[] prepared=[]
  discarded=[0-511] lazily=[]
b2 on=discarded chunk=1 owner=0 big=1
  gpu=[0-511] cpu=[] present=[0-511]
  mapped_gpu=[0-511] mapped_cpu=[] prepared=[0-511]
  discarded=[0-511] lazily=[0-511]
b4 on=used chunk=1 owner=0 big=1
  gpu=[0-511] cpu=[] present=[]
  mapped_gpu=[0-511] mapped_cpu=[] prepared=[0-511]
  discarded=[] lazily=[]
)");
    drv.checkInvariants();
}

/** Three chunks holding blocks 0-2 of a four-block range; block 0 is
 *  then touched, so it is the oldest allocation but not the LRU. */
sim::SimTime
fillThreeTouchFirst(UvmDriver &drv, mem::VirtAddr a)
{
    sim::SimTime t = drv.prefetch(a, 3 * kBigPageSize, ProcessorId::gpu(0), 0);
    return drv.gpuAccess(0, rw(a, kBigPageSize), t);
}

TEST(EvictionPin, FifoPolicyPicksTheOldestAllocation)
{
    UvmConfig cfg = test::tinyConfig(3);
    cfg.eviction_policy = EvictionPolicy::kFifo;
    UvmDriver drv(cfg, test::testLink());
    mem::VirtAddr a = drv.allocManaged(4 * kBigPageSize, "a");
    sim::SimTime t = fillThreeTouchFirst(drv, a);
    Pin pin(drv, a, t);
    mem::VirtAddr b3 = a + 3 * kBigPageSize;
    sim::SimTime end = drv.gpuAccess(0, rw(b3, kBigPageSize), t);
    EXPECT_EQ(pin.render(end - t, {a, a + kBigPageSize, b3}),
              R"(t=189628
P alloc-chunk-evict +89000
U b0 [0-511] gpu0
T b0 [0-511] d2h eviction
Q b0 used>unused
Q b0 unused>none
P alloc-chunk-evict +182386
Q b3 none>used
M b3 [0-511] gpu0
A b3 [0-511] rw gpu0
uvm.managed_allocs=1
uvm.managed_bytes=8388608
uvm.gpu_map_ops=4
uvm.gpu_unmap_ops=1
uvm.gpu_fault_batches=1
uvm.gpu_faulted_blocks=1
uvm.gpu_faulted_pages=512
uvm.evictions_used=1
uvm.prefetch_calls=1
uvm.prefetch_migrated_pages=1536
uvm.blocks_walked=5
uvm.dma_descriptors=1
uvm.bytes_d2h.eviction=2097152
gpu0.chunk_allocs=4
gpu0.chunk_frees=1
gpu0.chunks_retired=0
gpu0.allocated=3
b0 on=none chunk=0 owner=-1 big=0
  gpu=[] cpu=[0-511] present=[0-511]
  mapped_gpu=[] mapped_cpu=[] prepared=[]
  discarded=[] lazily=[]
b1 on=used chunk=1 owner=0 big=1
  gpu=[0-511] cpu=[] present=[]
  mapped_gpu=[0-511] mapped_cpu=[] prepared=[0-511]
  discarded=[] lazily=[]
b3 on=used chunk=1 owner=0 big=1
  gpu=[0-511] cpu=[] present=[]
  mapped_gpu=[0-511] mapped_cpu=[] prepared=[0-511]
  discarded=[] lazily=[]
)");
    drv.checkInvariants();
}

TEST(EvictionPin, RandomPolicyPicksASeededVictim)
{
    UvmConfig cfg = test::tinyConfig(3);
    cfg.eviction_policy = EvictionPolicy::kRandom;
    UvmDriver drv(cfg, test::testLink());
    mem::VirtAddr a = drv.allocManaged(4 * kBigPageSize, "a");
    sim::SimTime t = fillThreeTouchFirst(drv, a);
    Pin pin(drv, a, t);
    mem::VirtAddr b3 = a + 3 * kBigPageSize;
    sim::SimTime end =
        drv.prefetch(b3, kBigPageSize, ProcessorId::gpu(0), t);
    EXPECT_EQ(pin.render(end - t, {a, a + kBigPageSize,
                                   a + 2 * kBigPageSize, b3}),
              R"(t=100628
P alloc-chunk-evict +0
U b1 [0-511] gpu0
T b1 [0-511] d2h eviction
Q b1 used>unused
Q b1 unused>none
P alloc-chunk-evict +93386
Q b3 none>used
M b3 [0-511] gpu0
uvm.managed_allocs=1
uvm.managed_bytes=8388608
uvm.gpu_map_ops=4
uvm.gpu_unmap_ops=1
uvm.evictions_used=1
uvm.prefetch_calls=2
uvm.prefetch_migrated_pages=2048
uvm.blocks_walked=5
uvm.dma_descriptors=1
uvm.bytes_d2h.eviction=2097152
gpu0.chunk_allocs=4
gpu0.chunk_frees=1
gpu0.chunks_retired=0
gpu0.allocated=3
b0 on=used chunk=1 owner=0 big=1
  gpu=[0-511] cpu=[] present=[]
  mapped_gpu=[0-511] mapped_cpu=[] prepared=[0-511]
  discarded=[] lazily=[]
b1 on=none chunk=0 owner=-1 big=0
  gpu=[] cpu=[0-511] present=[0-511]
  mapped_gpu=[] mapped_cpu=[] prepared=[]
  discarded=[] lazily=[]
b2 on=used chunk=1 owner=0 big=1
  gpu=[0-511] cpu=[] present=[]
  mapped_gpu=[0-511] mapped_cpu=[] prepared=[0-511]
  discarded=[] lazily=[]
b3 on=used chunk=1 owner=0 big=1
  gpu=[0-511] cpu=[] present=[]
  mapped_gpu=[0-511] mapped_cpu=[] prepared=[0-511]
  discarded=[] lazily=[]
)");
    drv.checkInvariants();
}

TEST(EvictionPin, InjectedAllocationFailureReclaimsAnotherVictim)
{
    // Seed 31 lets the two setup allocations through and trips the
    // allocation for block 2 twice: block 1 (discarded) is reclaimed
    // because no chunk is free, block 0 (used) for the first injected
    // failure, and after the second nothing is left to reclaim.
    UvmConfig cfg = test::tinyConfig(2);
    cfg.faults.enabled = true;
    cfg.faults.seed = 31;
    cfg.faults.alloc_fail_rate = 0.5;
    cfg.faults.alloc_max_retries = 2;
    FullGpu f(cfg);
    f.t = f.drv.discard(f.blk(1), kBigPageSize, DiscardMode::kEager, f.t);
    ASSERT_EQ(f.drv.counters().get("fault_injected"), 0u);
    Pin pin(f.drv, f.a, f.t);
    sim::SimDuration d = f.prefetchBlock2();
    EXPECT_EQ(pin.render(d, {f.blk(0), f.blk(1), f.blk(2)}),
              R"(t=103628
P alloc-chunk-evict +0
S b1 [0-511] d2h eviction
C b1 [256-511] rearm
Q b1 discarded>none
P alloc-chunk-evict +1000
X alloc_fail b2 pages=0
U b0 [0-511] gpu0
T b0 [0-511] d2h eviction
Q b0 used>unused
Q b0 unused>none
P alloc-chunk-evict +95386
X alloc_fail b2 pages=0
P alloc-chunk-evict +96386
Q b2 none>used
M b2 [0-511] gpu0
uvm.managed_allocs=1
uvm.managed_bytes=6291456
uvm.gpu_map_ops=3
uvm.gpu_unmap_ops=2
uvm.cpu_map_ops=2
uvm.cpu_unmap_ops=2
uvm.cpu_fault_batches=2
uvm.fault_injected=2
uvm.evictions_discarded=1
uvm.evictions_used=1
uvm.prefetch_calls=3
uvm.prefetch_migrated_pages=1536
uvm.discard_calls_eager=1
uvm.discarded_pages=512
uvm.blocks_walked=6
uvm.dma_descriptors=3
uvm.bytes_h2d.prefetch=2097152
uvm.bytes_d2h.eviction=2097152
uvm.saved_d2h_bytes=2097152
gpu0.chunk_allocs=5
gpu0.chunk_frees=4
gpu0.chunks_retired=0
gpu0.allocated=1
b0 on=none chunk=0 owner=-1 big=0
  gpu=[] cpu=[0-511] present=[0-511]
  mapped_gpu=[] mapped_cpu=[] prepared=[]
  discarded=[] lazily=[]
b1 on=none chunk=0 owner=-1 big=0
  gpu=[] cpu=[0-255] present=[0-255]
  mapped_gpu=[] mapped_cpu=[] prepared=[]
  discarded=[0-255] lazily=[]
b2 on=used chunk=1 owner=0 big=1
  gpu=[0-511] cpu=[] present=[]
  mapped_gpu=[0-511] mapped_cpu=[] prepared=[0-511]
  discarded=[] lazily=[]
)");
    f.drv.checkInvariants();
}

TEST(EvictionPin, InjectedAllocationFailureGivesTheChunkBack)
{
    // Every allocation trips twice, so the setup already evicted
    // block 0 and one chunk is free: the first failure gives the
    // fresh chunk back and reclaims block 1 (discarded) although a
    // chunk is free, the second finds nothing to reclaim.
    UvmConfig cfg = test::tinyConfig(2);
    cfg.faults.enabled = true;
    cfg.faults.alloc_fail_rate = 1.0;
    cfg.faults.alloc_max_retries = 2;
    FullGpu f(cfg);
    f.t = f.drv.discard(f.blk(1), kBigPageSize, DiscardMode::kEager, f.t);
    Pin pin(f.drv, f.a, f.t);
    sim::SimDuration d = f.prefetchBlock2();
    EXPECT_EQ(pin.render(d, {f.blk(0), f.blk(1), f.blk(2)}),
              R"(t=10242
P alloc-chunk-evict +0
X alloc_fail b2 pages=0
S b1 [0-511] d2h eviction
C b1 [256-511] rearm
Q b1 discarded>none
P alloc-chunk-evict +2000
X alloc_fail b2 pages=0
P alloc-chunk-evict +3000
Q b2 none>used
M b2 [0-511] gpu0
uvm.managed_allocs=1
uvm.managed_bytes=6291456
uvm.gpu_map_ops=3
uvm.gpu_unmap_ops=2
uvm.cpu_map_ops=2
uvm.cpu_unmap_ops=2
uvm.cpu_fault_batches=2
uvm.fault_injected=6
uvm.evictions_discarded=1
uvm.evictions_used=1
uvm.prefetch_calls=3
uvm.prefetch_migrated_pages=1536
uvm.discard_calls_eager=1
uvm.discarded_pages=512
uvm.blocks_walked=6
uvm.dma_descriptors=3
uvm.bytes_h2d.prefetch=2097152
uvm.bytes_d2h.eviction=2097152
uvm.saved_d2h_bytes=2097152
gpu0.chunk_allocs=9
gpu0.chunk_frees=8
gpu0.chunks_retired=0
gpu0.allocated=1
b0 on=none chunk=0 owner=-1 big=0
  gpu=[] cpu=[0-511] present=[0-511]
  mapped_gpu=[] mapped_cpu=[] prepared=[]
  discarded=[] lazily=[]
b1 on=none chunk=0 owner=-1 big=0
  gpu=[] cpu=[0-255] present=[0-255]
  mapped_gpu=[] mapped_cpu=[] prepared=[]
  discarded=[0-255] lazily=[]
b2 on=used chunk=1 owner=0 big=1
  gpu=[0-511] cpu=[] present=[]
  mapped_gpu=[0-511] mapped_cpu=[] prepared=[0-511]
  discarded=[] lazily=[]
)");
    f.drv.checkInvariants();
}

TEST(EvictionPin, CrossGpuMoveSecuresAFreeChunkFirst)
{
    // Under an enabled injector a move to a full GPU evicts there
    // (ensureFreeChunk) before the source chunk is torn down.
    UvmConfig cfg = test::tinyConfig(1);
    cfg.num_gpus = 2;
    cfg.faults.enabled = true;
    UvmDriver drv(cfg, test::testLink());
    mem::VirtAddr a = drv.allocManaged(2 * kBigPageSize, "a");
    mem::VirtAddr b1 = a + kBigPageSize;
    sim::SimTime t = drv.hostAccess(a, 2 * kBigPageSize,
                                    AccessKind::kWrite, 0);
    t = drv.prefetch(a, kBigPageSize, ProcessorId::gpu(0), t);
    t = drv.prefetch(b1, kBigPageSize, ProcessorId::gpu(1), t);
    Pin pin(drv, a, t);
    sim::SimTime end = drv.prefetch(a, kBigPageSize, ProcessorId::gpu(1), t);
    EXPECT_EQ(pin.render(end - t, {a, b1}), R"(t=139829
U b0 [0-511] gpu0
P ensure-free-chunk +1500
U b1 [0-511] gpu1
T b1 [0-511] d2h eviction
Q b1 used>unused
Q b1 unused>none
Q b0 used>none
P alloc-chunk-evict +94886
Q b0 none>used
T b0 [0-511] h2d prefetch
M b0 [0-511] gpu1
uvm.managed_allocs=1
uvm.managed_bytes=4194304
uvm.gpu_map_ops=3
uvm.gpu_unmap_ops=2
uvm.cpu_map_ops=2
uvm.cpu_unmap_ops=2
uvm.cpu_fault_batches=2
uvm.evictions_used=1
uvm.prefetch_calls=3
uvm.prefetch_migrated_pages=1536
uvm.gpu_to_gpu_migrations=1
uvm.blocks_walked=5
uvm.dma_descriptors=4
uvm.bytes_h2d.prefetch=4194304
uvm.bytes_d2h.eviction=2097152
uvm.bytes_d2d=2097152
gpu0.chunk_allocs=1
gpu0.chunk_frees=1
gpu0.chunks_retired=0
gpu0.allocated=0
gpu1.chunk_allocs=2
gpu1.chunk_frees=1
gpu1.chunks_retired=0
gpu1.allocated=1
b0 on=used chunk=1 owner=1 big=1
  gpu=[0-511] cpu=[] present=[0-511]
  mapped_gpu=[0-511] mapped_cpu=[] prepared=[0-511]
  discarded=[] lazily=[]
b1 on=none chunk=0 owner=-1 big=0
  gpu=[] cpu=[0-511] present=[0-511]
  mapped_gpu=[] mapped_cpu=[] prepared=[]
  discarded=[] lazily=[]
)");
    drv.checkInvariants();
}

TEST(EvictionPin, TrueExhaustionSurfacesGpuOomError)
{
    UvmDriver drv(test::tinyConfig(2), test::testLink());
    drv.reserveGpuMemory(0, 2 * kBigPageSize);
    mem::VirtAddr a = drv.allocManaged(kBigPageSize, "a");
    Pin pin(drv, a, 0);
    EXPECT_THROW(drv.prefetch(a, kBigPageSize, ProcessorId::gpu(0), 0),
                 GpuOomError);
    EXPECT_EQ(pin.render(0, {a}), R"(t=0
P alloc-chunk-evict +0
uvm.managed_allocs=1
uvm.managed_bytes=2097152
uvm.prefetch_calls=1
gpu0.chunk_allocs=0
gpu0.chunk_frees=0
gpu0.chunks_retired=0
gpu0.allocated=0
b0 on=none chunk=0 owner=-1 big=0
  gpu=[] cpu=[] present=[]
  mapped_gpu=[] mapped_cpu=[] prepared=[]
  discarded=[] lazily=[]
)");
}

}  // namespace
}  // namespace uvmd::uvm
