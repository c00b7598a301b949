/**
 * @file
 * Streaming 64-bit digest of simulator state.
 *
 * Each layer feeds the state that can change its future into one
 * Digest (cuda::Runtime::stateDigest() drives the walk); nothing is
 * copied.  Two states with equal digests are taken to be equal, so
 * the mix is a full-avalanche one (the MurmurHash3 64-bit body and
 * finalizer), not a cheap combine that structured differences (a
 * swapped pair of queue entries, a mask shifted by a page) could
 * cancel out in.
 *
 * Times enter as offsets from the digest's reference time `now`
 * (addTime), so a state that repeats shifted in time digests the
 * same.
 */

#ifndef UVMD_SIM_DIGEST_HPP
#define UVMD_SIM_DIGEST_HPP

#include <bit>
#include <bitset>
#include <cstdint>
#include <functional>

#include "sim/time.hpp"

namespace uvmd::sim {

class Digest
{
  public:
    /** @param now the reference time addTime() measures from. */
    explicit Digest(SimTime now = 0) : now_(now) {}

    void
    add(std::uint64_t v)
    {
        v *= 0x87c37b91114253d5ULL;
        v = std::rotl(v, 31);
        v *= 0x4cf5ad432745937fULL;
        h_ ^= v;
        h_ = std::rotl(h_, 27) * 5 + 0x52dce729;
    }

    template <std::size_t N>
    void
    add(const std::bitset<N> &mask)
    {
        add(std::hash<std::bitset<N>>{}(mask));
    }

    /**
     * Add a busy-until or ready time @p t as its offset from now(),
     * clamped at 0: every request made after now() starts at or after
     * now(), so a timeline free by now() behaves the same whenever it
     * became free.
     */
    void
    addTime(SimTime t)
    {
        add(static_cast<std::uint64_t>(t > now_ ? t - now_ : 0));
    }

    /** The digest of everything added so far. */
    std::uint64_t
    value() const
    {
        std::uint64_t h = h_;
        h ^= h >> 33;
        h *= 0xff51afd7ed558ccdULL;
        h ^= h >> 33;
        h *= 0xc4ceb9fe1a85ec53ULL;
        h ^= h >> 33;
        return h;
    }

  private:
    SimTime now_;
    std::uint64_t h_ = 0;
};

}  // namespace uvmd::sim

#endif  // UVMD_SIM_DIGEST_HPP
