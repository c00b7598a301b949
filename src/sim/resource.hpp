/**
 * @file
 * Timeline resources for engine occupancy modelling.
 *
 * A Resource models a serially-occupied hardware engine (GPU compute,
 * the H2D DMA engine, the D2H DMA engine, the host CPU thread).  Work
 * is modelled by *reserving* a span on the engine's timeline: the
 * reservation starts no earlier than both the requested time and the
 * engine's earliest-free time, and pushes the earliest-free time to its
 * end.  Combined with the runtime's stream dispatch this gives a simple
 * but faithful model of asynchronous overlap between computation and
 * DMA traffic.
 */

#ifndef UVMD_SIM_RESOURCE_HPP
#define UVMD_SIM_RESOURCE_HPP

#include "sim/time.hpp"

namespace uvmd::sim {

class Resource
{
  public:
    /** Earliest time at which new work could begin. */
    SimTime freeAt() const { return free_at_; }

    /** Total busy time accumulated on this engine. */
    SimDuration busyTime() const { return busy_; }

    /**
     * Reserve @p duration of engine time starting no earlier than
     * @p earliest.
     * @return the completion time of the reserved span.
     */
    SimTime
    reserve(SimTime earliest, SimDuration duration)
    {
        SimTime start = earliest > free_at_ ? earliest : free_at_;
        free_at_ = start + duration;
        busy_ += duration;
        return free_at_;
    }

    /** Reset the timeline (between independent experiment runs). */
    void
    reset()
    {
        free_at_ = 0;
        busy_ = 0;
    }

  private:
    SimTime free_at_ = 0;
    SimDuration busy_ = 0;
};

}  // namespace uvmd::sim

#endif  // UVMD_SIM_RESOURCE_HPP
