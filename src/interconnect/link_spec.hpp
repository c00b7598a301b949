/**
 * @file
 * Link technology descriptions and transfer directions: the static
 * half of an interconnect::Link, which adds the copy engines and the
 * traffic totals of one wire.
 */

#ifndef UVMD_INTERCONNECT_LINK_SPEC_HPP
#define UVMD_INTERCONNECT_LINK_SPEC_HPP

#include <cstdint>
#include <string>

#include "sim/time.hpp"

namespace uvmd::interconnect {

enum class Direction : std::uint8_t { kHostToDevice, kDeviceToHost };

const char *toString(Direction dir);

/** Static description of a link technology. */
struct LinkSpec {
    std::string name;
    double peak_gbps;        ///< peak one-direction bandwidth, GB/s
    sim::SimDuration setup;  ///< fixed per-transfer latency

    /** PCIe gen3 x16 (paper: ~12 GB/s effective). */
    static LinkSpec pcie3();
    /** PCIe gen4 x16, DDR4-3200 bound (paper Section 7.1: 25 GB/s). */
    static LinkSpec pcie4();
    /** NVLink-class coherent link (Section 2.3 discussion; ablation). */
    static LinkSpec nvlink();
};

}  // namespace uvmd::interconnect

#endif  // UVMD_INTERCONNECT_LINK_SPEC_HPP
