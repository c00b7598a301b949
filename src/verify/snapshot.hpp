/**
 * @file
 * CRUM-style state snapshots of the UVM driver.
 *
 * CRUM (checkpoint-restart for CUDA UVM, see PAPERS.md) captures and
 * replays UVM state to reason about it outside the driver; this
 * module borrows the idea for verification: on the first divergence
 * between the verify::Oracle's reference model and the real driver,
 * the whole driver state is serialized as JSON next to the oracle's
 * expectation, so a failure is diagnosable from the artifact alone —
 * no debugger session against a transient fuzz case required.
 *
 * Page masks serialize as run-lists ("0-127,200,310-511") rather than
 * 512-bit strings: diffs stay human-readable.
 */

#ifndef UVMD_VERIFY_SNAPSHOT_HPP
#define UVMD_VERIFY_SNAPSHOT_HPP

#include <iosfwd>
#include <string>

#include "uvm/driver.hpp"

namespace uvmd::verify {

/** "0-5,9,30-40" for the set pages of @p mask ("" when empty). */
std::string maskToRuns(const uvm::PageMask &mask);

/** Minimal JSON string escaping (quotes, backslashes, control). */
std::string jsonEscape(const std::string &s);

/** One block's full state as a JSON object: its page masks, owner,
 *  chunk and mapping flags, the memAdvise hints (accessed_by and
 *  remote_mapped as GPU bit masks, prefer_cpu), alloc_ordinal and its
 *  queue. */
void dumpBlockJson(std::ostream &os, const uvm::VaBlock &block);

/**
 * The whole driver state — every block of every range, then
 * UvmDriver::dumpStatsJson (counters, per-GPU chunk accounting and
 * queue depths) as "stats" — as one JSON object.
 */
void dumpDriverStateJson(std::ostream &os, uvm::UvmDriver &driver);

}  // namespace uvmd::verify

#endif  // UVMD_VERIFY_SNAPSHOT_HPP
