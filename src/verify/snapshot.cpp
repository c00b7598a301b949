#include "verify/snapshot.hpp"

#include <ostream>
#include <sstream>

#include "mem/page.hpp"

namespace uvmd::verify {

std::string
maskToRuns(const uvm::PageMask &mask)
{
    std::ostringstream os;
    bool first = true;
    mem::forEachRun(mask, [&](std::uint32_t lo, std::uint32_t hi) {
        if (!first)
            os << ",";
        first = false;
        if (lo == hi)
            os << lo;
        else
            os << lo << "-" << hi;
    });
    return os.str();
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
dumpBlockJson(std::ostream &os, const uvm::VaBlock &block)
{
    os << "{\"base\":" << block.base
       << ",\"valid\":\"" << maskToRuns(block.valid) << "\""
       << ",\"resident_cpu\":\"" << maskToRuns(block.resident_cpu)
       << "\""
       << ",\"resident_gpu\":\"" << maskToRuns(block.resident_gpu)
       << "\""
       << ",\"cpu_pages_present\":\""
       << maskToRuns(block.cpu_pages_present) << "\""
       << ",\"mapped_cpu\":\"" << maskToRuns(block.mapped_cpu) << "\""
       << ",\"mapped_gpu\":\"" << maskToRuns(block.mapped_gpu) << "\""
       << ",\"discarded\":\"" << maskToRuns(block.discarded) << "\""
       << ",\"discarded_lazily\":\""
       << maskToRuns(block.discarded_lazily) << "\""
       << ",\"gpu_prepared\":\"" << maskToRuns(block.gpu_prepared)
       << "\""
       << ",\"owner_gpu\":" << block.owner_gpu
       << ",\"has_gpu_chunk\":"
       << (block.has_gpu_chunk ? "true" : "false")
       << ",\"gpu_mapping_big\":"
       << (block.gpu_mapping_big ? "true" : "false")
       << ",\"accessed_by\":" << unsigned{block.accessed_by}
       << ",\"prefer_cpu\":" << (block.prefer_cpu ? "true" : "false")
       << ",\"remote_mapped\":" << unsigned{block.remote_mapped}
       << ",\"alloc_ordinal\":" << block.alloc_ordinal
       << ",\"queue\":\"" << mem::toString(block.link.on) << "\""
       << "}";
}

void
dumpDriverStateJson(std::ostream &os, uvm::UvmDriver &driver)
{
    os << "{\"blocks\":[";
    bool first = true;
    driver.vaSpace().forEachBlockAll([&](uvm::VaBlock &b) {
        if (!first)
            os << ",";
        first = false;
        dumpBlockJson(os, b);
    });
    os << "],\"stats\":";
    driver.dumpStatsJson(os);
    os << "}";
}

}  // namespace uvmd::verify
