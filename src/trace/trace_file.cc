#include "trace/trace_file.hh"

#include <cstring>
#include <string_view>
#include <vector>

#include "common/bytes.hh"
#include "common/logging.hh"

namespace cnsim
{

namespace
{

constexpr char trf_magic[8] = {'C', 'N', 'T', 'R', 'F', '0', '0', '1'};

/** Sanity bound: more cores than this means a corrupt header. */
constexpr std::uint32_t trf_max_cores = 1024;

} // namespace

void
writeTrf(const std::string &path, const PackedTrace &trace)
{
    cnsim_assert(!trace.cores.empty(), "packed trace has no cores");
    ByteWriter w;
    w.raw(trf_magic, sizeof(trf_magic));
    w.u32(static_cast<std::uint32_t>(trace.cores.size()));
    w.u32(0);  // reserved
    w.u64(trace.params_hash);
    w.u64(trace.seed);
    for (const PackedCoreTrace &c : trace.cores) {
        w.u64(c.n_records);
        w.u64(c.bytes.size());
    }
    std::vector<std::string_view> parts{w.bytes()};
    for (const PackedCoreTrace &c : trace.cores)
        parts.emplace_back(reinterpret_cast<const char *>(c.bytes.data()),
                           c.bytes.size());
    if (FileStatus s = writeFile(path, parts); !s.ok())
        fatal("cannot write trace file '%s': %s", path.c_str(),
              s.error.c_str());
}

PackedTrace
readTrf(const std::string &path)
{
    std::string file;
    if (FileStatus s = readFile(path, file); !s.ok())
        fatal("cannot open trace file '%s': %s", path.c_str(),
              s.error.c_str());
    if (file.size() < sizeof(trf_magic) ||
        std::memcmp(file.data(), trf_magic, sizeof(trf_magic)) != 0)
        fatal("'%s' is not a CNTRF001 trace file", path.c_str());
    ByteReader r(file.data() + sizeof(trf_magic),
                 file.size() - sizeof(trf_magic),
                 "CNTRF001 header in '" + path + "'");
    PackedTrace t;
    std::uint32_t num_cores = r.u32();
    (void)r.u32();  // reserved
    t.params_hash = r.u64();
    t.seed = r.u64();
    if (num_cores == 0 || num_cores > trf_max_cores)
        fatal("corrupt CNTRF001 header in '%s': %u cores", path.c_str(),
              num_cores);
    t.cores.resize(num_cores);
    std::vector<std::uint64_t> n_bytes(num_cores);
    for (std::uint32_t i = 0; i < num_cores; ++i) {
        t.cores[i].n_records = r.u64();
        n_bytes[i] = r.u64();
    }
    // Check every size against the payload the file really holds before
    // sizing any buffer by it, so a hostile header cannot balloon the
    // allocation here (or replay's, which is sized by the record count).
    std::uint64_t left = r.remaining();
    for (std::uint32_t i = 0; i < num_cores; ++i) {
        PackedCoreTrace &c = t.cores[i];
        if (c.n_records == 0)
            fatal("corrupt CNTRF001 header in '%s': core %u has no records",
                  path.c_str(), i);
        if (n_bytes[i] > left)
            fatal("truncated CNTRF001 payload in '%s': core %u declares "
                  "%llu bytes but only %llu remain",
                  path.c_str(), i,
                  static_cast<unsigned long long>(n_bytes[i]),
                  static_cast<unsigned long long>(left));
        // A packed record takes at least 3 bytes (one varint per
        // field); more than 30 per record is corruption too.
        if (c.n_records > n_bytes[i] / 3 || n_bytes[i] > c.n_records * 30)
            fatal("corrupt CNTRF001 header in '%s': %llu records in "
                  "%llu bytes",
                  path.c_str(),
                  static_cast<unsigned long long>(c.n_records),
                  static_cast<unsigned long long>(n_bytes[i]));
        left -= n_bytes[i];
        c.bytes.resize(n_bytes[i]);
        r.raw(c.bytes.data(), c.bytes.size());
    }
    // The payload must end exactly where the header said it would.
    if (r.remaining() != 0)
        fatal("trailing garbage after CNTRF001 payload in '%s'",
              path.c_str());
    return t;
}

} // namespace cnsim
