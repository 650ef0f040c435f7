#include "trace/trace_file.hh"

#include <cstdio>
#include <cstring>

#include "common/logging.hh"

namespace cnsim
{

namespace
{

constexpr char trf_magic[8] = {'C', 'N', 'T', 'R', 'F', '0', '0', '1'};

/** Sanity bound: more cores than this means a corrupt header. */
constexpr std::uint32_t trf_max_cores = 1024;

void
putU32(std::FILE *fp, std::uint32_t v)
{
    unsigned char b[4];
    for (int i = 0; i < 4; ++i)
        b[i] = static_cast<unsigned char>(v >> (8 * i));
    std::fwrite(b, 1, 4, fp);
}

void
putU64(std::FILE *fp, std::uint64_t v)
{
    unsigned char b[8];
    for (int i = 0; i < 8; ++i)
        b[i] = static_cast<unsigned char>(v >> (8 * i));
    std::fwrite(b, 1, 8, fp);
}

bool
getU32(std::FILE *fp, std::uint32_t &v)
{
    unsigned char b[4];
    if (std::fread(b, 1, 4, fp) != 4)
        return false;
    v = 0;
    for (int i = 3; i >= 0; --i)
        v = (v << 8) | b[i];
    return true;
}

bool
getU64(std::FILE *fp, std::uint64_t &v)
{
    unsigned char b[8];
    if (std::fread(b, 1, 8, fp) != 8)
        return false;
    v = 0;
    for (int i = 7; i >= 0; --i)
        v = (v << 8) | b[i];
    return true;
}

/** @return the bytes between @p fp's position and the end of its file. */
std::uint64_t
bytesLeft(std::FILE *fp)
{
    long here = std::ftell(fp);
    std::fseek(fp, 0, SEEK_END);
    long end = std::ftell(fp);
    std::fseek(fp, here, SEEK_SET);
    return end > here ? static_cast<std::uint64_t>(end - here) : 0;
}

} // namespace

void
writeTrf(const std::string &path, const PackedTrace &trace)
{
    cnsim_assert(!trace.cores.empty(), "packed trace has no cores");
    std::FILE *fp = std::fopen(path.c_str(), "wb");
    if (!fp)
        fatal("cannot open trace file '%s' for writing", path.c_str());
    std::fwrite(trf_magic, 1, sizeof(trf_magic), fp);
    putU32(fp, static_cast<std::uint32_t>(trace.cores.size()));
    putU32(fp, 0);  // reserved
    putU64(fp, trace.params_hash);
    putU64(fp, trace.seed);
    for (const PackedCoreTrace &c : trace.cores) {
        putU64(fp, c.n_records);
        putU64(fp, c.bytes.size());
    }
    for (const PackedCoreTrace &c : trace.cores) {
        if (!c.bytes.empty())
            std::fwrite(c.bytes.data(), 1, c.bytes.size(), fp);
    }
    if (std::ferror(fp)) {
        std::fclose(fp);
        fatal("I/O error writing trace file '%s'", path.c_str());
    }
    std::fclose(fp);
}

PackedTrace
readTrf(const std::string &path)
{
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    if (!fp)
        fatal("cannot open trace file '%s'", path.c_str());
    char m[8];
    if (std::fread(m, 1, 8, fp) != 8 ||
        std::memcmp(m, trf_magic, 8) != 0) {
        std::fclose(fp);
        fatal("'%s' is not a CNTRF001 trace file", path.c_str());
    }
    std::uint32_t num_cores = 0, reserved = 0;
    PackedTrace t;
    if (!getU32(fp, num_cores) || !getU32(fp, reserved) ||
        !getU64(fp, t.params_hash) || !getU64(fp, t.seed)) {
        std::fclose(fp);
        fatal("truncated CNTRF001 header in '%s'", path.c_str());
    }
    if (num_cores == 0 || num_cores > trf_max_cores) {
        std::fclose(fp);
        fatal("corrupt CNTRF001 header in '%s': %u cores", path.c_str(),
              num_cores);
    }
    t.cores.resize(num_cores);
    std::vector<std::uint64_t> n_bytes(num_cores);
    for (std::uint32_t i = 0; i < num_cores; ++i) {
        if (!getU64(fp, t.cores[i].n_records) || !getU64(fp, n_bytes[i])) {
            std::fclose(fp);
            fatal("truncated CNTRF001 header in '%s'", path.c_str());
        }
    }
    // Check every size against the payload the file really holds before
    // sizing any buffer by it, so a hostile header cannot balloon the
    // allocation here (or replay's, which is sized by the record count).
    std::uint64_t left = bytesLeft(fp);
    for (std::uint32_t i = 0; i < num_cores; ++i) {
        PackedCoreTrace &c = t.cores[i];
        if (c.n_records == 0) {
            std::fclose(fp);
            fatal("corrupt CNTRF001 header in '%s': core %u has no records",
                  path.c_str(), i);
        }
        if (n_bytes[i] > left) {
            std::fclose(fp);
            fatal("truncated CNTRF001 payload in '%s': core %u declares "
                  "%llu bytes but only %llu remain",
                  path.c_str(), i,
                  static_cast<unsigned long long>(n_bytes[i]),
                  static_cast<unsigned long long>(left));
        }
        // A packed record takes at least 3 bytes (one varint per
        // field); more than 30 per record is corruption too.
        if (c.n_records > n_bytes[i] / 3 ||
            n_bytes[i] > c.n_records * 30) {
            std::fclose(fp);
            fatal("corrupt CNTRF001 header in '%s': %llu records in "
                  "%llu bytes",
                  path.c_str(),
                  static_cast<unsigned long long>(c.n_records),
                  static_cast<unsigned long long>(n_bytes[i]));
        }
        left -= n_bytes[i];
        c.bytes.resize(n_bytes[i]);
    }
    for (PackedCoreTrace &c : t.cores) {
        if (std::fread(c.bytes.data(), 1, c.bytes.size(), fp) !=
            c.bytes.size()) {
            std::fclose(fp);
            fatal("truncated CNTRF001 payload in '%s'", path.c_str());
        }
    }
    // The payload must end exactly where the header said it would.
    if (std::fgetc(fp) != EOF) {
        std::fclose(fp);
        fatal("trailing garbage after CNTRF001 payload in '%s'",
              path.c_str());
    }
    std::fclose(fp);
    return t;
}

} // namespace cnsim
