#include "sample/checkpoint.hh"

#include <cstdio>
#include <cstring>

#include "common/fnv.hh"
#include "common/logging.hh"

namespace cnsim
{

namespace sample
{

namespace
{

constexpr char magic[8] = {'C', 'N', 'C', 'K', 'P', 'T', '0', '1'};

} // namespace

void
Writer::f64(double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
}

void
Writer::str(const std::string &s)
{
    u32(static_cast<std::uint32_t>(s.size()));
    raw(s.data(), s.size());
}

void
Writer::raw(const void *p, std::size_t n)
{
    out.append(static_cast<const char *>(p), n);
}

Reader::Reader(const void *data, std::size_t size, std::string w)
    : cur(static_cast<const std::uint8_t *>(data)),
      end(cur + size), what(std::move(w))
{
}

void
Reader::raw(void *p, std::size_t n)
{
    if (remaining() < n)
        fatal("truncated CNCKPT01 checkpoint '%s': need %zu bytes, "
              "%zu remain",
              what.c_str(), n, remaining());
    std::memcpy(p, cur, n);
    cur += n;
}

std::uint8_t
Reader::u8()
{
    std::uint8_t v;
    raw(&v, sizeof(v));
    return v;
}

std::uint32_t
Reader::u32()
{
    std::uint32_t v;
    raw(&v, sizeof(v));
    return v;
}

std::uint64_t
Reader::u64()
{
    std::uint64_t v;
    raw(&v, sizeof(v));
    return v;
}

double
Reader::f64()
{
    std::uint64_t bits = u64();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
}

std::string
Reader::str()
{
    std::uint32_t n = u32();
    if (remaining() < n)
        fatal("truncated CNCKPT01 checkpoint '%s': string of %u bytes "
              "overruns the payload",
              what.c_str(), n);
    std::string s(reinterpret_cast<const char *>(cur), n);
    cur += n;
    return s;
}

void
Reader::expectExhausted() const
{
    if (remaining() != 0)
        fatal("corrupt CNCKPT01 checkpoint '%s': %zu trailing bytes",
              what.c_str(), remaining());
}

std::string
Checkpoint::serialize() const
{
    Writer w;
    w.raw(magic, sizeof(magic));
    w.u32(version);
    w.u32(num_cores);
    w.u32(l2_kind);
    w.u32(interconnect);
    w.tick(tick);
    w.u64(events_executed);
    w.u64(trace_params_hash);
    w.u64(trace_seed);
    w.u64(warmup_instructions);
    cnsim_assert(cores.size() == num_cores,
                 "checkpoint has %zu core states for %u cores",
                 cores.size(), num_cores);
    for (const CoreState &c : cores) {
        w.u64(c.instructions);
        w.u64(c.data_refs);
        w.tick(c.step_when);
        w.u64(c.step_seq);
        w.u64(c.consumed);
    }
    w.u32(static_cast<std::uint32_t>(meta.size()));
    for (const auto &m : meta) {
        w.str(m.first);
        w.u64(m.second);
    }
    w.u64(arch.size());
    w.raw(arch.data(), arch.size());
    std::string out = w.take();
    std::uint64_t sum = fnv1a(out.data(), out.size());
    out.append(reinterpret_cast<const char *>(&sum), sizeof(sum));
    return out;
}

bool
Checkpoint::checksumOk(const std::string &bytes)
{
    if (bytes.size() < sizeof(magic) + sizeof(std::uint64_t) + 4)
        return false;
    if (std::memcmp(bytes.data(), magic, sizeof(magic)) != 0)
        return false;
    std::size_t payload = bytes.size() - sizeof(std::uint64_t);
    std::uint64_t stored;
    std::memcpy(&stored, bytes.data() + payload, sizeof(stored));
    if (fnv1a(bytes.data(), payload) != stored)
        return false;
    std::uint32_t version;
    std::memcpy(&version, bytes.data() + sizeof(magic), sizeof(version));
    return version == current_version;
}

Checkpoint
Checkpoint::deserialize(const std::string &bytes, const std::string &what)
{
    if (bytes.size() < sizeof(magic) ||
        std::memcmp(bytes.data(), magic, sizeof(magic)) != 0)
        fatal("'%s' is not a CNCKPT01 checkpoint", what.c_str());
    if (bytes.size() < sizeof(magic) + sizeof(std::uint64_t))
        fatal("truncated CNCKPT01 checkpoint '%s': no checksum",
              what.c_str());
    std::size_t payload = bytes.size() - sizeof(std::uint64_t);
    std::uint64_t stored;
    std::memcpy(&stored, bytes.data() + payload, sizeof(stored));
    std::uint64_t computed = fnv1a(bytes.data(), payload);
    if (stored != computed)
        fatal("CNCKPT01 checksum mismatch in '%s': file is truncated or "
              "corrupt (stored %016llx, computed %016llx)",
              what.c_str(), static_cast<unsigned long long>(stored),
              static_cast<unsigned long long>(computed));

    Reader r(bytes.data() + sizeof(magic), payload - sizeof(magic), what);
    Checkpoint ck;
    ck.version = r.u32();
    if (ck.version != current_version)
        fatal("unsupported CNCKPT01 version %u in '%s' (this build reads "
              "version %u)",
              ck.version, what.c_str(), current_version);
    ck.num_cores = r.u32();
    ck.l2_kind = r.u32();
    ck.interconnect = r.u32();
    ck.tick = r.tick();
    ck.events_executed = r.u64();
    ck.trace_params_hash = r.u64();
    ck.trace_seed = r.u64();
    ck.warmup_instructions = r.u64();
    if (ck.num_cores == 0 || ck.num_cores > 1024)
        fatal("corrupt CNCKPT01 checkpoint '%s': implausible core count "
              "%u",
              what.c_str(), ck.num_cores);
    ck.cores.resize(ck.num_cores);
    for (CoreState &c : ck.cores) {
        c.instructions = r.u64();
        c.data_refs = r.u64();
        c.step_when = r.tick();
        c.step_seq = r.u64();
        c.consumed = r.u64();
    }
    std::uint32_t n_meta = r.u32();
    ck.meta.reserve(n_meta);
    for (std::uint32_t i = 0; i < n_meta; ++i) {
        std::string name = r.str();
        std::uint64_t value = r.u64();
        ck.meta.emplace_back(std::move(name), value);
    }
    std::uint64_t arch_len = r.u64();
    if (r.remaining() < arch_len)
        fatal("truncated CNCKPT01 checkpoint '%s': architectural payload "
              "of %llu bytes overruns the file",
              what.c_str(), static_cast<unsigned long long>(arch_len));
    ck.arch.resize(static_cast<std::size_t>(arch_len));
    r.raw(ck.arch.data(), ck.arch.size());
    r.expectExhausted();
    return ck;
}

void
Checkpoint::saveFile(const std::string &path) const
{
    std::string bytes = serialize();
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        fatal("cannot open checkpoint '%s' for writing", path.c_str());
    std::size_t n = std::fwrite(bytes.data(), 1, bytes.size(), f);
    if (n != bytes.size() || std::fclose(f) != 0)
        fatal("short write saving checkpoint '%s'", path.c_str());
}

Checkpoint
Checkpoint::loadFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        fatal("cannot open checkpoint '%s'", path.c_str());
    std::string bytes;
    char buf[65536];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, n);
    std::fclose(f);
    return deserialize(bytes, path);
}

void
Checkpoint::validateConfig(std::uint32_t run_cores,
                           std::uint32_t run_l2_kind,
                           std::uint32_t run_interconnect,
                           std::uint64_t run_trace_hash, bool check_trace,
                           const std::string &what) const
{
    if (num_cores != run_cores)
        fatal("checkpoint '%s' was taken on a %u-core system but this "
              "run has %u cores",
              what.c_str(), num_cores, run_cores);
    if (l2_kind != run_l2_kind)
        fatal("checkpoint '%s' was taken with a different L2 "
              "organization (kind %u, this run is kind %u)",
              what.c_str(), l2_kind, run_l2_kind);
    if (interconnect != run_interconnect)
        fatal("checkpoint '%s' was taken on a different interconnect "
              "(%u, this run uses %u)",
              what.c_str(), interconnect, run_interconnect);
    if (check_trace && trace_params_hash != run_trace_hash)
        fatal("checkpoint '%s' was warmed on a different reference "
              "stream (trace hash %016llx, this run replays %016llx)",
              what.c_str(),
              static_cast<unsigned long long>(trace_params_hash),
              static_cast<unsigned long long>(run_trace_hash));
}

} // namespace sample

} // namespace cnsim
