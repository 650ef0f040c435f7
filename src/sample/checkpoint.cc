#include "sample/checkpoint.hh"

#include <cstring>

#include "common/bytes.hh"
#include "common/fnv.hh"
#include "common/logging.hh"

namespace cnsim
{

namespace sample
{

namespace
{

constexpr char magic[8] = {'C', 'N', 'C', 'K', 'P', 'T', '0', '1'};

/** The trailing FNV-1a word. */
constexpr std::size_t checksum_bytes = sizeof(std::uint64_t);

/** The checksum stored at the end of @p bytes, which must hold one. */
std::uint64_t
storedChecksum(const std::string &bytes)
{
    return ByteReader(bytes.data() + bytes.size() - checksum_bytes,
                      checksum_bytes, "CNCKPT01 checksum")
        .u64();
}

} // namespace

std::string
Checkpoint::serialize() const
{
    ByteWriter w;
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
    w.u8(settings.enable_cr);
    w.u8(settings.enable_isc);
    w.u32(settings.promotion);
    w.u32(settings.replication);
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
    w.u64(fnv1a(w.bytes().data(), w.bytes().size()));
    return w.take();
}

bool
Checkpoint::checksumOk(const std::string &bytes)
{
    if (bytes.size() < sizeof(magic) + checksum_bytes + 4)
        return false;
    if (std::memcmp(bytes.data(), magic, sizeof(magic)) != 0)
        return false;
    if (fnv1a(bytes.data(), bytes.size() - checksum_bytes) !=
        storedChecksum(bytes))
        return false;
    return ByteReader(bytes.data() + sizeof(magic), 4, "CNCKPT01 version")
               .u32() == current_version;
}

Checkpoint
Checkpoint::deserialize(const std::string &bytes, const std::string &what)
{
    if (bytes.size() < sizeof(magic) ||
        std::memcmp(bytes.data(), magic, sizeof(magic)) != 0)
        fatal("'%s' is not a CNCKPT01 checkpoint", what.c_str());
    if (bytes.size() < sizeof(magic) + checksum_bytes)
        fatal("truncated CNCKPT01 checkpoint '%s': no checksum",
              what.c_str());
    std::size_t payload = bytes.size() - checksum_bytes;
    std::uint64_t stored = storedChecksum(bytes);
    std::uint64_t computed = fnv1a(bytes.data(), payload);
    if (stored != computed)
        fatal("CNCKPT01 checksum mismatch in '%s': file is truncated or "
              "corrupt (stored %016llx, computed %016llx)",
              what.c_str(), static_cast<unsigned long long>(stored),
              static_cast<unsigned long long>(computed));

    ByteReader r(bytes.data() + sizeof(magic), payload - sizeof(magic),
                 "CNCKPT01 checkpoint '" + what + "'");
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
    ck.settings.enable_cr = r.u8();
    ck.settings.enable_isc = r.u8();
    ck.settings.promotion = r.u32();
    ck.settings.replication = r.u32();
    if (ck.settings.enable_cr > 1 || ck.settings.enable_isc > 1)
        fatal("corrupt CNCKPT01 checkpoint '%s': CR/ISC flags %u/%u are "
              "not 0 or 1",
              what.c_str(), static_cast<unsigned>(ck.settings.enable_cr),
              static_cast<unsigned>(ck.settings.enable_isc));
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
    if (FileStatus s = writeFile(path, serialize()); !s.ok())
        fatal("cannot save checkpoint '%s': %s", path.c_str(),
              s.error.c_str());
}

Checkpoint
Checkpoint::loadFile(const std::string &path)
{
    std::string bytes;
    if (FileStatus s = readFile(path, bytes); !s.ok())
        fatal("cannot open checkpoint '%s': %s", path.c_str(),
              s.error.c_str());
    return deserialize(bytes, path);
}

void
Checkpoint::validateConfig(std::uint32_t run_cores,
                           std::uint32_t run_l2_kind,
                           std::uint32_t run_interconnect,
                           std::uint64_t run_trace_hash, bool check_trace,
                           const std::string &what,
                           const BehaviourSettings *run_settings) const
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
    if (!run_settings)
        return;
    auto onOff = [](std::uint8_t b) { return b ? "on" : "off"; };
    const BehaviourSettings &run = *run_settings;
    if (settings.enable_cr != run.enable_cr)
        fatal("checkpoint '%s' was warmed with controlled replication "
              "(CR) %s, but this run has it %s",
              what.c_str(), onOff(settings.enable_cr),
              onOff(run.enable_cr));
    if (settings.enable_isc != run.enable_isc)
        fatal("checkpoint '%s' was warmed with in-situ communication "
              "(ISC) %s, but this run has it %s",
              what.c_str(), onOff(settings.enable_isc),
              onOff(run.enable_isc));
    if (settings.promotion != run.promotion)
        fatal("checkpoint '%s' was warmed under promotion policy %u, but "
              "this run uses policy %u",
              what.c_str(), settings.promotion, run.promotion);
    if (settings.replication != run.replication)
        fatal("checkpoint '%s' was warmed under replication policy %u, "
              "but this run uses policy %u",
              what.c_str(), settings.replication, run.replication);
}

} // namespace sample

} // namespace cnsim
