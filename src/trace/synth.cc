#include "trace/synth.hh"

#include <algorithm>

#include "common/logging.hh"
#include "common/zipf.hh"

namespace cnsim
{

namespace
{
constexpr unsigned l2_block = 128;
/** Capacity of the global recently-written RWS registry. */
constexpr std::size_t rws_registry_size = 64;
} // namespace

std::uint32_t
ReuseDist::sample(Rng &rng) const
{
    double u = rng.uniform();
    if (u < p0)
        return 0;
    if (u < p0 + p1)
        return 1;
    if (u < p0 + p1 + p2_5)
        return rng.range(2, 5);
    return rng.range(6, 12);
}

Addr
SynthWorkload::privateBase(int thread, bool shared_regions)
{
    (void)shared_regions;
    return 0x40000000ull + static_cast<Addr>(thread) * 0x10000000ull;
}

Addr
SynthWorkload::codeBaseFor(int thread, bool shared_regions)
{
    if (shared_regions)
        return codeBase();
    return codeBase() + static_cast<Addr>(thread + 1) * 0x1000000ull;
}

Addr
SynthWorkload::streamBase(int thread)
{
    return 0x100000000ull + static_cast<Addr>(thread) * 0x10000000ull;
}

/** Per-thread generator implementing the four-stream model. */
class SynthWorkload::ThreadSource
{
  public:
    ThreadSource(SynthWorkload &wl, int thread,
                 const SynthThreadParams &p, std::uint64_t seed)
        : wl(wl), thread(thread), p(p),
          rng(seed, 0x9e3779b97f4a7c15ULL + thread),
          gap_bound(static_cast<std::uint32_t>(2.0 * p.mean_gap + 0.5)),
          code_base(codeBaseFor(thread, wl.params.shared_regions)),
          priv_base(privateBase(thread, wl.params.shared_regions)),
          stream_base(streamBase(thread)),
          th_rws(p.frac_rws),
          th_ros(p.frac_rws + p.frac_ros),
          th_stream(p.frac_rws + p.frac_ros + p.frac_stream),
          reuse_th1(p.ros_reuse.p0 + p.ros_reuse.p1),
          reuse_th2(p.ros_reuse.p0 + p.ros_reuse.p1 + p.ros_reuse.p2_5),
          code_hot_bound(std::min(p.code_hot_blocks, p.code_blocks)),
          priv_hot_bound(std::min(p.private_hot_blocks,
                                  p.private_blocks)),
          code_table(p.code_theta > 0.0 && p.code_blocks > 0
                         ? ZipfTable::get(p.code_blocks, p.code_theta)
                         : nullptr),
          priv_table(p.private_theta > 0.0 && p.private_blocks > 0
                         ? ZipfTable::get(p.private_blocks,
                                          p.private_theta)
                         : nullptr)
    {
    }

    TraceRecord
    next()
    {
        TraceRecord r;
        // Geometric-ish gap with mean mean_gap: uniform over
        // [0, 2*mean] keeps the mean with bounded variance.
        r.gap = rng.range(0, gap_bound);
        r.iaddr = nextIfetch();

        double u = rng.uniform();
        if (u < th_rws && p.rws_blocks > 0) {
            genRws(r);
        } else if (u < th_ros && p.ros_blocks > 0) {
            genRos(r);
        } else if (u < th_stream && p.stream_blocks > 0) {
            genStream(r);
        } else {
            genPrivate(r);
        }
        return r;
    }

  private:
    Addr
    nextIfetch()
    {
        // Mostly-sequential fetch through a Zipf-weighted code block:
        // stay within the current block for a few fetches, then jump.
        if (code_run == 0) {
            if (rng.chance(p.code_hot_frac)) {
                code_block = rng.below(code_hot_bound);
            } else {
                code_block = code_table
                                 ? code_table->sample(rng)
                                 : rng.below(p.code_blocks);
            }
            code_run = rng.range(2, 8);
        }
        --code_run;
        return code_base + static_cast<Addr>(code_block) * l2_block +
               rng.below(l2_block / 64) * 64;
    }

    void
    genPrivate(TraceRecord &r)
    {
        std::uint32_t blk;
        if (rng.chance(p.private_hot_frac)) {
            // L1-resident hot tier: stack frames and loop-local data.
            blk = rng.below(priv_hot_bound);
        } else {
            blk = priv_table ? priv_table->sample(rng)
                             : rng.below(p.private_blocks);
        }
        r.addr = priv_base + static_cast<Addr>(blk) * l2_block +
                 rng.below(l2_block / 64) * 64;
        r.op = rng.chance(p.store_frac) ? MemOp::Store : MemOp::Load;
    }

    /**
     * ReuseDist::sample with the cumulative thresholds precomputed at
     * construction (identical arithmetic, so identical draws).
     */
    std::uint32_t
    sampleReuse()
    {
        double u = rng.uniform();
        if (u < p.ros_reuse.p0)
            return 0;
        if (u < reuse_th1)
            return 1;
        if (u < reuse_th2)
            return rng.range(2, 5);
        return rng.range(6, 12);
    }

    void
    genStream(TraceRecord &r)
    {
        // Advance a coarse-grained sequential scan; successive touches
        // land in fresh blocks, so neither L1 nor any L2 retains them
        // usefully.
        stream_pos = (stream_pos + 1) % p.stream_blocks;
        r.addr = stream_base +
                 static_cast<Addr>(stream_pos) * l2_block;
        r.op = rng.chance(0.2) ? MemOp::Store : MemOp::Load;
    }

    void
    genRos(TraceRecord &r)
    {
        r.op = MemOp::Load;
        auto &recent = wl.ros_recent;
        if (ros_remaining == 0) {
            // Start a new episode: either follow a block another
            // thread recently read (that is read-only *sharing*) or
            // scan a fresh block from the huge read-only footprint.
            if (!recent.empty() && rng.chance(p.ros_follow)) {
                ros_addr = recent[rng.below(
                    static_cast<std::uint32_t>(recent.size()))];
            } else {
                ros_addr = rosBase() +
                           static_cast<Addr>(rng.below(p.ros_blocks)) *
                               l2_block;
                constexpr std::size_t ros_registry_size = 128;
                if (recent.size() < ros_registry_size) {
                    recent.push_back(ros_addr);
                } else {
                    recent[wl.ros_next] = ros_addr;
                    wl.ros_next = (wl.ros_next + 1) % ros_registry_size;
                }
            }
            // Total accesses this episode = 1 + sampled reuse count.
            ros_remaining = 1 + sampleReuse();
        }
        --ros_remaining;
        r.addr = ros_addr;
    }

    void
    genRws(TraceRecord &r)
    {
        auto &recent = wl.rws_recent;
        bool write = rng.chance(p.rws_write_frac) || recent.empty();
        if (write) {
            std::uint32_t blk = rng.below(p.rws_blocks);
            r.addr = rwsBase() + static_cast<Addr>(blk) * l2_block;
            r.op = MemOp::Store;
            if (recent.size() < rws_registry_size) {
                recent.push_back({r.addr, thread});
            } else {
                recent[wl.rws_next] = {r.addr, thread};
                wl.rws_next = (wl.rws_next + 1) % rws_registry_size;
            }
            return;
        }
        // Consume a recently written block, preferring other threads'
        // writes (that is what makes it communication). Consumers are
        // *sticky*: each write is read 2-5 times by a reader before it
        // moves on (paper Figure 7b / Section 3.2: "each write is
        // usually read more than once by each reader"). A migratory
        // fraction of consumers finish with a read-modify-write,
        // keeping the block dirty as it bounces between caches.
        if (rws_remaining == 0) {
            std::size_t pick = 0;
            for (int attempt = 0; attempt < 4; ++attempt) {
                pick =
                    rng.below(static_cast<std::uint32_t>(recent.size()));
                if (recent[pick].writer != thread)
                    break;
            }
            rws_addr = recent[pick].addr;
            rws_remaining = rng.range(2, 5);
            rws_migratory = rng.chance(p.rws_migratory);
        }
        --rws_remaining;
        r.addr = rws_addr;
        if (rws_remaining == 0 && rws_migratory) {
            // Final access of the episode: the read-modify-write.
            r.op = MemOp::Store;
            for (auto &e : recent) {
                if (e.addr == rws_addr)
                    e.writer = thread;
            }
        } else {
            r.op = MemOp::Load;
        }
    }

    SynthWorkload &wl;
    int thread;
    SynthThreadParams p;
    Rng rng;
    /** Per-record constants hoisted out of next() (byte-identical to
     *  recomputing them: the inputs are fixed at construction). */
    std::uint32_t gap_bound;
    Addr code_base;
    Addr priv_base;
    Addr stream_base;
    double th_rws;
    double th_ros;
    double th_stream;
    double reuse_th1;
    double reuse_th2;
    std::uint32_t code_hot_bound;
    std::uint32_t priv_hot_bound;
    /** Alias tables held directly so the hot path skips the shared
     *  table-cache mutex inside Rng::zipf; null when theta <= 0. */
    std::shared_ptr<const ZipfTable> code_table;
    std::shared_ptr<const ZipfTable> priv_table;
    Addr ros_addr = 0;
    std::uint32_t ros_remaining = 0;
    std::uint32_t code_block = 0;
    std::uint32_t code_run = 0;
    std::uint32_t stream_pos = 0;
    Addr rws_addr = 0;
    std::uint32_t rws_remaining = 0;
    bool rws_migratory = false;
};

SynthWorkload::SynthWorkload(const SynthWorkloadParams &p) : params(p)
{
    cnsim_assert(!p.threads.empty(), "workload needs at least one thread");
    rws_recent.reserve(rws_registry_size);
    for (int t = 0; t < static_cast<int>(p.threads.size()); ++t) {
        sources.emplace_back(std::make_unique<ThreadSource>(
            *this, t, p.threads[t], p.seed * 7919 + t));
    }
}

SynthWorkload::~SynthWorkload() = default;

void
SynthWorkload::drawRound(std::span<TraceRecord> out)
{
    cnsim_assert(out.size() == sources.size(),
                 "a round draws one record for each of %zu threads",
                 sources.size());
    for (std::size_t t = 0; t < sources.size(); ++t)
        out[t] = sources[t]->next();
}

} // namespace cnsim
