/**
 * @file
 * Synthetic workload models.
 *
 * The paper evaluates commercial multithreaded workloads (OLTP/DBT-2,
 * Apache/SURGE, SPECjbb), SPLASH-2 scientific codes, and SPEC CPU2000
 * multiprogrammed mixes -- none of which can ship with an open-source
 * reproduction. The mechanisms under study (controlled replication,
 * in-situ communication, capacity stealing) respond to the *statistical
 * structure* of the L2 reference stream, which the paper itself
 * measures: the access mix across private / read-only-shared /
 * read-write-shared data (Figure 5), per-block reuse-count
 * distributions (Figure 7), and working-set sizes. This module
 * generates reference streams with exactly those controllable
 * statistics.
 *
 * Each thread interleaves four streams:
 *  - private data: Zipf-skewed references over a per-thread working
 *    set (capacity behaviour; non-uniform across threads for the
 *    multiprogrammed mixes, which is what capacity stealing exploits);
 *  - shared read-only data: "episodes" that pick a block and revisit
 *    it k times, k drawn from a configurable reuse distribution
 *    matching Figure 7a;
 *  - shared read-write data: writers publish blocks into a global
 *    recently-written registry; readers consume blocks written by
 *    *other* threads a few times each, matching Figure 7b's 2-5 reads
 *    per write;
 *  - instruction fetches over a code region, shared between threads in
 *    multithreaded workloads (commercial codes have large shared
 *    instruction footprints -- a second source of read-only sharing).
 */

#ifndef CNSIM_TRACE_SYNTH_HH
#define CNSIM_TRACE_SYNTH_HH

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "trace/trace.hh"

namespace cnsim
{

/** Reuse-count distribution for shared read-only episodes (Fig. 7a). */
struct ReuseDist
{
    double p0 = 0.42;        //!< fraction of blocks never reused
    double p1 = 0.08;        //!< reused exactly once
    double p2_5 = 0.35;      //!< reused 2-5 times
    double p_more = 0.15;    //!< reused 6-12 times

    /** Draw a reuse count from the distribution. */
    std::uint32_t sample(Rng &rng) const;
};

/** Per-thread parameters of the synthetic model. */
struct SynthThreadParams
{
    /** Mean non-memory instructions between data references. */
    double mean_gap = 2.0;

    /** Fractions of data references by stream (rest is private). */
    double frac_ros = 0.0;
    double frac_rws = 0.0;

    /** Private working set, in L2 (128 B) blocks. */
    std::uint32_t private_blocks = 16384;
    /** Zipf skew over the private working set (0 = uniform). */
    double private_theta = 0.5;
    /**
     * Fraction of private references that hit a small L1-resident hot
     * tier (stack, loop-local data). Real code's L1 hit rates come
     * from this kind of tight reuse, which pure Zipf streams lack.
     */
    double private_hot_frac = 0.0;
    /** Size of the hot tier, in blocks (must fit in L1). */
    std::uint32_t private_hot_blocks = 96;  // 12 KB

    /**
     * Shared read-only region size, in blocks. Commercial footprints
     * (database pages, web documents) far exceed cache capacity, so
     * most blocks are evicted between episodes -- the regime behind
     * the paper's 42%-replaced-without-reuse finding.
     */
    std::uint32_t ros_blocks = 65536;
    /**
     * Probability a new ROS episode follows a block another thread
     * recently read (shared index pages, hot documents) rather than
     * scanning a fresh block. Follower episodes are what produce
     * read-only-sharing misses.
     */
    double ros_follow = 0.6;
    ReuseDist ros_reuse;

    /** Shared read-write region size, in blocks. */
    std::uint32_t rws_blocks = 2048;
    /** Fraction of RWS references that produce a fresh write. */
    double rws_write_frac = 0.25;
    /**
     * Of the consuming references, the fraction that read-modify-write
     * the block (migratory sharing): the block stays dirty and bounces
     * between caches, which is what makes read-write sharing expensive
     * in invalidation protocols.
     */
    double rws_migratory = 0.30;

    /** Code footprint, in L2 blocks (drives L1I misses / ROS). */
    std::uint32_t code_blocks = 2048;
    /** Zipf skew over code blocks. */
    double code_theta = 0.6;
    /** Fraction of fetches staying in an L1I-resident hot loop tier. */
    double code_hot_frac = 0.0;
    /** Size of the hot code tier, in blocks (must fit in L1I). */
    std::uint32_t code_hot_blocks = 192;  // 24 KB

    /** Fraction of data references that are stores (private stream). */
    double store_frac = 0.3;

    /**
     * Fraction of data references that stream through a huge cold
     * region (scans, streaming array sweeps): essentially every such
     * reference misses in any realizable cache, modelling the
     * compulsory/capacity floor both shared and private caches pay.
     */
    double frac_stream = 0.0;
    /** Size of the streamed region, in blocks. */
    std::uint32_t stream_blocks = 256 * 1024;  // 32 MB
};

/** One workload: per-thread parameters plus the shared-region layout. */
struct SynthWorkloadParams
{
    std::vector<SynthThreadParams> threads;
    /** True when threads share the ROS/RWS/code regions. */
    bool shared_regions = true;
    std::uint64_t seed = 1;
};

/**
 * A complete synthetic workload: owns the global cross-thread state
 * (the recently-read ROS and recently-written RWS registries) and the
 * per-thread generators.
 *
 * Because the registries are shared, a thread's records depend on the
 * order in which the threads draw. drawRound() is the only way to
 * draw, and it fixes that order: one record per thread, thread
 * 0..N-1, repeat. That canonical round-robin order, never the
 * simulated timing, defines the workload's stream, so every L2
 * organization, worker count and host sees the same records.
 */
class SynthWorkload
{
  public:
    explicit SynthWorkload(const SynthWorkloadParams &p);
    ~SynthWorkload();

    /** Draw one canonical round into @p out (one slot per thread):
     *  thread 0's next record, then thread 1's, ... then N-1's. */
    void drawRound(std::span<TraceRecord> out);

    /** Region base addresses (for tests). */
    static Addr rosBase() { return 0x10000000ull; }
    static Addr rwsBase() { return 0x20000000ull; }
    static Addr codeBase() { return 0x30000000ull; }
    static Addr privateBase(int thread, bool shared_regions);
    static Addr codeBaseFor(int thread, bool shared_regions);
    static Addr streamBase(int thread);

  private:
    class ThreadSource;
    friend class ThreadSource;

    /** A recently-written RWS block and its author. */
    struct RwsEntry
    {
        Addr addr;
        int writer;
    };

    SynthWorkloadParams params;
    /** Global registry of recently written RWS blocks (ring buffer). */
    std::vector<RwsEntry> rws_recent;
    std::size_t rws_next = 0;
    /** Global registry of recently read ROS blocks (ring buffer). */
    std::vector<Addr> ros_recent;
    std::size_t ros_next = 0;

    std::vector<std::unique_ptr<ThreadSource>> sources;
};

} // namespace cnsim

#endif // CNSIM_TRACE_SYNTH_HH
