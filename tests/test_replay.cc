/**
 * @file
 * Tests for the packed trace capture/replay subsystem: encode/decode
 * round-trip fuzzing, CNTRF001 file validation (corrupt and truncated
 * inputs must be rejected loudly), wrap semantics (also for traces
 * around the replay prefetch distance), canonical-order determinism
 * including concurrent chunk growth and round-robin readers across
 * chunk boundaries, the process-wide TraceCache, end-to-end replay
 * equality across worker counts, and the stream-sharing rule (which
 * streams a ParallelRunner batch materializes, and a lone run reading
 * a held trace).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "farm/cell.hh"
#include "sim/parallel_runner.hh"
#include "sim/runner.hh"
#include "trace/replay.hh"
#include "trace/trace_file.hh"
#include "trace/workloads.hh"

namespace cnsim
{
namespace
{

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "cnsim_replay_" + tag +
           ".trf";
}

bool
sameRecord(const TraceRecord &a, const TraceRecord &b)
{
    return a.gap == b.gap && a.iaddr == b.iaddr && a.addr == b.addr &&
           a.op == b.op;
}

/** Random record with adversarial deltas (both signs, full range). */
TraceRecord
fuzzRecord(Rng &rng)
{
    TraceRecord r;
    // Mix small gaps (the common case) with full-range u32 gaps.
    r.gap = rng.chance(0.9) ? rng.below(200)
                            : rng.below(0xffffffffu);
    auto addr64 = [&rng]() {
        return (static_cast<Addr>(rng.below(0xffffffffu)) << 32) ^
               rng.below(0xffffffffu);
    };
    r.iaddr = addr64();
    r.addr = addr64();
    std::uint32_t op = rng.below(3);
    r.op = op == 0 ? MemOp::Load : op == 1 ? MemOp::Store
                                           : MemOp::Ifetch;
    return r;
}

/**
 * Write a one-core CNTRF001 file whose header declares @p n_records
 * records in @p n_bytes bytes, followed by the @p payload bytes.
 */
std::string
writeOneCoreTrf(const char *tag, std::uint64_t n_records,
                std::uint64_t n_bytes,
                const std::vector<unsigned char> &payload)
{
    std::string path = tempPath(tag);
    std::vector<unsigned char> bytes = {'C', 'N', 'T', 'R',
                                        'F', '0', '0', '1'};
    auto put = [&bytes](std::uint64_t v, int width) {
        for (int i = 0; i < width; ++i)
            bytes.push_back(static_cast<unsigned char>(v >> (8 * i)));
    };
    put(1, 4); // num_cores
    put(0, 4); // reserved
    put(0, 8); // params_hash
    put(0, 8); // seed
    put(n_records, 8);
    put(n_bytes, 8);
    bytes.insert(bytes.end(), payload.begin(), payload.end());
    std::FILE *fp = std::fopen(path.c_str(), "wb");
    EXPECT_NE(fp, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size(), fp);
    std::fclose(fp);
    return path;
}

/** Drain @p n records from a ReplaySource. */
std::vector<TraceRecord>
drain(ReplaySource &src, std::size_t n)
{
    std::vector<TraceRecord> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        out.push_back(src.next());
    return out;
}

TEST(Replay, RoundTripFuzz)
{
    Rng rng(2026);
    for (int trial = 0; trial < 8; ++trial) {
        int cores = 1 + static_cast<int>(rng.below(4));
        std::vector<std::vector<TraceRecord>> records(cores);
        for (auto &stream : records) {
            std::size_t n = 1 + rng.below(700);
            for (std::size_t i = 0; i < n; ++i)
                stream.push_back(fuzzRecord(rng));
        }

        // In-memory: RecordedTrace must echo the records verbatim.
        auto trace = RecordedTrace::fromRecords(records);
        ASSERT_EQ(trace->cores(), cores);
        for (int c = 0; c < cores; ++c) {
            EXPECT_EQ(trace->recordsPublished(c), records[c].size());
            ReplaySource src(*trace, c);
            auto got = drain(src, records[c].size());
            for (std::size_t i = 0; i < records[c].size(); ++i)
                EXPECT_TRUE(sameRecord(got[i], records[c][i]))
                    << "trial " << trial << " core " << c << " #" << i;
            EXPECT_EQ(src.wraps(), 0u);
        }

        // Through the file format: save, reload, replay again.
        std::string path = tempPath("fuzz");
        trace->saveTrf(path);
        auto loaded = RecordedTrace::fromFile(path);
        ASSERT_EQ(loaded->cores(), cores);
        EXPECT_TRUE(loaded->frozen());
        EXPECT_EQ(loaded->paramsHash(), trace->paramsHash());
        EXPECT_EQ(loaded->seed(), trace->seed());
        for (int c = 0; c < cores; ++c) {
            ReplaySource src(*loaded, c);
            auto got = drain(src, records[c].size());
            for (std::size_t i = 0; i < records[c].size(); ++i)
                EXPECT_TRUE(sameRecord(got[i], records[c][i]))
                    << "trial " << trial << " core " << c << " #" << i;
        }
        std::remove(path.c_str());
    }
}

TEST(Replay, PackedStreamReaderRejectsGarbage)
{
    // A stream of 0xff varint continuation bytes never terminates a
    // field within the length bound: the reader must flag an error,
    // not read past the buffer or loop forever.
    std::vector<std::uint8_t> junk(64, 0xff);
    PackedStreamReader reader(junk.data(), junk.size());
    TraceRecord rec;
    while (reader.next(rec)) {
    }
    EXPECT_TRUE(reader.error());
}

TEST(ReplayDeath, CorruptMagicRejected)
{
    std::string path = tempPath("badmagic");
    std::FILE *fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    std::fputs("NOTATRACEFILE___", fp);
    std::fclose(fp);
    EXPECT_DEATH(readTrf(path), "not a CNTRF001");
    std::remove(path.c_str());
}

TEST(ReplayDeath, TruncatedHeaderRejected)
{
    std::string path = tempPath("shorthdr");
    std::FILE *fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    std::fwrite("CNTRF001\x02\x00", 1, 10, fp);
    std::fclose(fp);
    EXPECT_DEATH(readTrf(path), "truncated CNTRF001 header");
    std::remove(path.c_str());
}

TEST(ReplayDeath, TruncatedPayloadRejected)
{
    std::string path = tempPath("shortpay");
    Rng rng(5);
    std::vector<std::vector<TraceRecord>> records(2);
    for (auto &s : records)
        for (int i = 0; i < 50; ++i)
            s.push_back(fuzzRecord(rng));
    RecordedTrace::fromRecords(records)->saveTrf(path);

    // Chop the last few payload bytes off.
    std::FILE *fp = std::fopen(path.c_str(), "rb");
    ASSERT_NE(fp, nullptr);
    std::fseek(fp, 0, SEEK_END);
    long size = std::ftell(fp);
    std::fseek(fp, 0, SEEK_SET);
    std::vector<unsigned char> bytes(static_cast<std::size_t>(size));
    ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), fp),
              bytes.size());
    std::fclose(fp);
    fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size() - 5, fp);
    std::fclose(fp);

    EXPECT_DEATH(readTrf(path), "truncated CNTRF001 payload");
    std::remove(path.c_str());
}

TEST(ReplayDeath, TrailingGarbageRejected)
{
    std::string path = tempPath("trailing");
    Rng rng(6);
    std::vector<std::vector<TraceRecord>> records(1);
    for (int i = 0; i < 20; ++i)
        records[0].push_back(fuzzRecord(rng));
    RecordedTrace::fromRecords(records)->saveTrf(path);
    std::FILE *fp = std::fopen(path.c_str(), "ab");
    ASSERT_NE(fp, nullptr);
    std::fputs("extra", fp);
    std::fclose(fp);
    EXPECT_DEATH(readTrf(path), "trailing garbage");
    std::remove(path.c_str());
}

TEST(ReplayDeath, ZeroCoreHeaderRejected)
{
    std::string path = tempPath("zerocores");
    std::FILE *fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    std::fputs("CNTRF001", fp);
    // num_cores = 0, then enough zero bytes to pass the header read.
    std::vector<unsigned char> zeros(40, 0);
    std::fwrite(zeros.data(), 1, zeros.size(), fp);
    std::fclose(fp);
    EXPECT_DEATH(readTrf(path), "corrupt CNTRF001 header");
    std::remove(path.c_str());
}

TEST(ReplayDeath, ByteCountBeyondFileRejected)
{
    // A 64-byte file declaring 1e11 records in 1e12 bytes: the byte
    // count is checked against the file before it sizes an allocation.
    std::string path = writeOneCoreTrf("hugepayload", 100'000'000'000ULL,
                                       1'000'000'000'000ULL,
                                       std::vector<unsigned char>(16));
    EXPECT_DEATH(readTrf(path), "declares 1000000000000 bytes but only "
                                "16 remain");
    std::remove(path.c_str());
}

TEST(ReplayDeath, RecordCountBeyondBytesRejected)
{
    // 1e12 records cannot fit in 15 bytes (a record takes at least 3),
    // and replay would otherwise reserve room for all of them.
    std::string path = writeOneCoreTrf("hugecount", 1'000'000'000'000ULL,
                                       15, std::vector<unsigned char>(15));
    EXPECT_DEATH(readTrf(path), "1000000000000 records in 15 bytes");
    std::remove(path.c_str());
}

TEST(ReplayDeath, EmptyCoreRejected)
{
    std::string path = writeOneCoreTrf("emptycore", 0, 0, {});
    EXPECT_DEATH(readTrf(path), "core 0 has no records");
    std::remove(path.c_str());
}

TEST(ReplayDeath, OverflowingVarintRejected)
{
    // One record: a load with gap 0, iaddr delta 0, and an addr delta
    // whose 10th varint byte is 2. Only bit 63 is left for that byte,
    // so a decoder that drops the high bits would replay a wrong
    // address; the strict decoder rejects the file.
    std::string path = writeOneCoreTrf(
        "overflow", 1, 12,
        {0x00, 0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff,
         0x02});
    EXPECT_DEATH(RecordedTrace::fromFile(path),
                 "corrupt packed stream for core 0 .*0 of 1 records");
    std::remove(path.c_str());
}

TEST(Replay, FrozenTraceWrapsAndRepeats)
{
    // next() prefetches prefetch_distance records ahead, but only
    // inside the chunk, so traces shorter than, equal to and just past
    // that distance wrap like any other.
    constexpr std::size_t d = ReplaySource::prefetch_distance;
    Rng rng(11);
    for (std::size_t n : {std::size_t{5}, std::size_t{1}, d - 1, d, d + 1}) {
        std::vector<std::vector<TraceRecord>> records(1);
        for (std::size_t i = 0; i < n; ++i)
            records[0].push_back(fuzzRecord(rng));
        auto trace = RecordedTrace::fromRecords(records);
        ReplaySource src(*trace, 0);
        auto got = drain(src, 2 * n + 1);
        for (std::size_t i = 0; i < got.size(); ++i)
            EXPECT_TRUE(sameRecord(got[i], records[0][i % n]))
                << n << " records, #" << i;
        EXPECT_EQ(src.wraps(), 2u) << n << " records";
        EXPECT_EQ(src.consumed(), 2 * n + 1);
    }
}

TEST(Replay, RoundRobinReadersMatchChunksAcrossBoundaries)
{
    // The simulator's access pattern: one ReplaySource per core, each
    // drawing one record in turn, over one generated trace, through
    // three chunk boundaries and a prefetch window past the last one.
    SynthWorkloadParams params = Runner::effectiveSynthParams(
        workloads::byName("oltp"), RunConfig{});
    RecordedTrace trace(params);
    const auto cores = static_cast<std::size_t>(trace.cores());
    const std::size_t per_core = 3 * RecordedTrace::chunk_records +
                                 ReplaySource::prefetch_distance + 1;
    std::vector<std::unique_ptr<ReplaySource>> srcs;
    for (std::size_t c = 0; c < cores; ++c)
        srcs.push_back(
            std::make_unique<ReplaySource>(trace, static_cast<int>(c)));
    std::vector<std::vector<TraceRecord>> got(cores);
    for (std::size_t i = 0; i < per_core; ++i)
        for (std::size_t c = 0; c < cores; ++c)
            got[c].push_back(srcs[c]->next());

    for (std::size_t c = 0; c < cores; ++c) {
        EXPECT_EQ(srcs[c]->consumed(), per_core);
        for (std::size_t i = 0; i < per_core; ++i) {
            const RecordedTrace::Chunk *ch = trace.chunk(
                static_cast<int>(c), i / RecordedTrace::chunk_records);
            ASSERT_NE(ch, nullptr);
            ASSERT_TRUE(sameRecord(
                got[c][i], ch->records[i % RecordedTrace::chunk_records]))
                << "core " << c << " #" << i;
        }
    }
}

TEST(Replay, CanonicalGenerationIsDeterministic)
{
    SynthWorkloadParams params = Runner::effectiveSynthParams(
        workloads::byName("oltp"), RunConfig{});
    RecordedTrace a(params), b(params);
    ASSERT_EQ(a.cores(), b.cores());
    for (int c = 0; c < a.cores(); ++c) {
        ReplaySource sa(a, c), sb(b, c);
        for (int i = 0; i < 10'000; ++i)
            EXPECT_TRUE(sameRecord(sa.next(), sb.next()))
                << "core " << c << " #" << i;
    }
}

TEST(Replay, ConcurrentReadersMatchSerialBaseline)
{
    SynthWorkloadParams params = Runner::effectiveSynthParams(
        workloads::byName("oltp"), RunConfig{});
    // Enough records to force several lazily generated chunks.
    const std::size_t per_core =
        3 * RecordedTrace::chunk_records + 77;

    RecordedTrace serial(params);
    std::vector<std::vector<TraceRecord>> baseline;
    for (int c = 0; c < serial.cores(); ++c) {
        ReplaySource src(serial, c);
        baseline.push_back(drain(src, per_core));
    }

    // Fresh trace, one thread per core racing through chunk growth.
    RecordedTrace shared(params);
    std::vector<std::vector<TraceRecord>> got(
        static_cast<std::size_t>(shared.cores()));
    std::vector<std::thread> threads;
    for (int c = 0; c < shared.cores(); ++c) {
        threads.emplace_back([&, c]() {
            ReplaySource src(shared, c);
            got[static_cast<std::size_t>(c)] = drain(src, per_core);
        });
    }
    for (auto &t : threads)
        t.join();

    for (int c = 0; c < shared.cores(); ++c) {
        for (std::size_t i = 0; i < per_core; ++i)
            EXPECT_TRUE(sameRecord(
                got[static_cast<std::size_t>(c)][i],
                baseline[static_cast<std::size_t>(c)][i]))
                << "core " << c << " #" << i;
    }
}

TEST(Replay, TraceCacheSharesByParams)
{
    SynthWorkloadParams params = Runner::effectiveSynthParams(
        workloads::byName("oltp"), RunConfig{});
    auto a = TraceCache::global().acquire(params);
    auto b = TraceCache::global().acquire(params);
    EXPECT_EQ(a.get(), b.get());

    SynthWorkloadParams other = params;
    other.seed += 1;
    auto c = TraceCache::global().acquire(other);
    EXPECT_NE(a.get(), c.get());
}

TEST(Replay, TraceCachePrunesDeadEntries)
{
    SynthWorkloadParams params = Runner::effectiveSynthParams(
        workloads::byName("oltp"), RunConfig{});
    params.seed = 0xdeadf00d;
    std::size_t before = TraceCache::global().liveEntries();
    {
        auto held = TraceCache::global().acquire(params);
        EXPECT_EQ(TraceCache::global().liveEntries(), before + 1);
    }
    // The entry expired with its last reference; the next miss prunes
    // it, so the live count cannot grow without bound across sweeps,
    // and re-acquiring the same params regenerates rather than
    // resurrecting the dead pointer.
    SynthWorkloadParams fresh = params;
    fresh.seed = 0xfeedbeef;
    auto held = TraceCache::global().acquire(fresh);
    EXPECT_LE(TraceCache::global().liveEntries(), before + 1);
    auto again = TraceCache::global().acquire(params);
    EXPECT_NE(again, nullptr);
}

TEST(Replay, TraceCacheSharesLoadedFiles)
{
    std::string path = tempPath("shared");
    Rng rng(7);
    std::vector<std::vector<TraceRecord>> records(2);
    for (auto &s : records)
        for (int i = 0; i < 30; ++i)
            s.push_back(fuzzRecord(rng));
    RecordedTrace::fromRecords(records)->saveTrf(path);

    // Every cell of a --trace-replay grid acquires the same file: one
    // decode, one shared copy.
    auto a = TraceCache::global().acquireFile(path);
    auto b = TraceCache::global().acquireFile(path);
    EXPECT_EQ(a.get(), b.get());
    ASSERT_EQ(a->cores(), 2);
    ReplaySource src(*a, 1);
    EXPECT_TRUE(sameRecord(src.next(), records[1][0]));

    // File traces live among the other entries, so they expire with
    // their last reference like any generated trace.
    std::size_t live = TraceCache::global().liveEntries();
    a.reset();
    b.reset();
    EXPECT_EQ(TraceCache::global().liveEntries(), live - 1);
    std::remove(path.c_str());
}

TEST(Replay, RunnerReplayMatchesAcrossWorkerCounts)
{
    RunConfig rc;
    rc.warmup_instructions = 20'000;
    rc.measure_instructions = 40'000;

    auto grid = [&](unsigned workers) {
        ParallelRunner pool(workers);
        for (L2Kind k : {L2Kind::Shared, L2Kind::Nurapid,
                         L2Kind::Private}) {
            pool.submit(Runner::paperConfig(k),
                        workloads::byName("oltp"), rc);
        }
        return pool.run();
    };

    std::vector<RunResult> one = grid(1);
    std::vector<RunResult> four = grid(4);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].instructions, four[i].instructions);
        EXPECT_EQ(one[i].cycles, four[i].cycles);
        EXPECT_EQ(one[i].l2_accesses, four[i].l2_accesses);
        EXPECT_EQ(one[i].bus_transactions, four[i].bus_transactions);
        EXPECT_DOUBLE_EQ(one[i].ipc, four[i].ipc);
        EXPECT_DOUBLE_EQ(one[i].miss_rate, four[i].miss_rate);
    }
}

TEST(Replay, ReplayRunIsByteStableAcrossTraceInstances)
{
    // Two independently generated traces of the same params must give
    // identical simulation results (the canonical-order contract).
    RunConfig rc;
    rc.warmup_instructions = 20'000;
    rc.measure_instructions = 40'000;
    WorkloadSpec wl = workloads::byName("oltp");
    SynthWorkloadParams params = Runner::effectiveSynthParams(wl, rc);

    RunConfig rc_a = rc;
    rc_a.replay = std::make_shared<RecordedTrace>(params);
    RunConfig rc_b = rc;
    rc_b.replay = std::make_shared<RecordedTrace>(params);

    SystemConfig cfg = Runner::paperConfig(L2Kind::Nurapid);
    RunResult a = Runner::run(cfg, wl, rc_a);
    RunResult b = Runner::run(cfg, wl, rc_b);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.l2_accesses, b.l2_accesses);
    EXPECT_DOUBLE_EQ(a.ipc, b.ipc);
}

/** A two-core oltp run small enough for a unit test. */
RunConfig
smallRun()
{
    RunConfig rc;
    rc.warmup_instructions = 20'000;
    rc.measure_instructions = 30'000;
    return rc;
}

TEST(CanonicalWorkload, MatchesMaterializedReplayRecordForRecord)
{
    SynthWorkloadParams params = Runner::effectiveSynthParams(
        workloads::byName("oltp", 2), smallRun());
    CanonicalWorkload canon(params);
    RecordedTrace trace(params);
    ASSERT_EQ(canon.cores(), trace.cores());

    std::vector<std::unique_ptr<ReplaySource>> replays;
    for (int c = 0; c < trace.cores(); ++c)
        replays.push_back(std::make_unique<ReplaySource>(trace, c));

    // Interleave draws unevenly across cores -- the canonical
    // guarantee is positional, not timing-dependent.
    for (int round = 0; round < 2'000; ++round) {
        int c = round % trace.cores();
        int reps = 1 + (round % 3);
        for (int k = 0; k < reps; ++k)
            ASSERT_TRUE(sameRecord(canon.source(c).next(),
                                   replays[c]->next()))
                << "round " << round;
    }
}

TEST(CanonicalWorkload, RunnerResultsMatchMaterializedReplay)
{
    WorkloadSpec wl = workloads::byName("oltp", 2);
    SystemConfig cfg =
        Runner::paperConfig(L2Kind::Nurapid, 2, InterconnectKind::Bus);
    // Nothing holds this stream yet, so the first run generates it.
    RunConfig canon = smallRun();
    ASSERT_EQ(TraceCache::global().find(
                  Runner::effectiveSynthParams(wl, canon)),
              nullptr);
    RunResult generated = Runner::run(cfg, wl, canon);
    RunConfig replay = smallRun();
    replay.replay = Runner::acquireSharedTrace(wl, replay);
    EXPECT_EQ(farm::serializeResult(generated),
              farm::serializeResult(Runner::run(cfg, wl, replay)));
}

// ---------------------------------------------------------------------
// Stream sharing: ParallelRunner materializes a stream only when two or
// more of its jobs draw it; Runner::run reads a held trace and
// otherwise generates.
// ---------------------------------------------------------------------

TEST(StreamSharing, BatchMaterializesOnlySharedStreams)
{
    RunConfig rc = smallRun();
    const std::size_t before = TraceCache::global().liveEntries();
    ParallelRunner pool(2);
    pool.submit(Runner::paperConfig(L2Kind::Shared),
                workloads::byName("oltp"), rc);
    pool.submit(Runner::paperConfig(L2Kind::Nurapid),
                workloads::byName("oltp"), rc);
    pool.submit(Runner::paperConfig(L2Kind::Private),
                workloads::byName("apache"), rc);
    // The callback runs under the pool's lock, one job at a time.
    std::vector<std::size_t> during;
    pool.onProgress([&](const JobReport &) {
        during.push_back(TraceCache::global().liveEntries());
    });
    pool.run();
    ASSERT_EQ(during.size(), 3u);
    for (std::size_t live : during)
        EXPECT_EQ(live, before + 1);
    EXPECT_EQ(TraceCache::global().liveEntries(), before);
}

TEST(StreamSharing, SampledAndResumingLoneCellsMaterializeNothing)
{
    SystemConfig cfg = Runner::paperConfig(L2Kind::Nurapid);
    WorkloadSpec apache = workloads::byName("apache");
    RunConfig warm = smallRun();
    warm.ckpt_blob_out = std::make_shared<std::string>();
    (void)Runner::run(cfg, apache, warm);
    ASSERT_FALSE(warm.ckpt_blob_out->empty());

    const std::size_t before = TraceCache::global().liveEntries();
    RunConfig sampled = smallRun();
    sampled.measure_instructions = 40'000;
    sampled.sample_windows = 2;
    RunConfig resumed = smallRun();
    resumed.ckpt_blob_in = warm.ckpt_blob_out;
    ParallelRunner pool(2);
    pool.submit(cfg, workloads::byName("oltp"), sampled);
    pool.submit(cfg, apache, resumed);
    std::vector<std::size_t> during;
    pool.onProgress([&](const JobReport &) {
        during.push_back(TraceCache::global().liveEntries());
    });
    std::vector<RunResult> results = pool.run();
    ASSERT_EQ(during.size(), 2u);
    for (std::size_t live : during)
        EXPECT_EQ(live, before);
    EXPECT_EQ(TraceCache::global().liveEntries(), before);
    EXPECT_TRUE(results[0].sampled);
    EXPECT_GT(results[1].instructions, 0u);
}

TEST(StreamSharing, LoneRunReadsAHeldTrace)
{
    WorkloadSpec wl = workloads::byName("oltp");
    RunConfig rc = smallRun();
    std::shared_ptr<RecordedTrace> held =
        Runner::acquireSharedTrace(wl, rc);
    const std::uint64_t published = held->recordsPublished(0);
    (void)Runner::run(Runner::paperConfig(L2Kind::Shared), wl, rc);
    EXPECT_GT(held->recordsPublished(0), published);
}

} // namespace
} // namespace cnsim
