/**
 * @file
 * Tests for the CNCKPT01 checkpoint format and the Runner's
 * save/resume protocol.
 *
 * Format side: serialize/deserialize round-trips every field, and every
 * corruption class a file can suffer -- wrong magic, clipped tail, bit
 * flips, an unsupported version, an implausible header -- dies with a
 * clear fatal() naming the file, never a decode of garbage. Config
 * validation rejects a checkpoint taken on a different machine shape,
 * warmed on a different reference stream, or warmed under other
 * behaviour settings than a NuRAPID resume runs with.
 *
 * Runner side: the restore-exactness contract. Saving at the warm-up
 * boundary and resuming must reproduce the straight-through run
 * bit-identically -- same cycles, same IPC, same full statistics dump
 * -- for every L2 organization over both the snooping bus and the mesh
 * directory. This is what makes checkpoint-shared sweeps trustworthy:
 * resuming is indistinguishable from having warmed in-process.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "sample/checkpoint.hh"
#include "sim/runner.hh"
#include "trace/replay.hh"
#include "trace/workloads.hh"

namespace cnsim
{
namespace
{

std::string
tempPath(const char *tag)
{
    return std::string(::testing::TempDir()) + "cnsim_ckpt_" + tag +
           ".ckpt";
}

/** A small but fully populated checkpoint exercising every field. */
sample::Checkpoint
sampleCheckpoint()
{
    sample::Checkpoint ck;
    ck.num_cores = 4;
    ck.l2_kind = 2;
    ck.interconnect = 1;
    ck.tick = 123'456'789;
    ck.events_executed = 42'000;
    ck.trace_params_hash = 0xdeadbeefcafef00dull;
    ck.trace_seed = 7;
    ck.warmup_instructions = 1'000'000;
    ck.settings.enable_cr = 0;
    ck.settings.enable_isc = 1;
    ck.settings.promotion = 2;
    ck.settings.replication = 1;
    for (std::uint64_t c = 0; c < 4; ++c) {
        sample::CoreState cs;
        cs.instructions = 1'000'000 + c;
        cs.data_refs = 16'000 + c;
        cs.step_when = 123'456'700 + c;
        cs.step_seq = 42'000 - c;
        cs.consumed = 16'100 + c;
        ck.cores.push_back(cs);
    }
    ck.meta.emplace_back("l2.validBlocks", 65'536);
    ck.meta.emplace_back("dir.entries", 1'024);
    ck.arch = std::string("\x01\x02\x03\x00\xff opaque payload", 20);
    return ck;
}

TEST(Checkpoint, SerializeDeserializeRoundTripsEveryField)
{
    sample::Checkpoint ck = sampleCheckpoint();
    std::string bytes = ck.serialize();
    sample::Checkpoint got =
        sample::Checkpoint::deserialize(bytes, "<memory>");

    EXPECT_EQ(got.version, sample::Checkpoint::current_version);
    EXPECT_EQ(got.num_cores, ck.num_cores);
    EXPECT_EQ(got.l2_kind, ck.l2_kind);
    EXPECT_EQ(got.interconnect, ck.interconnect);
    EXPECT_EQ(got.tick, ck.tick);
    EXPECT_EQ(got.events_executed, ck.events_executed);
    EXPECT_EQ(got.trace_params_hash, ck.trace_params_hash);
    EXPECT_EQ(got.trace_seed, ck.trace_seed);
    EXPECT_EQ(got.warmup_instructions, ck.warmup_instructions);
    EXPECT_EQ(got.settings.enable_cr, ck.settings.enable_cr);
    EXPECT_EQ(got.settings.enable_isc, ck.settings.enable_isc);
    EXPECT_EQ(got.settings.promotion, ck.settings.promotion);
    EXPECT_EQ(got.settings.replication, ck.settings.replication);
    ASSERT_EQ(got.cores.size(), ck.cores.size());
    for (std::size_t c = 0; c < ck.cores.size(); ++c) {
        EXPECT_EQ(got.cores[c].instructions, ck.cores[c].instructions);
        EXPECT_EQ(got.cores[c].data_refs, ck.cores[c].data_refs);
        EXPECT_EQ(got.cores[c].step_when, ck.cores[c].step_when);
        EXPECT_EQ(got.cores[c].step_seq, ck.cores[c].step_seq);
        EXPECT_EQ(got.cores[c].consumed, ck.cores[c].consumed);
    }
    ASSERT_EQ(got.meta.size(), ck.meta.size());
    for (std::size_t i = 0; i < ck.meta.size(); ++i) {
        EXPECT_EQ(got.meta[i].first, ck.meta[i].first);
        EXPECT_EQ(got.meta[i].second, ck.meta[i].second);
    }
    EXPECT_EQ(got.arch, ck.arch);
}

TEST(Checkpoint, FileRoundTripMatchesMemory)
{
    std::string path = tempPath("roundtrip");
    sample::Checkpoint ck = sampleCheckpoint();
    ck.saveFile(path);
    sample::Checkpoint got = sample::Checkpoint::loadFile(path);
    EXPECT_EQ(got.serialize(), ck.serialize());
    std::remove(path.c_str());
}

TEST(CheckpointDeath, MissingFileRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EXPECT_DEATH(sample::Checkpoint::loadFile("/nonexistent/nope.ckpt"),
                 "cannot open checkpoint");
}

TEST(CheckpointDeath, WrongMagicRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::string bytes = sampleCheckpoint().serialize();
    bytes[0] = 'X';
    EXPECT_DEATH(sample::Checkpoint::deserialize(bytes, "<memory>"),
                 "is not a CNCKPT01 checkpoint");
    // A file too short to even hold the magic is the same user error.
    EXPECT_DEATH(sample::Checkpoint::deserialize("CNCK", "<memory>"),
                 "is not a CNCKPT01 checkpoint");
}

TEST(CheckpointDeath, MissingChecksumRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // Valid magic but nothing after it: no room for the trailing
    // checksum word.
    EXPECT_DEATH(
        sample::Checkpoint::deserialize("CNCKPT01xy", "<memory>"),
        "no checksum");
}

TEST(CheckpointDeath, TruncationRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::string path = tempPath("truncated");
    sample::Checkpoint ck = sampleCheckpoint();
    ck.saveFile(path);

    // Clip the tail: the stored checksum (or part of it) goes with the
    // clipped bytes, so the file fails the integrity check before any
    // field is decoded.
    std::string bytes = ck.serialize();
    std::FILE *fp = std::fopen(path.c_str(), "wb");
    ASSERT_NE(fp, nullptr);
    std::fwrite(bytes.data(), 1, bytes.size() - 7, fp);
    std::fclose(fp);
    EXPECT_DEATH(sample::Checkpoint::loadFile(path),
                 "checksum mismatch");
    std::remove(path.c_str());
}

TEST(CheckpointDeath, BitCorruptionRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    std::string bytes = sampleCheckpoint().serialize();
    // Flip one bit in the middle of the payload.
    bytes[bytes.size() / 2] ^= 0x10;
    EXPECT_DEATH(sample::Checkpoint::deserialize(bytes, "<memory>"),
                 "checksum mismatch");
}

TEST(CheckpointDeath, UnsupportedVersionRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A well-formed, correctly checksummed file from a hypothetical
    // future format revision: rejected by the version gate, not
    // misparsed.
    sample::Checkpoint ck = sampleCheckpoint();
    ck.version = sample::Checkpoint::current_version + 1;
    std::string bytes = ck.serialize();
    EXPECT_DEATH(sample::Checkpoint::deserialize(bytes, "<memory>"),
                 "unsupported CNCKPT01 version " +
                     std::to_string(ck.version));
}

TEST(CheckpointDeath, NonBooleanSettingRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    sample::Checkpoint ck = sampleCheckpoint();
    ck.settings.enable_isc = 2;
    std::string bytes = ck.serialize();
    EXPECT_DEATH(sample::Checkpoint::deserialize(bytes, "<memory>"),
                 "CR/ISC flags 0/2 are not 0 or 1");
}

TEST(CheckpointDeath, ImplausibleCoreCountRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    sample::Checkpoint ck = sampleCheckpoint();
    ck.num_cores = 4'096;
    ck.cores.resize(4'096);
    std::string bytes = ck.serialize();
    EXPECT_DEATH(sample::Checkpoint::deserialize(bytes, "<memory>"),
                 "implausible core count");
}

TEST(CheckpointDeath, ConfigMismatchesRejected)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    sample::Checkpoint ck = sampleCheckpoint();
    // ck: 4 cores, l2_kind 2, interconnect 1, known trace hash.
    EXPECT_DEATH(ck.validateConfig(8, 2, 1, ck.trace_params_hash, true,
                                   "c.ckpt"),
                 "4-core system but this run has 8");
    EXPECT_DEATH(ck.validateConfig(4, 3, 1, ck.trace_params_hash, true,
                                   "c.ckpt"),
                 "different L2 organization");
    EXPECT_DEATH(ck.validateConfig(4, 2, 0, ck.trace_params_hash, true,
                                   "c.ckpt"),
                 "different interconnect");
    EXPECT_DEATH(
        ck.validateConfig(4, 2, 1, 0x1234, true, "c.ckpt"),
        "warmed on a different reference stream");
}

TEST(CheckpointDeath, SettingMismatchesRejectedByName)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    sample::Checkpoint ck = sampleCheckpoint();
    auto validate = [&](const sample::BehaviourSettings &run) {
        ck.validateConfig(4, 2, 1, ck.trace_params_hash, true, "c.ckpt",
                          &run);
    };
    sample::BehaviourSettings run = ck.settings;
    validate(run);
    run.enable_cr = 1;
    EXPECT_DEATH(validate(run), "controlled replication \\(CR\\) off, "
                                "but this run has it on");
    run = ck.settings;
    run.enable_isc = 0;
    EXPECT_DEATH(validate(run), "in-situ communication \\(ISC\\) on, "
                                "but this run has it off");
    run = ck.settings;
    run.promotion = 0;
    EXPECT_DEATH(validate(run), "promotion policy 2, but this run uses "
                                "policy 0");
    run = ck.settings;
    run.replication = 0;
    EXPECT_DEATH(validate(run), "replication policy 1, but this run uses "
                                "policy 0");
    // Without run settings (every organization but NuRAPID) they are
    // not compared.
    ck.validateConfig(4, 2, 1, ck.trace_params_hash, true, "c.ckpt");
}

TEST(Checkpoint, TraceHashCheckRelaxedForInMemorySharing)
{
    sample::Checkpoint ck = sampleCheckpoint();
    // The variability path resumes sibling seeds whose streams differ
    // by construction; with check_trace = false only the machine shape
    // is pinned.
    ck.validateConfig(4, 2, 1, 0x1234, false, "<memory>");
    ck.validateConfig(4, 2, 1, ck.trace_params_hash, true, "<memory>");
}

TEST(Checkpoint, GeneratedStreamSaveAndResumeMatchStraightRun)
{
    // No run here attaches or holds a trace, so each one generates its
    // stream: saving records each core's consumed-record count, and
    // resuming skips that many records of a freshly generated stream.
    SystemConfig cfg = Runner::paperConfig(L2Kind::Nurapid);
    WorkloadSpec wl = workloads::byName("oltp");
    std::string path = tempPath("generated");

    RunConfig rc;
    rc.warmup_instructions = 100'000;
    rc.measure_instructions = 150'000;
    rc.collect_stats_dump = true;
    ASSERT_EQ(TraceCache::global().find(
                  Runner::effectiveSynthParams(wl, rc)),
              nullptr);
    RunResult straight = Runner::run(cfg, wl, rc);

    RunConfig save_rc = rc;
    save_rc.ckpt_save = path;
    auto blob = std::make_shared<std::string>();
    save_rc.ckpt_blob_out = blob;
    RunResult saved = Runner::run(cfg, wl, save_rc);
    ASSERT_FALSE(blob->empty());

    RunConfig file_rc = rc;
    file_rc.ckpt_load = path;
    RunResult from_file = Runner::run(cfg, wl, file_rc);

    RunConfig blob_rc = rc;
    blob_rc.ckpt_blob_in = blob;
    RunResult from_blob = Runner::run(cfg, wl, blob_rc);

    EXPECT_EQ(saved.stats_dump, straight.stats_dump);
    EXPECT_EQ(from_file.stats_dump, straight.stats_dump);
    EXPECT_EQ(from_blob.stats_dump, straight.stats_dump);
    EXPECT_DOUBLE_EQ(from_file.ipc, straight.ipc);
    EXPECT_DOUBLE_EQ(from_blob.ipc, straight.ipc);
    std::remove(path.c_str());
}

/**
 * The restore-exactness matrix: for every L2 organization over both
 * interconnect families, a run that saves a checkpoint at the warm-up
 * boundary and a run that resumes from that checkpoint must agree on
 * every statistic, bit for bit.
 */
class CheckpointRoundTrip
    : public ::testing::TestWithParam<std::pair<L2Kind, InterconnectKind>>
{
};

TEST_P(CheckpointRoundTrip, ResumeReproducesStraightRun)
{
    auto [kind, icn] = GetParam();
    SystemConfig cfg = Runner::paperConfig(kind, 4, icn);
    WorkloadSpec wl = workloads::byName("oltp");

    RunConfig rc;
    rc.warmup_instructions = 100'000;
    rc.measure_instructions = 150'000;
    rc.collect_stats_dump = true;
    rc.replay =
        TraceCache::global().acquire(Runner::effectiveSynthParams(wl, rc));

    RunConfig save_rc = rc;
    auto blob = std::make_shared<std::string>();
    save_rc.ckpt_blob_out = blob;
    RunResult straight = Runner::run(cfg, wl, save_rc);
    ASSERT_FALSE(blob->empty());

    RunConfig load_rc = rc;
    load_rc.ckpt_blob_in = blob;
    RunResult resumed = Runner::run(cfg, wl, load_rc);

    EXPECT_EQ(resumed.cycles, straight.cycles);
    EXPECT_EQ(resumed.instructions, straight.instructions);
    EXPECT_EQ(resumed.l2_accesses, straight.l2_accesses);
    EXPECT_DOUBLE_EQ(resumed.ipc, straight.ipc);
    EXPECT_EQ(resumed.stats_dump, straight.stats_dump);
}

INSTANTIATE_TEST_SUITE_P(
    AllOrgs, CheckpointRoundTrip,
    ::testing::Values(
        std::make_pair(L2Kind::Shared, InterconnectKind::Bus),
        std::make_pair(L2Kind::Private, InterconnectKind::Bus),
        std::make_pair(L2Kind::Snuca, InterconnectKind::Bus),
        std::make_pair(L2Kind::Ideal, InterconnectKind::Bus),
        std::make_pair(L2Kind::Nurapid, InterconnectKind::Bus),
        std::make_pair(L2Kind::Update, InterconnectKind::Bus),
        std::make_pair(L2Kind::Dnuca, InterconnectKind::Bus),
        std::make_pair(L2Kind::Shared, InterconnectKind::Mesh),
        std::make_pair(L2Kind::Private, InterconnectKind::Mesh),
        std::make_pair(L2Kind::Snuca, InterconnectKind::Mesh),
        std::make_pair(L2Kind::Ideal, InterconnectKind::Mesh),
        std::make_pair(L2Kind::Nurapid, InterconnectKind::Mesh),
        std::make_pair(L2Kind::Update, InterconnectKind::Mesh),
        std::make_pair(L2Kind::Dnuca, InterconnectKind::Mesh)),
    [](const auto &info) {
        return std::string(toString(info.param.first)) + "_" +
               toString(info.param.second);
    });

TEST(Checkpoint, FileResumeMatchesBlobResume)
{
    // The file path adds serialization to disk and the strict trace-
    // provenance check; the measured statistics must not change.
    SystemConfig cfg = Runner::paperConfig(L2Kind::Nurapid);
    WorkloadSpec wl = workloads::byName("barnes");
    std::string path = tempPath("resume");

    RunConfig rc;
    rc.warmup_instructions = 100'000;
    rc.measure_instructions = 150'000;
    rc.collect_stats_dump = true;
    rc.replay =
        TraceCache::global().acquire(Runner::effectiveSynthParams(wl, rc));

    RunConfig save_rc = rc;
    save_rc.ckpt_save = path;
    auto blob = std::make_shared<std::string>();
    save_rc.ckpt_blob_out = blob;
    RunResult straight = Runner::run(cfg, wl, save_rc);

    RunConfig file_rc = rc;
    file_rc.ckpt_load = path;
    RunResult from_file = Runner::run(cfg, wl, file_rc);

    RunConfig blob_rc = rc;
    blob_rc.ckpt_blob_in = blob;
    RunResult from_blob = Runner::run(cfg, wl, blob_rc);

    EXPECT_EQ(from_file.stats_dump, straight.stats_dump);
    EXPECT_EQ(from_blob.stats_dump, straight.stats_dump);
    EXPECT_DOUBLE_EQ(from_file.ipc, straight.ipc);
    EXPECT_DOUBLE_EQ(from_blob.ipc, straight.ipc);
    std::remove(path.c_str());
}

} // namespace
} // namespace cnsim
