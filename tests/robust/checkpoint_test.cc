#include "robust/checkpoint.h"

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/random.h"
#include "obs/metrics.h"
#include "robust/failpoints.h"
#include "robust/supervisor.h"

namespace commsig {
namespace {

namespace fs = std::filesystem;

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("commsig_ckpt_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::remove_all(dir_);
  }
  void TearDown() override { fs::remove_all(dir_); }

  // Flips one bit somewhere in the middle of a checkpoint file.
  void FlipBit(const fs::path& path, size_t offset) {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    ASSERT_TRUE(f.is_open());
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    ASSERT_TRUE(f.read(&byte, 1));
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    ASSERT_TRUE(f.write(&byte, 1));
  }

  fs::path dir_;
};

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

/// A payload of `size` bytes that is not one repeated byte.
std::string Payload(size_t size) {
  std::string p(size, '\0');
  for (size_t i = 0; i < size; ++i) {
    p[i] = static_cast<char>(SplitMix64(i) & 0xff);
  }
  return p;
}

/// The only checkpoint file under `dir`.
fs::path OnlyCheckpoint(const fs::path& dir) {
  fs::path found;
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_TRUE(found.empty()) << "more than one file under " << dir;
    found = entry.path();
  }
  return found;
}

TEST_F(CheckpointTest, MissingDirectoryIsNotFound) {
  CheckpointManager manager(dir_.string());
  auto r = manager.LoadLatest();
  EXPECT_TRUE(r.status().IsNotFound()) << r.status().ToString();
}

TEST_F(CheckpointTest, SaveThenLoadRoundTrips) {
  CheckpointManager manager(dir_.string());
  ASSERT_TRUE(manager.Save(42, "hello checkpoint").ok());
  auto r = manager.LoadLatest();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->sequence, 42u);
  EXPECT_EQ(r->payload, "hello checkpoint");
  EXPECT_FALSE(r->recovered_from_fallback);
  EXPECT_EQ(r->corrupt_skipped, 0u);
}

TEST_F(CheckpointTest, LoadsNewestOfMany) {
  CheckpointManager manager(dir_.string());
  ASSERT_TRUE(manager.Save(10, "old").ok());
  ASSERT_TRUE(manager.Save(20, "new").ok());
  auto r = manager.LoadLatest();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->sequence, 20u);
  EXPECT_EQ(r->payload, "new");
}

TEST_F(CheckpointTest, BitFlippedNewestFallsBackToPreviousGood) {
  CheckpointManager manager(dir_.string());
  ASSERT_TRUE(manager.Save(10, std::string(256, 'a')).ok());
  ASSERT_TRUE(manager.Save(20, std::string(256, 'b')).ok());
  // Corrupt the newest file's payload region.
  fs::path newest;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().filename().string().find("20.ckpt") !=
        std::string::npos) {
      newest = entry.path();
    }
  }
  ASSERT_FALSE(newest.empty());
  FlipBit(newest, 100);

  auto r = manager.LoadLatest();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->sequence, 10u);
  EXPECT_EQ(r->payload, std::string(256, 'a'));
  EXPECT_TRUE(r->recovered_from_fallback);
  EXPECT_EQ(r->corrupt_skipped, 1u);
}

TEST_F(CheckpointTest, TruncatedNewestFallsBack) {
  CheckpointManager manager(dir_.string());
  ASSERT_TRUE(manager.Save(1, std::string(512, 'x')).ok());
  ASSERT_TRUE(manager.Save(2, std::string(512, 'y')).ok());
  for (const auto& entry : fs::directory_iterator(dir_)) {
    if (entry.path().filename().string().find("2.ckpt") !=
        std::string::npos) {
      fs::resize_file(entry.path(), 64);
    }
  }
  auto r = manager.LoadLatest();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->sequence, 1u);
}

TEST_F(CheckpointTest, AllCorruptIsCorruption) {
  CheckpointManager manager(dir_.string());
  ASSERT_TRUE(manager.Save(1, "only").ok());
  for (const auto& entry : fs::directory_iterator(dir_)) {
    FlipBit(entry.path(), 30);
  }
  auto r = manager.LoadLatest();
  EXPECT_TRUE(r.status().IsCorruption()) << r.status().ToString();
}

TEST_F(CheckpointTest, PrunesBeyondKeep) {
  CheckpointManager::Options opts;
  opts.keep = 2;
  CheckpointManager manager(dir_.string(), opts);
  for (uint64_t seq = 1; seq <= 5; ++seq) {
    ASSERT_TRUE(manager.Save(seq, "p").ok());
  }
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2u);
  auto r = manager.LoadLatest();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->sequence, 5u);
}

TEST_F(CheckpointTest, KeepIsClampedToTwo) {
  CheckpointManager::Options opts;
  opts.keep = 0;  // a single retained checkpoint would break the fallback
  CheckpointManager manager(dir_.string(), opts);
  ASSERT_TRUE(manager.Save(1, "a").ok());
  ASSERT_TRUE(manager.Save(2, "b").ok());
  ASSERT_TRUE(manager.Save(3, "c").ok());
  size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir_)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2u);
}

TEST_F(CheckpointTest, StrayTmpAndForeignFilesAreIgnored) {
  CheckpointManager manager(dir_.string());
  ASSERT_TRUE(manager.Save(7, "good").ok());
  // Simulate a crash mid-write plus unrelated clutter.
  std::ofstream(dir_ / "ckpt.tmp") << "half-written";
  std::ofstream(dir_ / "notes.txt") << "unrelated";
  std::ofstream(dir_ / "ckpt.notanumber.ckpt") << "junk";
  auto r = manager.LoadLatest();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->sequence, 7u);
  EXPECT_EQ(r->payload, "good");
}

TEST_F(CheckpointTest, EmptyPayloadRoundTrips) {
  CheckpointManager manager(dir_.string());
  ASSERT_TRUE(manager.Save(0, "").ok());
  auto r = manager.LoadLatest();
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->payload.empty());
}

TEST_F(CheckpointTest, MultiChunkPayloadFramesLikeTheSingleBufferLayout) {
  // The frame is the documented layout whatever the chunking: a header of
  // magic | version | sequence | length | CRC, then the payload.
  const std::string payload = Payload(3 * ByteWriter::kChunkBytes + 17);
  CheckpointManager manager(dir_.string());
  ASSERT_TRUE(manager.Save(9, payload).ok());
  ByteWriter expected;
  expected.PutU32(0x43534350);
  expected.PutU32(1);
  expected.PutU64(9);
  expected.PutU64(payload.size());
  expected.PutU32(Crc32(payload));
  expected.PutBytes(payload);
  EXPECT_EQ(ReadFile(OnlyCheckpoint(dir_)), expected.bytes());
  auto r = manager.LoadLatest();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->payload, payload);
}

TEST_F(CheckpointTest, StreamedEncodeWritesTheSameFileAsAnInMemoryPayload) {
  StreamingSignatureBuilder::Options opts;
  opts.fm_bitmaps = 64;
  StreamingSignatureBuilder builder({0, 1, 2, 3}, opts);
  for (uint64_t i = 0; i < 20000; ++i) {
    builder.Observe({static_cast<NodeId>(i % 6),
                     static_cast<NodeId>(6 + SplitMix64(i) % 3000), i, 1.0});
  }
  auto encode = [&](ByteWriter& out) {
    out.PutU64(77);
    builder.AppendTo(out);
  };
  ByteWriter memory;
  encode(memory);
  ASSERT_GT(memory.size(), 10 * ByteWriter::kChunkBytes);

  const fs::path streamed_dir = dir_ / "streamed";
  const fs::path memory_dir = dir_ / "memory";
  ASSERT_TRUE(CheckpointManager(streamed_dir.string()).Save(5, encode).ok());
  ASSERT_TRUE(
      CheckpointManager(memory_dir.string()).Save(5, memory.bytes()).ok());
  EXPECT_EQ(ReadFile(OnlyCheckpoint(streamed_dir)),
            ReadFile(OnlyCheckpoint(memory_dir)));
}

#ifndef COMMSIG_OBS_DISABLED
TEST_F(CheckpointTest, EverySaveIsTimed) {
  auto& histogram =
      obs::MetricsRegistry::Global().GetHistogram("robust/checkpoint_save_us");
  const uint64_t before = histogram.Snapshot().count;
  CheckpointManager manager(dir_.string());
  ASSERT_TRUE(manager.Save(1, "a").ok());
  ASSERT_TRUE(manager.Save(2, Payload(2 * ByteWriter::kChunkBytes)).ok());
  EXPECT_EQ(histogram.Snapshot().count, before + 2);
}
#endif  // COMMSIG_OBS_DISABLED

// The golden fixture tests/data/corpus/golden_stream.ckpt was written by
// the single-buffer encoder that preceded the chunked one: a supervised
// stream over GoldenStream(), killed at event 2000. It pins the on-disk
// format — the chunked encoder must reproduce it byte for byte — and
// doubles as the valid seed frame of the checkpoint fuzzer.
std::vector<TraceEvent> GoldenStream() {
  std::vector<TraceEvent> events;
  for (uint64_t i = 0; i < 3000; ++i) {
    const uint64_t h = SplitMix64(i);
    const NodeId src = static_cast<NodeId>(h % 20);
    const NodeId dst = static_cast<NodeId>(20 + (h >> 8) % 64);
    const double weight = 1.0 + 0.5 * static_cast<double>((h >> 20) % 8);
    events.push_back({src, dst, i, weight});
  }
  return events;
}

StreamSupervisor::Options GoldenOptions(const fs::path& dir) {
  StreamSupervisor::Options opts;
  opts.checkpoint_every = 1000;
  opts.checkpoint_dir = dir.string();
  opts.retry.initial_backoff_ms = 0;
  opts.retry.max_backoff_ms = 0;
  opts.builder.heavy_hitter_capacity = 8;
  opts.builder.cm_width = 64;
  opts.builder.cm_depth = 2;
  opts.builder.fm_bitmaps = 4;
  opts.builder.seed = 0x5eed;
  return opts;
}

std::vector<NodeId> GoldenFocal() {
  std::vector<NodeId> focal;
  for (NodeId v = 0; v < 16; ++v) focal.push_back(v);
  return focal;
}

std::string GoldenFixture() {
  return ReadFile(fs::path(COMMSIG_TEST_DATA_DIR) / "golden_stream.ckpt");
}

constexpr char kGoldenName[] = "ckpt.00000000000000002000.ckpt";

TEST_F(CheckpointTest, EncoderReproducesTheGoldenCheckpoint) {
  const std::string golden = GoldenFixture();
  ASSERT_EQ(golden.size(), 8140u);
  StreamSupervisor::Options opts = GoldenOptions(dir_);
  opts.kill_after = 2000;
  StreamSupervisor supervisor(GoldenFocal(), std::move(opts));
  StreamRunReport report = supervisor.Run(GoldenStream());
  ASSERT_TRUE(report.killed);
  EXPECT_EQ(ReadFile(dir_ / kGoldenName), golden);
}

TEST_F(CheckpointTest, RestoringTheGoldenCheckpointMatchesAnUninterruptedRun) {
  const std::vector<TraceEvent> events = GoldenStream();
  StreamSupervisor uninterrupted(GoldenFocal(), GoldenOptions(dir_ / "ref"));
  ASSERT_FALSE(uninterrupted.Run(events).killed);

  fs::create_directories(dir_ / "resume");
  fs::copy_file(fs::path(COMMSIG_TEST_DATA_DIR) / "golden_stream.ckpt",
                dir_ / "resume" / kGoldenName);
  StreamSupervisor resumed(GoldenFocal(), GoldenOptions(dir_ / "resume"));
  StreamRunReport report = resumed.Run(events);
  ASSERT_TRUE(report.restored_from_checkpoint);
  EXPECT_EQ(report.start_event, 2000u);
  EXPECT_EQ(report.final_position, events.size());

  ByteWriter want, got;
  uninterrupted.builder()->AppendTo(want);
  resumed.builder()->AppendTo(got);
  EXPECT_EQ(got.bytes(), want.bytes());
  for (NodeId v : GoldenFocal()) {
    EXPECT_EQ(resumed.builder()->TopTalkers(v, 5),
              uninterrupted.builder()->TopTalkers(v, 5));
    EXPECT_EQ(resumed.builder()->UnexpectedTalkers(v, 5),
              uninterrupted.builder()->UnexpectedTalkers(v, 5));
  }
}

// Durability regression tests: Save must route its whole fsync-the-tmp,
// rename, fsync-the-directory dance through the fail-point layer, fail
// loudly on any injected fault, and never leave a half-written file under
// the live checkpoint name (except for the torn rename, whose tear the
// CRC-validated loader must absorb via the previous generation).
class CheckpointDurabilityTest : public CheckpointTest {
 protected:
  void SetUp() override {
    CheckpointTest::SetUp();
    if (!failpoints::Enabled()) {
      GTEST_SKIP() << "built without COMMSIG_FAILPOINTS";
    }
    FailPointRegistry::Global().Reset();
  }
  void TearDown() override {
    if (failpoints::Enabled()) FailPointRegistry::Global().Reset();
    CheckpointTest::TearDown();
  }

  size_t FileCount() const {
    size_t files = 0;
    if (fs::exists(dir_)) {
      for (const auto& entry : fs::directory_iterator(dir_)) {
        (void)entry;
        ++files;
      }
    }
    return files;
  }
};

TEST_F(CheckpointDurabilityTest, SaveHitsEveryDurabilitySite) {
  // Arm every durability site with a spec that never fires (after=1000),
  // then Save once: each site must record a hit, proving the whole
  // open → write → fsync → rename → dirsync dance routes through the
  // fail-point layer and the chaos schedule can target any stage of it.
  auto& reg = FailPointRegistry::Global();
  const char* kSites[] = {"checkpoint/open", "checkpoint/write",
                          "checkpoint/fsync", "checkpoint/rename",
                          "checkpoint/dirsync"};
  for (const char* site : kSites) {
    reg.Arm(site, {FailPointKind::kEio, /*after=*/1000, /*count=*/1});
  }
  CheckpointManager manager(dir_.string());
  ASSERT_TRUE(manager.Save(1, "payload").ok());
  for (const char* site : kSites) {
    EXPECT_GE(reg.stats(site).hits, 1u) << site;
    EXPECT_EQ(reg.stats(site).fires, 0u) << site;
  }
}

TEST_F(CheckpointDurabilityTest, FsyncFailureFailsTheSaveAndRemovesTmp) {
  CheckpointManager manager(dir_.string());
  FailPointRegistry::Global().Arm("checkpoint/fsync",
                                  {FailPointKind::kFsyncFail, 0, 1});
  Status s = manager.Save(1, "must not survive");
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_EQ(FileCount(), 0u);  // neither tmp nor live name left behind
  // A clean retry (the supervisor's RetryPolicy) must then succeed.
  ASSERT_TRUE(manager.Save(1, "second try").ok());
  auto r = manager.LoadLatest();
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->payload, "second try");
}

TEST_F(CheckpointDurabilityTest, ShortWriteNeverReachesTheLiveName) {
  CheckpointManager manager(dir_.string());
  FailPointRegistry::Global().Arm("checkpoint/write",
                                  {FailPointKind::kShortWrite, 0, 1});
  EXPECT_TRUE(manager.Save(1, std::string(4096, 'x')).IsIOError());
  EXPECT_EQ(FileCount(), 0u);
}

TEST_F(CheckpointDurabilityTest, WriteSiteHitsDoNotDependOnPayloadSize) {
  // Seeded schedules such as `checkpoint/write=enospc@2` count writes: a
  // Save is the payload stream plus the header, however many chunks the
  // payload spans.
  auto& reg = FailPointRegistry::Global();
  reg.Arm("checkpoint/write", {FailPointKind::kEio, /*after=*/1000, 1});
  CheckpointManager manager(dir_.string());
  uint64_t sequence = 0;
  for (size_t size : {size_t{0}, size_t{1}, ByteWriter::kChunkBytes - 1,
                      ByteWriter::kChunkBytes, ByteWriter::kChunkBytes + 1,
                      5 * ByteWriter::kChunkBytes + 3}) {
    const uint64_t before = reg.stats("checkpoint/write").hits;
    ASSERT_TRUE(manager.Save(++sequence, Payload(size)).ok());
    EXPECT_EQ(reg.stats("checkpoint/write").hits - before, 2u) << size;
  }
}

TEST_F(CheckpointDurabilityTest, MidPayloadFaultsLeaveNoLiveFileAndNoTmp) {
  // The payload spans four full chunks and a 100-byte tail; a fault on the
  // payload write strikes at that tail, after the full chunks are on disk.
  const std::string payload = Payload(4 * ByteWriter::kChunkBytes + 100);
  for (FailPointKind kind :
       {FailPointKind::kShortWrite, FailPointKind::kEnospc}) {
    FailPointRegistry::Global().Arm("checkpoint/write", {kind, 0, 1});
    CheckpointManager manager(dir_.string());
    Status s = manager.Save(1, payload);
    EXPECT_TRUE(s.IsIOError()) << s.ToString();
    if (kind == FailPointKind::kShortWrite) {
      EXPECT_NE(s.ToString().find("(50/100 bytes)"), std::string::npos)
          << s.ToString();
    }
    EXPECT_EQ(FileCount(), 0u) << FailPointKindName(kind);
    EXPECT_TRUE(manager.LoadLatest().status().IsNotFound());
  }
}

TEST_F(CheckpointDurabilityTest, RetriedSaveReencodesIdenticalBytes) {
  StreamingSignatureBuilder::Options opts;
  opts.cm_width = 1024;
  StreamingSignatureBuilder builder({0, 1}, opts);
  for (uint64_t i = 0; i < 5000; ++i) {
    builder.Observe({static_cast<NodeId>(i % 3),
                     static_cast<NodeId>(3 + SplitMix64(i) % 500), i, 2.0});
  }
  int encodes = 0;
  auto encode = [&](ByteWriter& out) {
    ++encodes;
    builder.AppendTo(out);
  };
  const fs::path clean_dir = dir_ / "clean";
  ASSERT_TRUE(CheckpointManager(clean_dir.string()).Save(3, encode).ok());

  const fs::path retried_dir = dir_ / "retried";
  CheckpointManager manager(retried_dir.string());
  FailPointRegistry::Global().Arm("checkpoint/write",
                                  {FailPointKind::kShortWrite, 0, 1});
  RetryPolicy policy;
  policy.initial_backoff_ms = 0;
  policy.max_backoff_ms = 0;
  Retrier retrier(policy);
  ASSERT_TRUE(retrier
                  .Run("checkpoint_save",
                       [&]() { return manager.Save(3, encode); })
                  .ok());
  EXPECT_EQ(retrier.retries(), 1u);
  EXPECT_EQ(encodes, 3);  // clean, failed attempt, retry
  EXPECT_EQ(ReadFile(OnlyCheckpoint(retried_dir)),
            ReadFile(OnlyCheckpoint(clean_dir)));
}

TEST_F(CheckpointDurabilityTest, EnospcOnOpenFailsCleanly) {
  CheckpointManager manager(dir_.string());
  FailPointRegistry::Global().Arm("checkpoint/open",
                                  {FailPointKind::kEnospc, 0, 1});
  EXPECT_TRUE(manager.Save(1, "p").IsIOError());
  EXPECT_EQ(FileCount(), 0u);
}

TEST_F(CheckpointDurabilityTest, TornRenameFallsBackToPreviousGeneration) {
  CheckpointManager manager(dir_.string());
  ASSERT_TRUE(manager.Save(1, std::string(256, 'a')).ok());
  // The torn rename reports success — the tear lands silently under the
  // live name, exactly like a crash between rename and dir-fsync.
  FailPointRegistry::Global().Arm("checkpoint/rename",
                                  {FailPointKind::kTornRename, 0, 1});
  ASSERT_TRUE(manager.Save(2, std::string(256, 'b')).ok());
  auto r = manager.LoadLatest();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->sequence, 1u);
  EXPECT_EQ(r->payload, std::string(256, 'a'));
  EXPECT_TRUE(r->recovered_from_fallback);
  EXPECT_EQ(r->corrupt_skipped, 1u);
}

TEST_F(CheckpointDurabilityTest, DirsyncFailureSurfacesAsSaveFailure) {
  CheckpointManager manager(dir_.string());
  FailPointRegistry::Global().Arm("checkpoint/dirsync",
                                  {FailPointKind::kFsyncFail, 0, 1});
  // The rename already landed, but the save must still report failure: the
  // directory entry is not durable until the dirsync, and the caller's
  // retry rewrites the checkpoint from scratch.
  EXPECT_TRUE(manager.Save(1, "p").IsIOError());
}

}  // namespace
}  // namespace commsig
