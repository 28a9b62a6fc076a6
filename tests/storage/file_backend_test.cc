#include "src/storage/file_backend.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <map>
#include <thread>
#include <vector>

#include "src/storage/codec.h"
#include "src/storage/fsck.h"
#include "src/storage/instrumented_backend.h"

namespace hcache {
namespace {

namespace fs = std::filesystem;

class FileBackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = std::filesystem::temp_directory_path() /
            ("hcache_store_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
    dirs_ = {base_ / "dev0", base_ / "dev1", base_ / "dev2"};
  }
  void TearDown() override { std::filesystem::remove_all(base_); }

  std::vector<std::string> DirStrings() const {
    return {dirs_[0].string(), dirs_[1].string(), dirs_[2].string()};
  }

  static int CountEntries(const std::filesystem::path& dir) {
    int count = 0;
    for (const auto& e : std::filesystem::directory_iterator(dir)) {
      (void)e;
      ++count;
    }
    return count;
  }

  std::filesystem::path base_;
  std::vector<std::filesystem::path> dirs_;
};

std::vector<char> Payload(int64_t size, char fill) { return std::vector<char>(size, fill); }

constexpr int64_t kCols = 8;

// A sealed FP32 chunk of `rows` rows whose every payload element is `value`.
std::vector<uint8_t> Sealed(int64_t rows, float value) {
  std::vector<uint8_t> chunk(
      static_cast<size_t>(EncodedChunkBytes(ChunkCodec::kFp32, rows, kCols)));
  for (size_t i = sizeof(ChunkHeader); i + sizeof(float) <= chunk.size(); i += sizeof(float)) {
    std::memcpy(&chunk[i], &value, sizeof(float));
  }
  WriteChunkHeader(ChunkCodec::kFp32, rows, kCols, chunk.data());
  return chunk;
}

TEST_F(FileBackendTest, WriteReadRoundTrip) {
  FileBackend store(DirStrings(), 4096);
  const auto data = Payload(1000, 'x');
  ASSERT_TRUE(store.WriteChunk({1, 0, 0}, data.data(), 1000));
  std::vector<char> buf(4096);
  EXPECT_EQ(store.ReadChunk({1, 0, 0}, buf.data(), 4096), 1000);
  EXPECT_EQ(std::memcmp(buf.data(), data.data(), 1000), 0);
}

TEST_F(FileBackendTest, MissingChunkReturnsMinusOne) {
  FileBackend store(DirStrings(), 4096);
  std::vector<char> buf(4096);
  EXPECT_EQ(store.ReadChunk({9, 9, 9}, buf.data(), 4096), -1);
  EXPECT_FALSE(store.HasChunk({9, 9, 9}));
  EXPECT_EQ(store.ChunkSize({9, 9, 9}), -1);
}

TEST_F(FileBackendTest, SmallBufferRejected) {
  FileBackend store(DirStrings(), 4096);
  const auto data = Payload(1000, 'y');
  ASSERT_TRUE(store.WriteChunk({1, 0, 0}, data.data(), 1000));
  std::vector<char> buf(10);
  EXPECT_EQ(store.ReadChunk({1, 0, 0}, buf.data(), 10), -1);
}

TEST_F(FileBackendTest, OverwriteReplacesContent) {
  FileBackend store(DirStrings(), 4096);
  const auto a = Payload(100, 'a');
  const auto b = Payload(50, 'b');
  ASSERT_TRUE(store.WriteChunk({1, 2, 3}, a.data(), 100));
  ASSERT_TRUE(store.WriteChunk({1, 2, 3}, b.data(), 50));
  std::vector<char> buf(4096);
  EXPECT_EQ(store.ReadChunk({1, 2, 3}, buf.data(), 4096), 50);
  EXPECT_EQ(buf[0], 'b');
  EXPECT_EQ(store.chunks_stored(), 1);
}

TEST_F(FileBackendTest, RoundRobinStriping) {
  FileBackend store(DirStrings(), 4096);
  EXPECT_EQ(store.DeviceOf({1, 0, 0}), 0);
  EXPECT_EQ(store.DeviceOf({1, 0, 1}), 1);
  EXPECT_EQ(store.DeviceOf({1, 0, 2}), 2);
  EXPECT_EQ(store.DeviceOf({1, 0, 3}), 0);
  // Consecutive chunks of one layer land on different devices (bandwidth aggregation),
  // in the context's own segment on each device.
  const auto d = Payload(10, 'd');
  ASSERT_TRUE(store.WriteChunk({8, 0, 0}, d.data(), 10));
  const auto record = static_cast<int64_t>(std::filesystem::file_size(dirs_[0] / "ctx8.seg"));
  for (int64_t c = 0; c < 6; ++c) {
    ASSERT_TRUE(store.WriteChunk({7, 0, c}, d.data(), 10));
  }
  for (int dev = 0; dev < 3; ++dev) {
    EXPECT_EQ(static_cast<int64_t>(std::filesystem::file_size(dirs_[dev] / "ctx7.seg")),
              2 * record)
        << "device " << dev;
  }
}

TEST_F(FileBackendTest, DeleteContextRemovesOnlyThatContext) {
  FileBackend store(DirStrings(), 4096);
  const auto d = Payload(10, 'd');
  for (int64_t c = 0; c < 4; ++c) {
    ASSERT_TRUE(store.WriteChunk({1, 0, c}, d.data(), 10));
    ASSERT_TRUE(store.WriteChunk({2, 0, c}, d.data(), 10));
  }
  store.DeleteContext(1);
  EXPECT_FALSE(store.HasChunk({1, 0, 0}));
  EXPECT_TRUE(store.HasChunk({2, 0, 3}));
  EXPECT_EQ(store.chunks_stored(), 4);
}

TEST_F(FileBackendTest, DeleteContextUnlinksSegments) {
  // Long serving runs must not leak one file per dead context per device.
  FileBackend store(DirStrings(), 4096);
  const auto d = Payload(10, 'd');
  for (int64_t ctx = 1; ctx <= 3; ++ctx) {
    for (int64_t c = 0; c < 3; ++c) {
      ASSERT_TRUE(store.WriteChunk({ctx, 0, c}, d.data(), 10));
    }
  }
  for (int dev = 0; dev < 3; ++dev) {
    EXPECT_EQ(CountEntries(dirs_[dev]), 3) << "device " << dev;
  }
  store.DeleteContext(2);
  for (int dev = 0; dev < 3; ++dev) {
    EXPECT_FALSE(std::filesystem::exists(dirs_[dev] / "ctx2.seg")) << "device " << dev;
    EXPECT_EQ(CountEntries(dirs_[dev]), 2) << "device " << dev;
  }
  store.DeleteContext(1);
  store.DeleteContext(3);
  for (int dev = 0; dev < 3; ++dev) {
    EXPECT_EQ(CountEntries(dirs_[dev]), 0) << "device " << dev;
  }
  // A deleted context can be written again (its segments are recreated), and a
  // reopen does not bring back what was deleted.
  ASSERT_TRUE(store.WriteChunk({2, 0, 0}, d.data(), 10));
  EXPECT_TRUE(store.HasChunk({2, 0, 0}));
  FileBackend reopened(DirStrings(), 4096);
  EXPECT_EQ(reopened.ListChunks().size(), 1u);
  EXPECT_TRUE(reopened.HasChunk({2, 0, 0}));
}

TEST_F(FileBackendTest, StatsTrackWritesAndBytes) {
  FileBackend store(DirStrings(), 4096);
  const auto d = Payload(100, 'd');
  ASSERT_TRUE(store.WriteChunk({1, 0, 0}, d.data(), 100));
  ASSERT_TRUE(store.WriteChunk({1, 0, 1}, d.data(), 60));
  EXPECT_EQ(store.total_writes(), 2);
  EXPECT_EQ(store.bytes_stored(), 160);
  std::vector<char> buf(4096);
  store.ReadChunk({1, 0, 0}, buf.data(), 4096);
  EXPECT_EQ(store.total_reads(), 1);
  // Every FileBackend read is a cold-tier hit in the uniform stats.
  const StorageStats s = store.Stats();
  EXPECT_EQ(s.cold_hits, 1);
  EXPECT_EQ(s.dram_hits, 0);
}

TEST_F(FileBackendTest, TornLastRecordAtEveryOffsetLosesOnlyThatRecord) {
  // A crash can cut the last record of a segment at any byte. Every earlier chunk
  // must read back byte-identical after the reopen, and the torn key must be absent
  // (its first write) or at its previous version (a rewrite), checked against a
  // reference map of what the store held before the last write.
  for (const bool rewrite : {true, false}) {
    const fs::path pristine = base_ / "pristine";
    fs::remove_all(pristine);
    std::map<ChunkKey, std::vector<uint8_t>> oracle;
    const ChunkKey torn_key{1, rewrite ? 2 : 9, 0};
    int64_t start = 0;
    int64_t end = 0;
    {
      FileBackend store({pristine.string()}, 4096);
      for (int64_t layer = 0; layer < 4; ++layer) {
        for (int64_t c = 0; c < 2; ++c) {
          const auto chunk = Sealed(1 + layer + c, static_cast<float>(layer * 10 + c));
          ASSERT_TRUE(store.WriteChunk({1, layer, c}, chunk.data(),
                                       static_cast<int64_t>(chunk.size())));
          oracle[ChunkKey{1, layer, c}] = chunk;
        }
      }
      start = static_cast<int64_t>(fs::file_size(pristine / "ctx1.seg"));
      const auto last = Sealed(5, 99.0f);
      ASSERT_TRUE(store.WriteChunk(torn_key, last.data(), static_cast<int64_t>(last.size())));
      end = static_cast<int64_t>(fs::file_size(pristine / "ctx1.seg"));
    }
    const fs::path work = base_ / "work";
    const fs::path segment = work / "ctx1.seg";
    for (int64_t cut = start + 1; cut < end; ++cut) {
      fs::remove_all(work);
      fs::copy(pristine, work, fs::copy_options::recursive);
      fs::resize_file(segment, static_cast<uintmax_t>(cut));
      {
        // Report-only fsck over a store opened without the sweep sees the torn tail.
        FileBackendOptions keep;
        keep.sweep_temp_files = false;
        FileBackend inspected({work.string()}, 4096, keep);
        const FsckReport report = RunFsck(&inspected);
        ASSERT_EQ(report.partial, 1) << "cut at " << cut;
        ASSERT_EQ(report.corrupt, 0) << "cut at " << cut;
        ASSERT_EQ(report.clean, static_cast<int64_t>(oracle.size())) << "cut at " << cut;
        ASSERT_EQ(static_cast<int64_t>(fs::file_size(segment)), cut);
      }
      FileBackend reopened({work.string()}, 4096);
      EXPECT_EQ(static_cast<int64_t>(fs::file_size(segment)), start);
      ASSERT_EQ(reopened.ListChunks().size(), oracle.size()) << "cut at " << cut;
      std::vector<uint8_t> buf(4096);
      for (const auto& [key, bytes] : oracle) {
        ASSERT_EQ(reopened.ReadChunk(key, buf.data(), 4096),
                  static_cast<int64_t>(bytes.size()))
            << "cut at " << cut;
        ASSERT_EQ(std::memcmp(buf.data(), bytes.data(), bytes.size()), 0) << "cut at " << cut;
      }
      ASSERT_EQ(reopened.HasChunk(torn_key), rewrite);
    }
  }
}

TEST_F(FileBackendTest, DeleteAndQuarantineStayDeletedAcrossReopen) {
  {
    FileBackend store(DirStrings(), 4096);
    InstrumentedBackend chaos(&store);
    for (int64_t c = 0; c < 8; ++c) {
      const auto chunk = Sealed(4, static_cast<float>(c));
      ASSERT_TRUE(
          store.WriteChunk({3, 0, c}, chunk.data(), static_cast<int64_t>(chunk.size())));
    }
    ASSERT_TRUE(store.DeleteChunk({3, 0, 1}));
    ASSERT_TRUE(chaos.CorruptChunk({3, 0, 4}, 8 * (sizeof(ChunkHeader) + 2)));
    FsckOptions repair;
    repair.repair = true;
    const FsckReport report = RunFsck(&store, repair);
    ASSERT_EQ(report.corrupt, 1);
    ASSERT_EQ(report.repaired, 1);
  }
  FileBackend reopened(DirStrings(), 4096);
  EXPECT_FALSE(reopened.HasChunk({3, 0, 1}));
  EXPECT_FALSE(reopened.HasChunk({3, 0, 4}));
  EXPECT_EQ(reopened.ListChunks().size(), 6u);
  EXPECT_TRUE(RunFsck(&reopened).Healthy());
}

TEST_F(FileBackendTest, RewritesOfOnePartialChunkKeepTheSegmentBounded) {
  constexpr int64_t kChunk = 4096;
  FileBackend store({dirs_[0].string()}, kChunk);
  const auto full = Payload(kChunk, 'f');
  for (int64_t c = 0; c < 3; ++c) {
    ASSERT_TRUE(store.WriteChunk({4, 0, c}, full.data(), kChunk));
  }
  const fs::path segment = dirs_[0] / "ctx4.seg";
  std::vector<char> last;
  for (int i = 0; i < 1000; ++i) {
    last = Payload(1 + (i * 37) % kChunk, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(store.WriteChunk({4, 0, 3}, last.data(), static_cast<int64_t>(last.size())));
    ASSERT_LE(static_cast<int64_t>(fs::file_size(segment)),
              2 * store.bytes_stored() + 2 * kChunk)
        << "after rewrite " << i;
  }
  FileBackend reopened({dirs_[0].string()}, kChunk);
  EXPECT_EQ(reopened.bytes_stored(), 3 * kChunk + static_cast<int64_t>(last.size()));
  std::vector<char> buf(kChunk);
  ASSERT_EQ(reopened.ReadChunk({4, 0, 3}, buf.data(), kChunk),
            static_cast<int64_t>(last.size()));
  EXPECT_EQ(std::memcmp(buf.data(), last.data(), last.size()), 0);
  ASSERT_EQ(reopened.ReadChunk({4, 0, 0}, buf.data(), kChunk), kChunk);
  EXPECT_EQ(std::memcmp(buf.data(), full.data(), kChunk), 0);
}

TEST_F(FileBackendTest, ConcurrentRewritesCompactionAndReadsNeverMixVersions) {
  // Writers rewrite (and now and then delete) four keys of one context with chunks
  // of varying size, which keeps compaction running; readers verify every chunk they
  // get. A chunk that mixed two versions fails its CRC or its uniform payload.
  constexpr int64_t kKeys = 4;
  constexpr int kRounds = 400;
  FileBackend store({dirs_[0].string(), dirs_[1].string()},
                    EncodedChunkBytes(ChunkCodec::kFp32, 8, kCols));
  std::atomic<bool> stop{false};
  std::atomic<int64_t> delivered{0};
  std::atomic<int64_t> bad{0};
  std::vector<std::thread> writers;
  std::vector<std::thread> readers;
  for (int w = 0; w < 2; ++w) {
    writers.emplace_back([&, w] {
      for (int i = 0; i < kRounds; ++i) {
        const ChunkKey key{1, 0, (i + w) % kKeys};
        const auto chunk = Sealed(1 + i % 8, static_cast<float>(w * kRounds + i));
        if (!store.WriteChunk(key, chunk.data(), static_cast<int64_t>(chunk.size()))) {
          bad.fetch_add(1);
        }
        if (i % 50 == 7) {
          store.DeleteChunk(key);
        }
      }
    });
  }
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      std::vector<uint8_t> buf(static_cast<size_t>(store.chunk_bytes()));
      while (!stop.load()) {
        for (int64_t c = 0; c < kKeys; ++c) {
          const int64_t got = store.ReadChunk({1, 0, c}, buf.data(), store.chunk_bytes());
          if (got == -1) {
            continue;  // deleted just now
          }
          float first = 0;
          std::memcpy(&first, &buf[sizeof(ChunkHeader)], sizeof(float));
          bool uniform = got > 0;
          for (int64_t i = sizeof(ChunkHeader); uniform && i < got; i += sizeof(float)) {
            uniform = std::memcmp(&buf[static_cast<size_t>(i)], &first, sizeof(float)) == 0;
          }
          (uniform ? delivered : bad).fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : writers) {
    t.join();
  }
  stop.store(true);
  for (std::thread& t : readers) {
    t.join();
  }
  EXPECT_EQ(bad.load(), 0);
  EXPECT_GT(delivered.load(), 0);
  EXPECT_EQ(store.Stats().crc_failures, 0);
  // The log the threads left behind replays to the same chunks.
  const auto before = store.ListChunks();
  FileBackend reopened({dirs_[0].string(), dirs_[1].string()}, store.chunk_bytes());
  EXPECT_EQ(reopened.ListChunks(), before);
}

int CountOpenFds() {
  int n = 0;
  for (const auto& e : fs::directory_iterator("/proc/self/fd")) {
    (void)e;
    ++n;
  }
  return n;
}

TEST_F(FileBackendTest, ManyContextsKeepOpenFdsBounded) {
  // 200 contexts over three devices are up to 600 segments; threads write and
  // verify-read them all at once, so the LRU closes fds that readers still hold.
  constexpr int64_t kContexts = 200;
  const int fds_before = CountOpenFds();
  std::map<ChunkKey, std::vector<uint8_t>> oracle;
  {
    FileBackend store(DirStrings(), 4096);
    std::vector<std::thread> threads;
    std::atomic<int64_t> bad{0};
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        std::vector<uint8_t> buf(4096);
        for (int64_t ctx = t; ctx < kContexts; ctx += 4) {
          for (int64_t c = 0; c < 3; ++c) {
            const auto chunk = Sealed(2 + c, static_cast<float>(ctx * 3 + c));
            const int64_t size = static_cast<int64_t>(chunk.size());
            if (!store.WriteChunk({ctx, 0, c}, chunk.data(), size) ||
                store.ReadChunk({ctx, 0, (c + 2) % 3}, buf.data(), 4096) == kChunkCorrupt) {
              bad.fetch_add(1);
            }
          }
        }
      });
    }
    for (std::thread& t : threads) {
      t.join();
    }
    EXPECT_EQ(bad.load(), 0);
    EXPECT_LE(CountOpenFds(), fds_before + 128);
    for (int64_t ctx = 0; ctx < kContexts; ++ctx) {
      for (int64_t c = 0; c < 3; ++c) {
        oracle[ChunkKey{ctx, 0, c}] = Sealed(2 + c, static_cast<float>(ctx * 3 + c));
      }
    }
  }
  EXPECT_EQ(CountOpenFds(), fds_before);
  FileBackend reopened(DirStrings(), 4096);
  EXPECT_LE(CountOpenFds(), fds_before + 128);
  ASSERT_EQ(reopened.ListChunks().size(), oracle.size());
  std::vector<uint8_t> buf(4096);
  for (const auto& [key, bytes] : oracle) {
    ASSERT_EQ(reopened.ReadChunk(key, buf.data(), 4096), static_cast<int64_t>(bytes.size()));
    ASSERT_EQ(std::memcmp(buf.data(), bytes.data(), bytes.size()), 0);
  }
  EXPECT_LE(CountOpenFds(), fds_before + 128);
}

TEST_F(FileBackendTest, DamagedFrameBeforeTheTailIsLeftInPlaceAndReported) {
  // A bit flip in the first record's frame is not a torn tail: the records after it
  // must survive the reopen untouched, not be truncated away.
  const fs::path segment = dirs_[0] / "ctx2.seg";
  std::map<ChunkKey, std::vector<uint8_t>> oracle;
  {
    FileBackend store({dirs_[0].string()}, 4096);
    for (int64_t layer = 0; layer < 4; ++layer) {
      oracle[ChunkKey{2, layer, 0}] = Sealed(100, static_cast<float>(layer));
      const auto& chunk = oracle[ChunkKey{2, layer, 0}];
      ASSERT_TRUE(store.WriteChunk({2, layer, 0}, chunk.data(),
                                   static_cast<int64_t>(chunk.size())));
    }
  }
  const auto size = fs::file_size(segment);
  const auto flip = [&] {
    std::FILE* f = std::fopen(segment.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 16, SEEK_SET);  // inside the first frame's layer
    const int byte = std::fgetc(f);
    std::fseek(f, 16, SEEK_SET);
    std::fputc(byte ^ 0x04, f);
    std::fclose(f);
  };
  flip();
  {
    FileBackend store({dirs_[0].string()}, 4096);
    EXPECT_EQ(fs::file_size(segment), size);
    EXPECT_TRUE(store.ListChunks().empty());
    const auto chunk = Sealed(1, 7.0f);
    EXPECT_FALSE(store.WriteChunk({2, 9, 0}, chunk.data(), static_cast<int64_t>(chunk.size())));
    EXPECT_EQ(fs::file_size(segment), size);
    FsckOptions repair;
    repair.repair = true;
    const FsckReport report = RunFsck(&store, repair);
    EXPECT_EQ(report.corrupt, 1);
    EXPECT_EQ(report.partial, 0);
    EXPECT_EQ(report.repaired, 0);
    const auto tails = store.TornTails(/*truncate=*/true);
    ASSERT_EQ(tails.size(), 1u);
    EXPECT_TRUE(tails[0].damaged);
    EXPECT_FALSE(tails[0].truncated);
    EXPECT_EQ(fs::file_size(segment), size);
  }
  flip();
  FileBackend mended({dirs_[0].string()}, 4096);
  ASSERT_EQ(mended.ListChunks().size(), oracle.size());
  std::vector<uint8_t> buf(4096);
  for (const auto& [key, bytes] : oracle) {
    ASSERT_EQ(mended.ReadChunk(key, buf.data(), 4096), static_cast<int64_t>(bytes.size()));
    EXPECT_EQ(std::memcmp(buf.data(), bytes.data(), bytes.size()), 0);
  }
}

TEST_F(FileBackendTest, ReopenWithOtherStripingOrChunkSizeLeavesRecordsInPlace) {
  // Whole records written under another device count or a larger chunk_bytes are
  // not indexed, but neither are they a torn tail to cut off: the original
  // configuration reads them all back.
  std::map<ChunkKey, std::vector<char>> oracle;
  {
    FileBackend store(DirStrings(), 4096);
    for (int64_t c = 0; c < 6; ++c) {
      oracle[ChunkKey{1, 0, c}] = Payload(2000, static_cast<char>('a' + c));
      ASSERT_TRUE(store.WriteChunk({1, 0, c}, oracle[ChunkKey{1, 0, c}].data(), 2000));
    }
  }
  const auto sizes = [&] {
    std::vector<uintmax_t> out;
    for (const auto& dir : dirs_) {
      out.push_back(fs::file_size(dir / "ctx1.seg"));
    }
    return out;
  };
  const auto before = sizes();
  {
    FileBackend two_devices({dirs_[0].string(), dirs_[1].string()}, 4096);
    EXPECT_EQ(two_devices.ListChunks().size(), 2u);  // chunks 0 and 1 stripe alike
    FileBackend smaller_chunks(DirStrings(), 1024);
    EXPECT_TRUE(smaller_chunks.ListChunks().empty());
  }
  EXPECT_EQ(sizes(), before);
  FileBackend original(DirStrings(), 4096);
  ASSERT_EQ(original.ListChunks().size(), oracle.size());
  std::vector<char> buf(4096);
  for (const auto& [key, bytes] : oracle) {
    ASSERT_EQ(original.ReadChunk(key, buf.data(), 4096), 2000);
    EXPECT_EQ(std::memcmp(buf.data(), bytes.data(), 2000), 0);
  }
}

TEST_F(FileBackendTest, UnopenableSegmentIsReportedAndNeverOverwritten) {
  // A segment that will not open at startup is an error, not an absent segment that
  // the next append may create over.
  const fs::path segment = dirs_[0] / "ctx5.seg";
  fs::create_directories(segment / "keep");
  FileBackend store({dirs_[0].string()}, 4096);
  const auto chunk = Sealed(1, 5.0f);
  const int64_t size = static_cast<int64_t>(chunk.size());
  EXPECT_FALSE(store.WriteChunk({5, 0, 0}, chunk.data(), size));
  EXPECT_TRUE(fs::is_directory(segment / "keep"));
  EXPECT_TRUE(store.WriteChunk({6, 0, 0}, chunk.data(), size));
  EXPECT_EQ(RunFsck(&store).corrupt, 1);
}

TEST_F(FileBackendTest, CompactionNeverWritesIntoAnExistingTempFile) {
  FileBackendOptions keep;
  keep.sweep_temp_files = false;
  const fs::path stale = dirs_[0] / "ctx4.seg.1.tmp";
  fs::create_directories(dirs_[0]);
  {
    std::FILE* f = std::fopen(stale.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("stale", f);
    std::fclose(f);
  }
  FileBackend store({dirs_[0].string()}, 4096, keep);
  const auto full = Payload(4096, 'f');
  ASSERT_TRUE(store.WriteChunk({4, 0, 0}, full.data(), 4096));
  std::vector<char> last;
  for (int i = 0; i < 50; ++i) {  // several compactions; the first finds its name taken
    last = Payload(2000 + i, static_cast<char>('a' + i % 26));
    ASSERT_TRUE(store.WriteChunk({4, 0, 1}, last.data(), static_cast<int64_t>(last.size())));
  }
  EXPECT_EQ(fs::file_size(stale), 5u);
  EXPECT_LE(static_cast<int64_t>(fs::file_size(dirs_[0] / "ctx4.seg")),
            2 * store.bytes_stored() + 2 * 4096);
  std::vector<char> buf(4096);
  ASSERT_EQ(store.ReadChunk({4, 0, 1}, buf.data(), 4096), static_cast<int64_t>(last.size()));
  EXPECT_EQ(std::memcmp(buf.data(), last.data(), last.size()), 0);
}

}  // namespace
}  // namespace hcache
