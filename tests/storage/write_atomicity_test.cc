// Write-failure atomicity conformance (satellite of the durability plane): across
// memory, file, and tiered backends, a failed WriteChunk leaves NO readable partial
// chunk and does not move bytes_stored. Plus the FileBackend-specific halves:
// temp+rename publication (no torn chunk is ever visible, orphaned temps are swept
// at startup), crash recovery of the index, and the write-path fd-leak regression.
#include <gtest/gtest.h>
#include <dirent.h>
#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/storage/codec.h"
#include "src/storage/file_backend.h"
#include "src/storage/instrumented_backend.h"
#include "src/storage/memory_backend.h"
#include "src/storage/tiered_backend.h"

namespace hcache {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kChunkBytes = 64 * 1024;

int CountOpenFds() {
  int n = 0;
  DIR* d = opendir("/proc/self/fd");
  if (d == nullptr) {
    return -1;
  }
  while (readdir(d) != nullptr) {
    ++n;
  }
  closedir(d);
  return n;
}

class WriteAtomicityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    base_ = fs::temp_directory_path() /
            ("hcache_atomicity_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  void TearDown() override { fs::remove_all(base_); }

  std::vector<std::string> Dirs() { return {(base_ / "d0").string()}; }

  std::filesystem::path base_;
};

// Conformance body: inject a write failure in front of `backend`, confirm nothing
// leaked through, then confirm the same write succeeds cleanly afterwards.
void ExpectFailedWriteLeavesNoTrace(StorageBackend* backend) {
  InstrumentedBackend flaky(backend);
  const StorageStats before = backend->Stats();
  std::vector<char> payload(1024, 'x');

  flaky.FailNextWrites(1);
  EXPECT_FALSE(flaky.WriteChunk({9, 0, 0}, payload.data(), 1024));

  const StorageStats after = backend->Stats();
  EXPECT_EQ(after.bytes_stored, before.bytes_stored);
  EXPECT_EQ(after.chunks_stored, before.chunks_stored);
  EXPECT_EQ(after.total_writes, before.total_writes);
  EXPECT_FALSE(backend->HasChunk({9, 0, 0}));
  std::vector<char> buf(1024);
  EXPECT_EQ(backend->ReadChunk({9, 0, 0}, buf.data(), 1024), -1);  // absent, not partial

  // The failure consumed, the identical write goes through and round-trips.
  ASSERT_TRUE(flaky.WriteChunk({9, 0, 0}, payload.data(), 1024));
  EXPECT_EQ(backend->ReadChunk({9, 0, 0}, buf.data(), 1024), 1024);
  EXPECT_EQ(std::memcmp(buf.data(), payload.data(), 1024), 0);
  EXPECT_EQ(backend->Stats().bytes_stored, before.bytes_stored + 1024);
}

TEST_F(WriteAtomicityTest, MemoryBackendConformance) {
  MemoryBackend backend(kChunkBytes);
  ExpectFailedWriteLeavesNoTrace(&backend);
}

TEST_F(WriteAtomicityTest, FileBackendConformance) {
  FileBackend backend(Dirs(), kChunkBytes);
  ExpectFailedWriteLeavesNoTrace(&backend);
}

TEST_F(WriteAtomicityTest, TieredBackendConformance) {
  MemoryBackend cold(kChunkBytes);
  TieredBackend backend(&cold, 8 * kChunkBytes);
  ExpectFailedWriteLeavesNoTrace(&backend);
}

TEST_F(WriteAtomicityTest, NaturalWriteFailureLeavesNoPartialFileAndNoFdLeak) {
  // A REAL filesystem failure (not injected): squat the chunk's publish path with a
  // directory so the final rename(2) fails after the temp file was fully written.
  FileBackend backend(Dirs(), kChunkBytes);
  std::vector<char> payload(4096, 'q');
  // Chunk index 0 on a 1-device store lands at d0/ctx5/L0_C0.bin; a directory
  // there makes rename fail with EISDIR/ENOTEMPTY.
  ASSERT_TRUE(backend.WriteChunk({5, 0, 1}, payload.data(), 4096));  // creates ctx dir
  fs::create_directories(base_ / "d0" / "ctx5" / "L0_C0.bin");

  const StorageStats before = backend.Stats();
  const int fds_before = CountOpenFds();
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(backend.WriteChunk({5, 0, 0}, payload.data(), 4096));
  }
  // The fd-leak regression: 32 failed writes must not hold 32 fds open (the old
  // code's `written == bytes && fclose(f) == 0` short-circuit leaked the stream on
  // every short write).
  EXPECT_EQ(CountOpenFds(), fds_before);

  const StorageStats after = backend.Stats();
  EXPECT_EQ(after.bytes_stored, before.bytes_stored);
  EXPECT_EQ(after.total_writes, before.total_writes);
  EXPECT_FALSE(backend.HasChunk({5, 0, 0}));
  // No temp residue either: the failed write unlinked its own temp file.
  int temp_files = 0;
  for (const auto& e : fs::recursive_directory_iterator(base_)) {
    if (e.is_regular_file() && e.path().extension() == ".tmp") {
      ++temp_files;
    }
  }
  EXPECT_EQ(temp_files, 0);
}

TEST_F(WriteAtomicityTest, StartupRecoversIndexAndSweepsOrphanedTemps) {
  std::vector<char> payload(2048, 'r');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 31);
  }
  {
    FileBackend writer(Dirs(), kChunkBytes);
    ASSERT_TRUE(writer.WriteChunk({1, 0, 0}, payload.data(), 2048));
    ASSERT_TRUE(writer.WriteChunk({1, 2, 0}, payload.data(), 2048));
    ASSERT_TRUE(writer.WriteChunk({7, 0, 0}, payload.data(), 2048));
  }
  // Simulate a writer that died mid-write: a torn temp file next to a real chunk.
  {
    std::FILE* torn = std::fopen((base_ / "d0" / "ctx1" / "L5_C0.bin.tmp").c_str(), "wb");
    ASSERT_NE(torn, nullptr);
    std::fputs("half-written", torn);
    std::fclose(torn);
  }

  // A fresh process over the same dirs: every published chunk is readable again,
  // and the orphan is gone.
  FileBackend recovered(Dirs(), kChunkBytes);
  EXPECT_EQ(recovered.swept_temp_files(), 1);
  EXPECT_FALSE(fs::exists(base_ / "d0" / "ctx1" / "L5_C0.bin.tmp"));
  const StorageStats s = recovered.Stats();
  EXPECT_EQ(s.chunks_stored, 3);
  EXPECT_EQ(s.bytes_stored, 3 * 2048);
  std::vector<char> buf(2048);
  for (const ChunkKey key : {ChunkKey{1, 0, 0}, ChunkKey{1, 2, 0}, ChunkKey{7, 0, 0}}) {
    ASSERT_EQ(recovered.ReadChunk(key, buf.data(), 2048), 2048);
    EXPECT_EQ(std::memcmp(buf.data(), payload.data(), 2048), 0);
  }
  // The torn write's CHUNK never became visible: rename was the publish point.
  EXPECT_FALSE(recovered.HasChunk({1, 5, 0}));
}

TEST_F(WriteAtomicityTest, RecoveredChunksStillVerify) {
  // Recovery must not bypass verification: a sealed v2 chunk that survived a
  // "crash" reads back verified; one rotted on disk while the process was down
  // reads back kChunkCorrupt.
  std::vector<uint8_t> chunk(
      static_cast<size_t>(EncodedChunkBytes(ChunkCodec::kFp32, 8, 16)));
  for (size_t i = sizeof(ChunkHeader); i < chunk.size(); ++i) {
    chunk[i] = static_cast<uint8_t>(i * 7);
  }
  WriteChunkHeader(ChunkCodec::kFp32, 8, 16, chunk.data());
  const int64_t bytes = static_cast<int64_t>(chunk.size());
  {
    FileBackend writer(Dirs(), kChunkBytes);
    ASSERT_TRUE(writer.WriteChunk({1, 0, 0}, chunk.data(), bytes));
    ASSERT_TRUE(writer.WriteChunk({1, 1, 0}, chunk.data(), bytes));
  }
  // Offline bit rot on layer 1's file.
  const fs::path victim = base_ / "d0" / "ctx1" / "L1_C0.bin";
  ASSERT_TRUE(fs::exists(victim));
  {
    std::FILE* f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    std::fseek(f, static_cast<long>(sizeof(ChunkHeader) + 3), SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, static_cast<long>(sizeof(ChunkHeader) + 3), SEEK_SET);
    std::fputc(c ^ 0x20, f);
    std::fclose(f);
  }

  FileBackend recovered(Dirs(), kChunkBytes);
  std::vector<uint8_t> buf(static_cast<size_t>(bytes));
  EXPECT_EQ(recovered.ReadChunk({1, 0, 0}, buf.data(), bytes), bytes);
  EXPECT_EQ(recovered.ReadChunk({1, 1, 0}, buf.data(), bytes), kChunkCorrupt);
  EXPECT_EQ(recovered.Stats().crc_failures, 1);
}

}  // namespace
}  // namespace hcache
