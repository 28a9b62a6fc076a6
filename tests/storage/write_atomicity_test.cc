// Write-failure atomicity conformance (satellite of the durability plane): across
// memory, file, and tiered backends, a failed WriteChunk leaves NO readable partial
// chunk and does not move bytes_stored. Plus the FileBackend-specific halves: a
// failed append is rolled back (no torn record is ever visible, torn tails and
// orphaned compaction temps are swept at startup), crash recovery of the index, and
// the write-path fd-leak regression.
#include <gtest/gtest.h>
#include <dirent.h>
#include <sys/resource.h>
#include <unistd.h>

#include <csignal>

#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/storage/codec.h"
#include "src/storage/file_backend.h"
#include "src/storage/instrumented_backend.h"
#include "src/storage/memory_backend.h"
#include "src/storage/tiered_backend.h"
#include "tests/test_dir.h"

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
  }

  std::vector<std::string> Dirs() { return {(base_ / "d0").string()}; }

  TestDir base_{"atomicity"};
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

TEST_F(WriteAtomicityTest, NaturalAppendFailureLeavesNoPartialRecordAndNoFdLeak) {
  // A REAL filesystem failure (not injected): a file-size limit just past the
  // segment's end lets the kernel take the frame and part of the payload, then
  // refuses the rest with EFBIG. SIGXFSZ is ignored so the failure is an errno.
  FileBackend backend(Dirs(), kChunkBytes);
  std::vector<char> payload(4096, 'q');
  ASSERT_TRUE(backend.WriteChunk({5, 0, 1}, payload.data(), 4096));  // creates the segment
  const fs::path segment = base_ / "d0" / "ctx5.seg";
  const auto length_before = fs::file_size(segment);

  const StorageStats before = backend.Stats();
  const int fds_before = CountOpenFds();
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_FSIZE, &saved), 0);
  const auto old_handler = std::signal(SIGXFSZ, SIG_IGN);
  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(length_before + 100);
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &tight), 0);
  for (int i = 0; i < 32; ++i) {
    EXPECT_FALSE(backend.WriteChunk({5, 0, 0}, payload.data(), 4096));
  }
  ASSERT_EQ(::setrlimit(RLIMIT_FSIZE, &saved), 0);
  std::signal(SIGXFSZ, old_handler);

  // The partial record was cut off again: the segment holds whole records only.
  EXPECT_EQ(fs::file_size(segment), length_before);
  // The fd-leak regression: 32 failed writes must not hold 32 fds open.
  EXPECT_EQ(CountOpenFds(), fds_before);
  const StorageStats after = backend.Stats();
  EXPECT_EQ(after.bytes_stored, before.bytes_stored);
  EXPECT_EQ(after.chunks_stored, before.chunks_stored);
  EXPECT_EQ(after.total_writes, before.total_writes);
  EXPECT_FALSE(backend.HasChunk({5, 0, 0}));

  // Appends after the failure land, and survive a reopen.
  ASSERT_TRUE(backend.WriteChunk({5, 0, 0}, payload.data(), 4096));
  ASSERT_TRUE(backend.WriteChunk({5, 1, 0}, payload.data(), 4096));
  FileBackend reopened(Dirs(), kChunkBytes);
  EXPECT_EQ(reopened.chunks_stored(), 3);
  std::vector<char> buf(4096);
  for (const ChunkKey key : {ChunkKey{5, 0, 0}, ChunkKey{5, 0, 1}, ChunkKey{5, 1, 0}}) {
    ASSERT_EQ(reopened.ReadChunk(key, buf.data(), 4096), 4096);
    EXPECT_EQ(std::memcmp(buf.data(), payload.data(), 4096), 0);
  }
}

TEST_F(WriteAtomicityTest, StartupTruncatesTornTailAndSweepsOrphanedTemps) {
  std::vector<char> payload(2048, 'r');
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<char>(i * 31);
  }
  const fs::path segment = base_ / "d0" / "ctx1.seg";
  uintmax_t whole = 0;
  {
    FileBackend writer(Dirs(), kChunkBytes);
    ASSERT_TRUE(writer.WriteChunk({1, 0, 0}, payload.data(), 2048));
    ASSERT_TRUE(writer.WriteChunk({1, 2, 0}, payload.data(), 2048));
    ASSERT_TRUE(writer.WriteChunk({7, 0, 0}, payload.data(), 2048));
    whole = fs::file_size(segment);
    ASSERT_TRUE(writer.WriteChunk({1, 5, 0}, payload.data(), 2048));
  }
  // Simulate a writer that died mid-append (the last record lost its tail) and a
  // compaction that died before its rename.
  fs::resize_file(segment, whole + 1000);
  {
    std::FILE* orphan = std::fopen((base_ / "d0" / "ctx1.seg.tmp").c_str(), "wb");
    ASSERT_NE(orphan, nullptr);
    std::fputs("half-compacted", orphan);
    std::fclose(orphan);
  }

  // A fresh process over the same dirs: every whole record is readable again, the
  // torn tail is cut and the orphan is gone.
  FileBackend recovered(Dirs(), kChunkBytes);
  EXPECT_FALSE(fs::exists(base_ / "d0" / "ctx1.seg.tmp"));
  EXPECT_EQ(fs::file_size(segment), whole);
  EXPECT_TRUE(recovered.TornTails().empty());
  const StorageStats s = recovered.Stats();
  EXPECT_EQ(s.chunks_stored, 3);
  EXPECT_EQ(s.bytes_stored, 3 * 2048);
  std::vector<char> buf(2048);
  for (const ChunkKey key : {ChunkKey{1, 0, 0}, ChunkKey{1, 2, 0}, ChunkKey{7, 0, 0}}) {
    ASSERT_EQ(recovered.ReadChunk(key, buf.data(), 2048), 2048);
    EXPECT_EQ(std::memcmp(buf.data(), payload.data(), 2048), 0);
  }
  // The torn record's chunk never became visible.
  EXPECT_FALSE(recovered.HasChunk({1, 5, 0}));
}

TEST_F(WriteAtomicityTest, RecoveredChunksStillVerify) {
  // Recovery must not bypass verification: a sealed chunk that survived a
  // "crash" reads back verified; one rotted on disk while the process was down
  // reads back kChunkCorrupt.
  std::vector<uint8_t> chunk(
      static_cast<size_t>(EncodedChunkBytes(ChunkCodec::kFp32, 8, 16)));
  for (size_t i = sizeof(ChunkHeader); i < chunk.size(); ++i) {
    chunk[i] = static_cast<uint8_t>(i * 7);
  }
  WriteChunkHeader(ChunkCodec::kFp32, 8, 16, chunk.data());
  const int64_t bytes = static_cast<int64_t>(chunk.size());
  const fs::path victim = base_ / "d0" / "ctx1.seg";
  long layer1_payload = 0;  // where layer 1's chunk bytes start in the segment
  {
    FileBackend writer(Dirs(), kChunkBytes);
    ASSERT_TRUE(writer.WriteChunk({1, 0, 0}, chunk.data(), bytes));
    const auto record = static_cast<long>(fs::file_size(victim));
    layer1_payload = record + (record - static_cast<long>(bytes));
    ASSERT_TRUE(writer.WriteChunk({1, 1, 0}, chunk.data(), bytes));
  }
  // Offline bit rot in layer 1's record.
  {
    std::FILE* f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const long at = layer1_payload + static_cast<long>(sizeof(ChunkHeader)) + 3;
    std::fseek(f, at, SEEK_SET);
    int c = std::fgetc(f);
    std::fseek(f, at, SEEK_SET);
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
