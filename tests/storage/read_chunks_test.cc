// Cross-backend conformance for the batched read API (storage_backend.h's
// ReadChunks contract): a batch must deliver exactly what N serial ReadChunk calls
// would — same bytes, same per-request failures, same stats — on every backend, and
// per-request failures (absent chunk, short buffer) must never poison the rest of
// the batch or leave side effects.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/storage/dedup_backend.h"
#include "src/storage/distributed_backend.h"
#include "src/storage/file_backend.h"
#include "src/storage/instrumented_backend.h"
#include "src/storage/memory_backend.h"
#include "src/storage/storage_backend.h"
#include "src/storage/tiered_backend.h"
#include "tests/test_dir.h"

namespace hcache {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kChunkBytes = 4096;

std::vector<char> Payload(const ChunkKey& key, int64_t bytes) {
  std::vector<char> data(static_cast<size_t>(bytes));
  for (int64_t i = 0; i < bytes; ++i) {
    data[static_cast<size_t>(i)] = static_cast<char>(
        (key.context_id * 131 + key.layer * 31 + key.chunk_index * 7 + i) & 0xff);
  }
  return data;
}

// One backend under test plus everything needed to clean it up.
struct Fixture {
  std::string name;
  StorageBackend* backend = nullptr;
  // Order matters on teardown: wrappers before inner tiers, tiers before stores.
  std::vector<std::unique_ptr<StorageBackend>> owned;
  fs::path dir;

  ~Fixture() {
    owned.clear();
    if (!dir.empty()) {
      std::error_code ec;
      fs::remove_all(dir, ec);
    }
  }
};

std::vector<std::shared_ptr<Fixture>> MakeFixtures(const std::string& tag) {
  std::vector<std::shared_ptr<Fixture>> fixtures;

  {
    auto f = std::make_shared<Fixture>();
    f->name = "memory";
    auto mem = std::make_unique<MemoryBackend>(kChunkBytes);
    f->backend = mem.get();
    f->owned.push_back(std::move(mem));
    fixtures.push_back(std::move(f));
  }
  {
    auto f = std::make_shared<Fixture>();
    f->name = "file";
    f->dir = fs::temp_directory_path() / ("read_chunks_" + tag + "_file");
    fs::remove_all(f->dir);
    auto file = std::make_unique<FileBackend>(
        std::vector<std::string>{(f->dir / "d0").string(), (f->dir / "d1").string(),
                                 (f->dir / "d2").string()},
        kChunkBytes);
    f->backend = file.get();
    f->owned.push_back(std::move(file));
    fixtures.push_back(std::move(f));
  }
  {
    auto f = std::make_shared<Fixture>();
    f->name = "tiered";
    auto cold = std::make_unique<MemoryBackend>(kChunkBytes);
    // Budget for ~4 chunks: some of the working set below lives cold, so the batch
    // exercises DRAM hits, cold hits, and promotion in one submission.
    auto tiered = std::make_unique<TieredBackend>(cold.get(), 4 * kChunkBytes);
    f->backend = tiered.get();
    f->owned.push_back(std::move(tiered));  // tiered destructs before its cold tier
    f->owned.push_back(std::move(cold));
    fixtures.push_back(std::move(f));
  }
  {
    auto f = std::make_shared<Fixture>();
    f->name = "instrumented";
    auto mem = std::make_unique<MemoryBackend>(kChunkBytes);
    auto wrapped = std::make_unique<InstrumentedBackend>(mem.get());
    f->backend = wrapped.get();
    f->owned.push_back(std::move(wrapped));
    f->owned.push_back(std::move(mem));
    fixtures.push_back(std::move(f));
  }
  {
    auto f = std::make_shared<Fixture>();
    f->name = "distributed";
    auto dist = std::make_unique<DistributedColdBackend>(3, kChunkBytes);
    f->backend = dist.get();
    f->owned.push_back(std::move(dist));
    fixtures.push_back(std::move(f));
  }
  {
    auto f = std::make_shared<Fixture>();
    f->name = "dedup";
    auto mem = std::make_unique<MemoryBackend>(kChunkBytes);
    auto dedup = std::make_unique<DedupBackend>(mem.get());
    f->backend = dedup.get();
    f->owned.push_back(std::move(dedup));
    f->owned.push_back(std::move(mem));
    fixtures.push_back(std::move(f));
  }
  {
    // A batch against the tiered stack whose cold tier single-instances: duplicate
    // logical keys of one shared chunk must still each get their bytes.
    auto f = std::make_shared<Fixture>();
    f->name = "tiered_dedup";
    auto mem = std::make_unique<MemoryBackend>(kChunkBytes);
    auto dedup = std::make_unique<DedupBackend>(mem.get());
    auto tiered = std::make_unique<TieredBackend>(dedup.get(), 4 * kChunkBytes);
    f->backend = tiered.get();
    f->owned.push_back(std::move(tiered));
    f->owned.push_back(std::move(dedup));
    f->owned.push_back(std::move(mem));
    fixtures.push_back(std::move(f));
  }
  return fixtures;
}

// A working set spanning three contexts with varied chunk sizes.
std::vector<std::pair<ChunkKey, int64_t>> WorkingSet() {
  std::vector<std::pair<ChunkKey, int64_t>> set;
  for (int64_t ctx = 1; ctx <= 3; ++ctx) {
    for (int64_t layer = 0; layer < 2; ++layer) {
      for (int64_t c = 0; c < 4; ++c) {
        set.emplace_back(ChunkKey{ctx, layer, c}, kChunkBytes / 2 + 256 * c + 64 * layer);
      }
    }
  }
  return set;
}

TEST(ReadChunksTest, BatchMatchesSerialReadsOnEveryBackend) {
  for (const auto& f : MakeFixtures("serial_eq")) {
    SCOPED_TRACE(f->name);
    const auto set = WorkingSet();
    for (const auto& [key, bytes] : set) {
      const auto data = Payload(key, bytes);
      ASSERT_TRUE(f->backend->WriteChunk(key, data.data(), bytes));
    }
    // Serial reference pass on a twin set of buffers.
    std::vector<std::vector<char>> want(set.size());
    std::vector<int64_t> want_result(set.size());
    for (size_t i = 0; i < set.size(); ++i) {
      want[i].assign(kChunkBytes, '\0');
      want_result[i] =
          f->backend->ReadChunk(set[i].first, want[i].data(), kChunkBytes);
    }
    // Batched pass.
    std::vector<std::vector<char>> got(set.size());
    std::vector<ChunkReadRequest> reqs(set.size());
    for (size_t i = 0; i < set.size(); ++i) {
      got[i].assign(kChunkBytes, '\x7f');
      reqs[i] = ChunkReadRequest{set[i].first, got[i].data(), kChunkBytes, -1};
    }
    int completions = 0;
    f->backend->ReadChunks(reqs, [&completions] { ++completions; });
    EXPECT_EQ(1, completions) << "completion must run exactly once, before return";
    for (size_t i = 0; i < set.size(); ++i) {
      ASSERT_EQ(want_result[i], reqs[i].result) << "request " << i;
      ASSERT_GT(reqs[i].result, 0);
      ASSERT_EQ(0, std::memcmp(want[i].data(), got[i].data(),
                               static_cast<size_t>(reqs[i].result)))
          << "request " << i;
    }
  }
}

TEST(ReadChunksTest, PerRequestFailuresDoNotPoisonTheBatch) {
  for (const auto& f : MakeFixtures("partial")) {
    SCOPED_TRACE(f->name);
    const ChunkKey present{1, 0, 0};
    const ChunkKey absent{1, 0, 9};
    const ChunkKey big{2, 0, 0};
    const auto present_data = Payload(present, 1024);
    const auto big_data = Payload(big, 2048);
    ASSERT_TRUE(f->backend->WriteChunk(present, present_data.data(), 1024));
    ASSERT_TRUE(f->backend->WriteChunk(big, big_data.data(), 2048));
    f->backend->Quiesce();
    const StorageStats before = f->backend->Stats();

    std::vector<char> buf_ok(kChunkBytes, '\0');
    std::vector<char> buf_absent(kChunkBytes, '\x3c');
    std::vector<char> buf_short(128, '\x3c');  // big is 2048 bytes: short buffer
    std::vector<char> buf_ok2(kChunkBytes, '\0');
    ChunkReadRequest reqs[] = {
        {present, buf_ok.data(), kChunkBytes, -7},
        {absent, buf_absent.data(), kChunkBytes, -7},
        {big, buf_short.data(), 128, -7},
        {big, buf_ok2.data(), kChunkBytes, -7},  // duplicate key, adequate buffer
    };
    f->backend->ReadChunks(reqs);

    EXPECT_EQ(1024, reqs[0].result);
    EXPECT_EQ(0, std::memcmp(buf_ok.data(), present_data.data(), 1024));
    EXPECT_EQ(-1, reqs[1].result);
    EXPECT_EQ(-1, reqs[2].result);
    EXPECT_EQ(2048, reqs[3].result);
    EXPECT_EQ(0, std::memcmp(buf_ok2.data(), big_data.data(), 2048));
    // Failed requests wrote nothing.
    for (char c : buf_absent) {
      ASSERT_EQ('\x3c', c);
    }
    for (char c : buf_short) {
      ASSERT_EQ('\x3c', c);
    }
    // Stats conservation: exactly the two successes are counted, and hit bytes
    // (dram + cold) equal the bytes actually delivered.
    const StorageStats after = f->backend->Stats();
    EXPECT_EQ(before.total_reads + 2, after.total_reads);
    EXPECT_EQ(before.ReadBytes() + 1024 + 2048, after.ReadBytes());
  }
}

TEST(ReadChunksTest, StatsConservationAcrossHotAndColdTiers) {
  // Tiered specifics: a batch spanning DRAM hits and cold misses must split its hit
  // accounting exactly, and dram_hit_bytes + cold_hit_bytes == bytes delivered.
  MemoryBackend cold(kChunkBytes);
  TieredBackend tiered(&cold, 4 * kChunkBytes);
  // Two contexts of 3 chunks each; budget 4 chunks, so writing ctx 1 then ctx 2
  // evicts ctx 1 to the cold tier.
  for (int64_t ctx = 1; ctx <= 2; ++ctx) {
    for (int64_t c = 0; c < 3; ++c) {
      const ChunkKey key{ctx, 0, c};
      const auto data = Payload(key, kChunkBytes);
      ASSERT_TRUE(tiered.WriteChunk(key, data.data(), kChunkBytes));
    }
  }
  ASSERT_FALSE(tiered.IsDramResident(ChunkKey{1, 0, 0}));
  ASSERT_TRUE(tiered.IsDramResident(ChunkKey{2, 0, 0}));

  std::vector<std::vector<char>> bufs(6, std::vector<char>(kChunkBytes));
  std::vector<ChunkReadRequest> reqs;
  for (int64_t ctx = 1; ctx <= 2; ++ctx) {
    for (int64_t c = 0; c < 3; ++c) {
      reqs.push_back(ChunkReadRequest{
          ChunkKey{ctx, 0, c},
          bufs[static_cast<size_t>((ctx - 1) * 3 + c)].data(), kChunkBytes, -1});
    }
  }
  const StorageStats before = tiered.Stats();
  tiered.ReadChunks(reqs);
  const StorageStats after = tiered.Stats();
  for (size_t i = 0; i < reqs.size(); ++i) {
    ASSERT_EQ(kChunkBytes, reqs[i].result) << i;
    const auto want = Payload(reqs[i].key, kChunkBytes);
    ASSERT_EQ(0, std::memcmp(bufs[i].data(), want.data(),
                             static_cast<size_t>(kChunkBytes)))
        << i;
  }
  EXPECT_EQ(before.total_reads + 6, after.total_reads);
  EXPECT_EQ(before.dram_hits + 3, after.dram_hits);
  EXPECT_EQ(before.cold_hits + 3, after.cold_hits);
  EXPECT_EQ(before.ReadBytes() + 6 * kChunkBytes, after.ReadBytes());
  // The cold misses travelled as ONE batched submission, visible in their
  // promotion back into DRAM (LRU: ctx 1 is now the most recently used).
  EXPECT_TRUE(tiered.IsDramResident(ChunkKey{1, 0, 0}));
}

TEST(ReadChunksTest, TieredBatchMakesOneColdRoundTrip) {
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  TieredBackend tiered(&cold, 0);  // 0 budget: everything lives cold
  std::vector<ChunkKey> keys;
  for (int64_t c = 0; c < 8; ++c) {
    const ChunkKey key{1, 0, c};
    const auto data = Payload(key, 512);
    ASSERT_TRUE(tiered.WriteChunk(key, data.data(), 512));
    keys.push_back(key);
  }
  const int64_t batches_before = cold.read_batches();
  std::vector<std::vector<char>> bufs(keys.size(), std::vector<char>(kChunkBytes));
  std::vector<ChunkReadRequest> reqs;
  for (size_t i = 0; i < keys.size(); ++i) {
    reqs.push_back(ChunkReadRequest{keys[i], bufs[i].data(), kChunkBytes, -1});
  }
  tiered.ReadChunks(reqs);
  for (const auto& req : reqs) {
    ASSERT_EQ(512, req.result);
  }
  EXPECT_EQ(batches_before + 1, cold.read_batches())
      << "all 8 cold misses must share one batched cold-tier round trip";
}

TEST(ReadChunksTest, InstrumentedForwardsBatchAndInjectsFailuresPerRequest) {
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend wrapped(&mem);
  const ChunkKey k1{1, 0, 0};
  const ChunkKey k2{1, 0, 1};
  const ChunkKey k3{1, 0, 2};
  const auto d1 = Payload(k1, 700);
  ChunkWriteRequest writes[] = {
      {k1, d1.data(), 700, false},
      {k2, d1.data(), 700, false},
      {k3, d1.data(), 700, false},
  };
  wrapped.FailNextWrites(1);
  EXPECT_FALSE(wrapped.WriteChunks(writes));
  EXPECT_FALSE(writes[0].ok);  // first request consumed the injected failure
  EXPECT_TRUE(writes[1].ok);
  EXPECT_TRUE(writes[2].ok);
  EXPECT_EQ(1, wrapped.injected_write_failures());
  EXPECT_EQ(1, wrapped.write_batches());
  EXPECT_FALSE(mem.HasChunk(k1));
  EXPECT_TRUE(mem.HasChunk(k2));

  std::vector<char> b2(kChunkBytes);
  std::vector<char> b3(kChunkBytes);
  ChunkReadRequest reads[] = {
      {k2, b2.data(), kChunkBytes, -1},
      {k3, b3.data(), kChunkBytes, -1},
  };
  wrapped.ReadChunks(reads);
  EXPECT_EQ(700, reads[0].result);
  EXPECT_EQ(700, reads[1].result);
  EXPECT_EQ(1, wrapped.read_batches());

  // A single ReadChunk is a one-request batch: it counts as one read batch (the
  // distributed store's repair reads of its nodes go through this path).
  EXPECT_EQ(700, wrapped.ReadChunk(k2, b2.data(), kChunkBytes));
  EXPECT_EQ(2, wrapped.read_batches());
  // The unverified forensics read forwards uncounted.
  EXPECT_EQ(700, wrapped.ReadChunkUnverified(k3, b3.data(), kChunkBytes));
  EXPECT_EQ(2, wrapped.read_batches());
}

TEST(ReadChunksTest, FileBackendConcurrentReadsOfSameChunkAreRaceFree) {
  // pread on a shared cached fd has no file position to race on: hammer one chunk
  // from several threads (serial and batched mixed) and require every read to come
  // back complete and correct.
  const TestDir dir("read_chunks");
  {
    FileBackend file({(dir / "d0").string()}, kChunkBytes);
    const ChunkKey key{7, 3, 1};
    const auto data = Payload(key, kChunkBytes);
    ASSERT_TRUE(file.WriteChunk(key, data.data(), kChunkBytes));
    constexpr int kThreads = 4;
    constexpr int kIters = 200;
    std::vector<std::thread> threads;
    std::vector<int> failures(kThreads, 0);
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        std::vector<char> buf(kChunkBytes);
        for (int i = 0; i < kIters; ++i) {
          int64_t got;
          if (i % 2 == 0) {
            got = file.ReadChunk(key, buf.data(), kChunkBytes);
          } else {
            ChunkReadRequest req{key, buf.data(), kChunkBytes, -1};
            file.ReadChunks({&req, 1});
            got = req.result;
          }
          if (got != kChunkBytes ||
              std::memcmp(buf.data(), data.data(), static_cast<size_t>(kChunkBytes)) != 0) {
            ++failures[static_cast<size_t>(t)];
          }
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    for (int t = 0; t < kThreads; ++t) {
      EXPECT_EQ(0, failures[static_cast<size_t>(t)]) << "thread " << t;
    }
    const StorageStats stats = file.Stats();
    EXPECT_EQ(static_cast<int64_t>(kThreads) * kIters, stats.total_reads);
    EXPECT_EQ(static_cast<int64_t>(kThreads) * kIters * kChunkBytes, stats.ReadBytes());
  }
}

TEST(ReadChunksTest, FileBackendFdCacheSurvivesOverwriteAndDelete) {
  const TestDir dir("read_chunks");
  {
    FileBackend file({(dir / "d0").string()}, kChunkBytes);
    const ChunkKey key{1, 0, 0};
    const auto v1 = Payload(key, 512);
    ASSERT_TRUE(file.WriteChunk(key, v1.data(), 512));
    std::vector<char> buf(kChunkBytes);
    ASSERT_EQ(512, file.ReadChunk(key, buf.data(), kChunkBytes));  // fd now cached
    // Overwrite with different bytes; the next read must observe them.
    const auto v2 = Payload(ChunkKey{9, 9, 9}, 640);
    ASSERT_TRUE(file.WriteChunk(key, v2.data(), 640));
    ASSERT_EQ(640, file.ReadChunk(key, buf.data(), kChunkBytes));
    EXPECT_EQ(0, std::memcmp(buf.data(), v2.data(), 640));
    // Delete: reads fail and the context directory is actually gone.
    file.DeleteContext(key.context_id);
    EXPECT_EQ(-1, file.ReadChunk(key, buf.data(), kChunkBytes));
    EXPECT_FALSE(fs::exists(dir / "d0" / "ctx1"));
  }
}

TEST(ReadChunksTest, BaseForwardsServeABackendThatOnlyImplementsReadChunks) {
  // ReadChunks is the one read a backend implements: ReadChunk, ReadChunkUnverified
  // and HasChunk come from the base class as forwards, and each single read is one
  // submission of a one-request batch.
  class BatchOnly : public StorageBackend {
   public:
    using StorageBackend::StorageBackend;
    bool WriteChunk(const ChunkKey& key, const void* data, int64_t bytes) override {
      const char* src = static_cast<const char*>(data);
      chunks_[key].assign(src, src + bytes);
      return true;
    }
    void ReadChunks(std::span<ChunkReadRequest> requests,
                    const BatchCompletion& done = {}) const override {
      ++batches_;
      for (ChunkReadRequest& req : requests) {
        const auto it = chunks_.find(req.key);
        const int64_t size =
            it == chunks_.end() ? -1 : static_cast<int64_t>(it->second.size());
        req.result = size >= 0 && size <= req.buf_bytes ? size : -1;
        if (req.result >= 0) {
          std::memcpy(req.buf, it->second.data(), static_cast<size_t>(size));
        }
      }
      if (done) {
        done();
      }
    }
    int64_t ChunkSize(const ChunkKey& key) const override {
      const auto it = chunks_.find(key);
      return it == chunks_.end() ? -1 : static_cast<int64_t>(it->second.size());
    }
    void DeleteContext(int64_t) override { chunks_.clear(); }
    StorageStats Stats() const override { return {}; }
    std::string Name() const override { return "batch-only"; }
    int64_t batches() const { return batches_; }

   private:
    std::map<ChunkKey, std::vector<char>> chunks_;
    mutable int64_t batches_ = 0;
  };

  BatchOnly backend(kChunkBytes);
  const ChunkKey key{1, 0, 0};
  const ChunkKey absent{2, 0, 0};
  const auto data = Payload(key, 900);
  ASSERT_TRUE(backend.WriteChunk(key, data.data(), 900));

  std::vector<char> buf(kChunkBytes, 'x');
  EXPECT_EQ(900, backend.ReadChunk(key, buf.data(), kChunkBytes));
  EXPECT_EQ(0, std::memcmp(buf.data(), data.data(), 900));
  EXPECT_EQ(1, backend.batches());
  EXPECT_EQ(-1, backend.ReadChunk(absent, buf.data(), kChunkBytes));

  // Short buffer: -1 and the buffer is untouched.
  std::vector<char> small(100, 'x');
  EXPECT_EQ(-1, backend.ReadChunk(key, small.data(), 100));
  EXPECT_EQ(std::vector<char>(100, 'x'), small);

  // The unverified read falls through to ReadChunks (the backend never verifies).
  std::fill(buf.begin(), buf.end(), 'x');
  EXPECT_EQ(900, backend.ReadChunkUnverified(key, buf.data(), kChunkBytes));
  EXPECT_EQ(0, std::memcmp(buf.data(), data.data(), 900));
  EXPECT_EQ(-1, backend.ReadChunkUnverified(absent, buf.data(), kChunkBytes));
  EXPECT_EQ(5, backend.batches());

  EXPECT_TRUE(backend.HasChunk(key));
  EXPECT_FALSE(backend.HasChunk(absent));

  // The batched unverified read forwards whole batches, completion included.
  ChunkReadRequest reqs[] = {
      {key, buf.data(), kChunkBytes, -1},
      {absent, buf.data(), kChunkBytes, -1},
  };
  bool completed = false;
  backend.ReadChunksUnverified(reqs, [&completed] { completed = true; });
  EXPECT_TRUE(completed);
  EXPECT_EQ(900, reqs[0].result);
  EXPECT_EQ(-1, reqs[1].result);
  EXPECT_EQ(6, backend.batches());
}

}  // namespace
}  // namespace hcache
