// The PR 5 concurrency plane of TieredBackend: asynchronous write-back draining,
// drain-queue rescues, writer backpressure, eviction-failure rollback accounting,
// delete-vs-drain ordering, and — the load-bearing property — that no lock is ever
// held across cold-tier IO (probed by re-entering the tier from another thread from
// INSIDE an instrumented cold backend's read/write). Deterministic LRU/write-back
// behavior is pinned separately in tiered_backend_test.cc (kSync mode).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "src/storage/instrumented_backend.h"
#include "src/storage/memory_backend.h"
#include "src/storage/tiered_backend.h"

namespace hcache {
namespace {

constexpr int64_t kChunkBytes = 1024;
// Retries the drainer makes before rolling a failed write-back into DRAM (a constant
// of tiered_backend.cc's write-back schedule).
constexpr int kWritebackRetries = 3;

TieredOptions AsyncOpts(int num_shards = 1) {
  TieredOptions o;
  o.num_shards = num_shards;
  o.writeback = TieredOptions::Writeback::kAsync;
  return o;
}

std::vector<char> Payload(int64_t size, char fill) {
  return std::vector<char>(size, fill);
}

TEST(TieredAsyncTest, EvictionLeavesTheHotTierImmediatelyAndDrainsInBackground) {
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  cold.set_io_latency_micros(100000);  // 100ms per cold op: holds the drain open
  TieredBackend tiered(&cold, 2 * kChunkBytes, AsyncOpts());

  const auto v1 = Payload(kChunkBytes, 'a');
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, v1.data(), kChunkBytes));
  const auto v2 = Payload(kChunkBytes, 'b');
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 0}, v2.data(), kChunkBytes));
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 1}, v2.data(), kChunkBytes));  // evicts ctx 1

  // The eviction decision is synchronous (ctx 1 left the hot tier, the budget is
  // already restored) while its write-back is still in flight behind the slow cold
  // tier.
  EXPECT_FALSE(tiered.IsDramResident({1, 0, 0}));
  EXPECT_LE(tiered.dram_bytes(), 2 * kChunkBytes);
  EXPECT_EQ(tiered.Stats().evicted_contexts, 1);

  tiered.Quiesce();
  EXPECT_TRUE(cold.HasChunk({1, 0, 0}));
  const StorageStats s = tiered.Stats();
  EXPECT_EQ(s.writeback_chunks, 1);
  EXPECT_EQ(s.drain_pending_bytes, 0);
}

TEST(TieredAsyncTest, ReadRescuesAnEvictedChunkFromTheDrainQueue) {
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  cold.set_io_latency_micros(200000);  // keep the victim parked in the queue
  TieredBackend tiered(&cold, 2 * kChunkBytes, AsyncOpts());

  const auto v1 = Payload(kChunkBytes, 'x');
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, v1.data(), kChunkBytes));
  const auto v2 = Payload(kChunkBytes, 'y');
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 0}, v2.data(), kChunkBytes));
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 1}, v2.data(), kChunkBytes));  // evicts ctx 1

  // While the write-back sleeps in the cold tier, the payload is still in DRAM:
  // the read is served from the drain queue (a DRAM hit). The stripe is full
  // (ctx 2 holds both chunks), so the rescue does NOT re-admit — a rescue never
  // displaces a resident context.
  ASSERT_FALSE(tiered.IsDramResident({1, 0, 0}));
  ASSERT_TRUE(tiered.IsDrainPending({1, 0, 0}));
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);
  EXPECT_EQ(std::memcmp(buf.data(), v1.data(), kChunkBytes), 0);
  EXPECT_FALSE(tiered.IsDramResident({1, 0, 0}));
  EXPECT_TRUE(tiered.IsDrainPending({1, 0, 0}));

  // Free the stripe: the next rescue re-admits the chunk into the free space and
  // cancels its queued flush.
  tiered.DeleteContext(2);
  ASSERT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);
  EXPECT_EQ(std::memcmp(buf.data(), v1.data(), kChunkBytes), 0);
  EXPECT_TRUE(tiered.IsDramResident({1, 0, 0}));
  EXPECT_FALSE(tiered.IsDrainPending({1, 0, 0}));
  const StorageStats s = tiered.Stats();
  EXPECT_EQ(s.dram_hits, 2);
  EXPECT_EQ(s.cold_hits, 0);
  EXPECT_EQ(s.drain_rescued_chunks, 2);
  tiered.Quiesce();
}

TEST(TieredAsyncTest, NoLockIsHeldAcrossColdTierIO) {
  // The acceptance probe: from INSIDE a cold-tier read/write (i.e., while the old
  // design would have been holding the tier's mutex), another thread re-enters the
  // tier on the SAME lock stripe (num_shards = 1) and must make progress. A lock
  // held across cold IO deadlocks this test.
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  TieredBackend tiered(&cold, 2 * kChunkBytes, AsyncOpts(/*num_shards=*/1));

  constexpr int64_t kProbeCtx = 77;
  const auto probe_payload = Payload(256, 'p');
  std::atomic<int64_t> probes_ok{0};
  std::atomic<int64_t> probes_run{0};

  // Re-enter the tier from a helper thread and require completion within 5s. On a
  // lock-discipline regression the helper blocks: fail the expectation and detach
  // so the test reports instead of hanging.
  const auto reenter = [&](const ChunkKey& key) {
    if (key.context_id == kProbeCtx) {
      return;  // the probe's own traffic: don't recurse
    }
    ++probes_run;
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    std::thread prober([&] {
      std::vector<char> buf(kChunkBytes);
      const int64_t got = tiered.ReadChunk({kProbeCtx, 0, 0}, buf.data(), kChunkBytes);
      const bool wrote = tiered.WriteChunk({kProbeCtx, 0, 1}, probe_payload.data(), 256);
      (void)tiered.HasChunk({kProbeCtx, 0, 0});
      if (got == 256 && wrote) {
        ++probes_ok;
      }
      std::lock_guard<std::mutex> lock(mu);
      done = true;
      cv.notify_one();
    });
    std::unique_lock<std::mutex> lock(mu);
    if (cv.wait_for(lock, std::chrono::seconds(5), [&] { return done; })) {
      lock.unlock();
      prober.join();
    } else {
      ADD_FAILURE() << "tier re-entry blocked: a lock is held across cold-tier IO";
      prober.detach();
    }
  };
  ASSERT_TRUE(tiered.WriteChunk({kProbeCtx, 0, 0}, probe_payload.data(), 256));
  cold.set_write_hook(reenter);
  cold.set_read_hook(reenter);

  // Trigger an eviction write-back (drainer-side cold write) ...
  const auto big = Payload(kChunkBytes, 'e');
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, big.data(), kChunkBytes));
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 0}, big.data(), kChunkBytes));
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 1}, big.data(), kChunkBytes));  // evicts ctx 1
  tiered.Quiesce();

  // ... and a promotion read (caller-side cold read).
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);

  EXPECT_GT(probes_run.load(), 0);
  EXPECT_EQ(probes_ok.load(), probes_run.load());
  tiered.Quiesce();
}

TEST(TieredAsyncTest, ColdWriteFailureRollsTheEvictionBack) {
  // Satellite fix: a *persistently* failing write-back must not leak accounting —
  // after the drainer exhausts its retry budget the victim returns to the hot tier
  // dirty (requeued MRU so other contexts evict first), `evicted_contexts` is not
  // charged for the failed eviction, and no write-back bytes are counted.
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  TieredBackend tiered(&cold, 2 * kChunkBytes, AsyncOpts(/*num_shards=*/1));

  const auto v1 = Payload(kChunkBytes, '1');
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, v1.data(), kChunkBytes));
  const auto v2 = Payload(kChunkBytes, '2');
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 0}, v2.data(), kChunkBytes));

  // One failure per attempt: initial try + every retry fail, forcing rollback.
  cold.FailNextWrites(kWritebackRetries + 1);
  const auto v3 = Payload(kChunkBytes, '3');
  ASSERT_TRUE(tiered.WriteChunk({3, 0, 0}, v3.data(), kChunkBytes));  // evicts ctx 1
  tiered.Quiesce();

  StorageStats s = tiered.Stats();
  EXPECT_EQ(s.writeback_failures, 1);
  EXPECT_EQ(s.writeback_retries, kWritebackRetries);
  EXPECT_EQ(cold.injected_write_failures(), kWritebackRetries + 1);
  EXPECT_EQ(s.evicted_contexts, 0);  // the eviction did not stick
  EXPECT_EQ(s.writeback_chunks, 0);
  EXPECT_EQ(s.writeback_bytes, 0);
  EXPECT_EQ(s.drain_pending_bytes, 0);
  // The dirty payload survived, back in DRAM (budget degrades to best-effort).
  EXPECT_TRUE(tiered.IsDramResident({1, 0, 0}));
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);
  EXPECT_EQ(buf[0], '1');
  EXPECT_EQ(s.bytes_stored, 3 * kChunkBytes);  // the logical index never flinched

  // With the fault cleared, the rolled-back victim sits at the MRU end: the next
  // eviction round picks another context first, then everything conserves.
  const auto v4 = Payload(kChunkBytes, '4');
  ASSERT_TRUE(tiered.WriteChunk({4, 0, 0}, v4.data(), kChunkBytes));
  tiered.Quiesce();
  s = tiered.Stats();
  EXPECT_GT(s.evicted_contexts, 0);
  EXPECT_FALSE(tiered.IsDramResident({2, 0, 0}));  // ctx 2 evicted before ctx 1
  EXPECT_TRUE(tiered.IsDramResident({1, 0, 0}));
  EXPECT_EQ(s.writeback_bytes,
            s.writeback_chunks * kChunkBytes);  // only successful flushes counted
  // Every byte is still readable from some tier.
  for (int64_t ctx = 1; ctx <= 4; ++ctx) {
    ASSERT_EQ(tiered.ReadChunk({ctx, 0, 0}, buf.data(), kChunkBytes), kChunkBytes)
        << "ctx " << ctx;
    EXPECT_EQ(buf[0], static_cast<char>('0' + ctx));
  }
}

TEST(TieredAsyncTest, TransientColdWriteFailureIsAbsorbedByRetry) {
  // The flip side of the rollback test: when the cold tier recovers within the
  // retry budget (a transient device hiccup), the eviction goes through — no
  // rollback, no lost write-back, just retries counted.
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  TieredBackend tiered(&cold, 2 * kChunkBytes, AsyncOpts(/*num_shards=*/1));

  const auto v1 = Payload(kChunkBytes, '1');
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, v1.data(), kChunkBytes));
  const auto v2 = Payload(kChunkBytes, '2');
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 0}, v2.data(), kChunkBytes));

  cold.FailNextWrites(2);  // two attempts fail, the third lands
  const auto v3 = Payload(kChunkBytes, '3');
  ASSERT_TRUE(tiered.WriteChunk({3, 0, 0}, v3.data(), kChunkBytes));  // evicts ctx 1
  tiered.Quiesce();

  const StorageStats s = tiered.Stats();
  EXPECT_EQ(s.writeback_failures, 0);
  EXPECT_EQ(s.writeback_retries, 2);
  EXPECT_EQ(s.writeback_chunks, 1);
  EXPECT_EQ(s.writeback_bytes, kChunkBytes);
  EXPECT_EQ(s.evicted_contexts, 1);
  EXPECT_EQ(s.drain_pending_bytes, 0);
  EXPECT_TRUE(cold.HasChunk({1, 0, 0}));
  EXPECT_FALSE(tiered.IsDramResident({1, 0, 0}));
  // The evicted payload survived the bumpy write-back bit-exactly.
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);
  EXPECT_EQ(buf[0], '1');
}

TEST(TieredAsyncTest, ShortBufferColdReadDoesNoIOAndNoPromotion) {
  // The cross-backend short-buffer contract, at its sharpest for the tiered tier: a
  // too-small buffer on a cold-resident chunk must not touch the cold tier at all.
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  TieredBackend tiered(&cold, 2 * kChunkBytes, AsyncOpts());
  const auto v1 = Payload(kChunkBytes, 'c');
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, v1.data(), kChunkBytes));
  const auto v2 = Payload(kChunkBytes, 'd');
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 0}, v2.data(), kChunkBytes));
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 1}, v2.data(), kChunkBytes));  // evicts ctx 1
  tiered.Quiesce();
  ASSERT_FALSE(tiered.IsDramResident({1, 0, 0}));

  const int64_t cold_reads_before = cold.Stats().total_reads;
  std::vector<char> small(16);
  EXPECT_EQ(tiered.ReadChunk({1, 0, 0}, small.data(), 16), -1);
  EXPECT_EQ(cold.Stats().total_reads, cold_reads_before);  // no cold IO
  EXPECT_FALSE(tiered.IsDramResident({1, 0, 0}));          // no promotion
  const StorageStats s = tiered.Stats();
  EXPECT_EQ(s.total_reads, 0);  // failed reads never count
  EXPECT_EQ(s.dram_hit_bytes + s.cold_hit_bytes, 0);
}

TEST(TieredAsyncTest, HighWaterMarkStallsWritersUntilTheDrainerCatchesUp) {
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  cold.set_io_latency_micros(5000);  // 5ms per flush: the drainer lags the writer
  // Writers stall once queued-for-drain bytes exceed capacity + 4 chunks of slack.
  TieredBackend tiered(&cold, kChunkBytes, AsyncOpts());

  const auto data = Payload(kChunkBytes, 's');
  constexpr int64_t kContexts = 24;
  for (int64_t ctx = 0; ctx < kContexts; ++ctx) {
    // Each write displaces the previous context into the drain queue faster than
    // 5ms/chunk can retire it; the queue crosses the high-water mark and writers
    // block until it recedes — bounded memory, no dropped data.
    ASSERT_TRUE(tiered.WriteChunk({ctx, 0, 0}, data.data(), kChunkBytes));
  }
  tiered.Quiesce();
  const StorageStats s = tiered.Stats();
  EXPECT_GT(s.writer_stalls, 0);
  EXPECT_EQ(s.drain_pending_bytes, 0);
  EXPECT_EQ(s.writeback_chunks + /*still hot*/ 1, kContexts);
  // Backpressure never loses bytes: every context reads back intact.
  std::vector<char> buf(kChunkBytes);
  for (int64_t ctx = 0; ctx < kContexts; ++ctx) {
    ASSERT_EQ(tiered.ReadChunk({ctx, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);
    EXPECT_EQ(buf[0], 's');
  }
}

TEST(TieredAsyncTest, DestructionWithoutQuiesceStillLandsDirtyChunksInCold) {
  // WriteChunk returned true for these bytes; tearing the tier down with the drain
  // queue non-empty must still write them back — never drop dirty data.
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  cold.set_io_latency_micros(20000);  // 20ms/op: the queue is non-empty at dtor time
  const auto data = Payload(kChunkBytes, 'q');
  {
    TieredBackend tiered(&cold, kChunkBytes, AsyncOpts());
    for (int64_t ctx = 0; ctx < 4; ++ctx) {
      ASSERT_TRUE(tiered.WriteChunk({ctx, 0, 0}, data.data(), kChunkBytes));
    }
    // No Quiesce: the destructor must finish the drain itself.
  }
  for (int64_t ctx = 0; ctx < 3; ++ctx) {  // ctx 3 stayed hot; 0-2 were evicted
    EXPECT_TRUE(cold.HasChunk({ctx, 0, 0})) << "ctx " << ctx;
  }
}

TEST(TieredAsyncTest, DeleteDuringDrainDoesNotResurrectTheContext) {
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  cold.set_io_latency_micros(50000);  // 50ms: the delete races an in-flight flush
  TieredBackend tiered(&cold, kChunkBytes, AsyncOpts());

  const auto v1 = Payload(kChunkBytes, 'z');
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, v1.data(), kChunkBytes));
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 0}, v1.data(), kChunkBytes));  // evicts ctx 1
  tiered.DeleteContext(1);  // while ctx 1's write-back may be mid-flight

  EXPECT_FALSE(tiered.HasChunk({1, 0, 0}));
  tiered.Quiesce();
  // The drain must not re-materialize the deleted context in the cold tier.
  EXPECT_FALSE(cold.HasChunk({1, 0, 0}));
  EXPECT_FALSE(tiered.HasChunk({1, 0, 0}));
  EXPECT_EQ(tiered.ChunkSize({1, 0, 0}), -1);
}

TEST(WritebackBackoffTest, EqualJitterStaysInBoundsAndIsDeterministic) {
  // The constant schedule: the ceiling doubles from 500 µs and clamps at 8 ms.
  for (int round = 0; round < 10; ++round) {
    const int64_t ceiling = std::min<int64_t>(int64_t{500} << round, 8000);
    for (const uint64_t seed : {0ull, 1ull, 42ull, 0xdeadbeefull, ~0ull}) {
      const int64_t us = WritebackBackoffUs(round, seed);
      EXPECT_GE(us, ceiling - ceiling / 2) << "round " << round << " seed " << seed;
      EXPECT_LE(us, ceiling) << "round " << round << " seed " << seed;
      // Pure in (round, seed): the same call returns the same sleep.
      EXPECT_EQ(us, WritebackBackoffUs(round, seed));
    }
  }
}

TEST(WritebackBackoffTest, SeedsDecorrelate) {
  // Distinct seeds should not march in lockstep: across a few rounds at least one
  // pair of drainers must disagree on their sleep.
  bool diverged = false;
  for (int round = 0; round < 4 && !diverged; ++round) {
    diverged = WritebackBackoffUs(round, /*seed=*/1) != WritebackBackoffUs(round, /*seed=*/2);
  }
  EXPECT_TRUE(diverged);
}

}  // namespace
}  // namespace hcache
