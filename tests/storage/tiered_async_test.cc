// The concurrency plane of TieredBackend's write-back: an eviction leaves the hot tier
// before its flush lands, reads on other threads rescue chunks whose flush is in
// flight, eviction-failure rollback accounting, delete-vs-flush and flush-vs-flush
// ordering within one context, and — the load-bearing property — that no lock is
// ever held across cold-tier IO (probed by re-entering the tier from another thread
// from INSIDE an instrumented cold backend's read/write). Deterministic LRU/write-back
// behavior is pinned separately in tiered_backend_test.cc.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "src/common/rng.h"
#include "src/storage/instrumented_backend.h"
#include "src/storage/memory_backend.h"
#include "src/storage/tiered_backend.h"

namespace hcache {
namespace {

constexpr int64_t kChunkBytes = 1024;

std::vector<char> Payload(int64_t size, char fill) {
  return std::vector<char>(size, fill);
}

// A payload that differs in every byte between (ctx, version) pairs, so a stale or
// torn copy never compares equal by accident.
std::vector<char> Versioned(int64_t ctx, int64_t version) {
  std::vector<char> v(kChunkBytes);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = static_cast<char>(ctx * 131 + version * 29 + static_cast<int64_t>(i) * 7);
  }
  return v;
}

// Parks the first cold write of `ctx` inside the cold tier until Release(): the
// flush that carries it is "in flight" for as long as the test needs.
class FlushGate {
 public:
  explicit FlushGate(int64_t ctx) : ctx_(ctx) {}

  void OnWrite(const ChunkKey& key) {
    std::unique_lock<std::mutex> lock(mu_);
    if (key.context_id != ctx_ || entered_) {
      return;
    }
    entered_ = true;
    cv_.notify_all();
    cv_.wait(lock, [this] { return released_; });
  }
  void WaitEntered() {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Release() {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  const int64_t ctx_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool entered_ = false;
  bool released_ = false;
};

// Long enough for another thread to reach its wait on an in-flight flush.
void LetOtherThreadsRun() { std::this_thread::sleep_for(std::chrono::milliseconds(50)); }

TEST(TieredAsyncTest, EvictionLeavesTheHotTierBeforeItsFlushLands) {
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  TieredBackend tiered(&cold, 2 * kChunkBytes);

  // Observed from inside the flush's cold write: the eviction decision is already
  // made (ctx 1 left the hot tier, the budget is restored) while its bytes are
  // still on their way down.
  bool observed = false;
  cold.set_write_hook([&](const ChunkKey& key) {
    if (key.context_id != 1) {
      return;
    }
    observed = true;
    EXPECT_FALSE(tiered.IsDramResident({1, 0, 0}));
    EXPECT_TRUE(tiered.IsFlushPending({1, 0, 0}));
    EXPECT_LE(tiered.dram_bytes(), 2 * kChunkBytes);
    EXPECT_EQ(tiered.Stats().evicted_contexts, 1);
  });

  const auto v1 = Payload(kChunkBytes, 'a');
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, v1.data(), kChunkBytes));
  const auto v2 = Payload(kChunkBytes, 'b');
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 0}, v2.data(), kChunkBytes));
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 1}, v2.data(), kChunkBytes));  // evicts ctx 1
  EXPECT_TRUE(observed);

  // The evicting write returned only after the flush retired.
  EXPECT_TRUE(cold.HasChunk({1, 0, 0}));
  EXPECT_FALSE(tiered.IsFlushPending({1, 0, 0}));
  const StorageStats s = tiered.Stats();
  EXPECT_EQ(s.writeback_chunks, 1);
  EXPECT_EQ(s.writeback_bytes, kChunkBytes);
}

TEST(TieredAsyncTest, ReadOnAnotherThreadRescuesAChunkWhoseFlushIsInFlight) {
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  FlushGate gate(/*ctx=*/1);
  cold.set_write_hook([&](const ChunkKey& key) { gate.OnWrite(key); });
  TieredBackend tiered(&cold, 2 * kChunkBytes);

  const auto v1 = Payload(kChunkBytes, 'x');
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, v1.data(), kChunkBytes));
  const auto v2 = Payload(kChunkBytes, 'y');
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 0}, v2.data(), kChunkBytes));
  std::thread evictor([&] {
    ASSERT_TRUE(tiered.WriteChunk({2, 0, 1}, v2.data(), kChunkBytes));  // evicts ctx 1
  });
  gate.WaitEntered();

  // While the flush sits in the cold tier, the payload is still in DRAM: the read
  // is served from the pending map (a DRAM hit). The budget is full (ctx 2 holds
  // both chunks), so the rescue does NOT re-admit — a rescue never displaces a
  // resident context.
  ASSERT_FALSE(tiered.IsDramResident({1, 0, 0}));
  ASSERT_TRUE(tiered.IsFlushPending({1, 0, 0}));
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);
  EXPECT_EQ(std::memcmp(buf.data(), v1.data(), kChunkBytes), 0);
  EXPECT_FALSE(tiered.IsDramResident({1, 0, 0}));
  EXPECT_TRUE(tiered.IsFlushPending({1, 0, 0}));

  // Free the budget: the next rescue re-admits the chunk into the free space and
  // cancels its pending flush.
  tiered.DeleteContext(2);
  ASSERT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);
  EXPECT_EQ(std::memcmp(buf.data(), v1.data(), kChunkBytes), 0);
  EXPECT_TRUE(tiered.IsDramResident({1, 0, 0}));
  EXPECT_FALSE(tiered.IsFlushPending({1, 0, 0}));

  gate.Release();
  evictor.join();
  const StorageStats s = tiered.Stats();
  EXPECT_EQ(s.dram_hits, 2);
  EXPECT_EQ(s.cold_hits, 0);
  EXPECT_EQ(s.drain_rescued_chunks, 2);
  EXPECT_EQ(s.writeback_chunks, 0);  // the rescue superseded the flush
  EXPECT_TRUE(tiered.IsDramResident({1, 0, 0}));
}

TEST(TieredAsyncTest, NoLockIsHeldAcrossColdTierIO) {
  // The acceptance probe: from INSIDE a cold-tier read/write (i.e., while the old
  // design would have been holding the tier's mutex), another thread re-enters the
  // tier (which has one lock) and must make progress. A lock
  // held across cold IO deadlocks this test.
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  TieredBackend tiered(&cold, 2 * kChunkBytes);

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

  // Trigger an eviction write-back (caller-side cold write) ...
  const auto big = Payload(kChunkBytes, 'e');
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, big.data(), kChunkBytes));
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 0}, big.data(), kChunkBytes));
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 1}, big.data(), kChunkBytes));  // evicts ctx 1

  // ... and a promotion read (caller-side cold read).
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);

  EXPECT_GT(probes_run.load(), 0);
  EXPECT_EQ(probes_ok.load(), probes_run.load());
}

TEST(TieredAsyncTest, ColdWriteFailureRollsTheEvictionBack) {
  // A failing write-back must not leak accounting: the victim returns to the hot tier
  // dirty (requeued MRU so other contexts evict first), `evicted_contexts` is not
  // charged for the failed eviction, and no write-back bytes are counted.
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  TieredBackend tiered(&cold, 2 * kChunkBytes);

  const auto v1 = Payload(kChunkBytes, '1');
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, v1.data(), kChunkBytes));
  const auto v2 = Payload(kChunkBytes, '2');
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 0}, v2.data(), kChunkBytes));

  cold.FailNextWrites(1);
  const auto v3 = Payload(kChunkBytes, '3');
  ASSERT_TRUE(tiered.WriteChunk({3, 0, 0}, v3.data(), kChunkBytes));  // evicts ctx 1

  StorageStats s = tiered.Stats();
  EXPECT_EQ(s.writeback_failures, 1);
  EXPECT_EQ(cold.injected_write_failures(), 1);
  EXPECT_EQ(s.evicted_contexts, 0);  // the eviction did not stick
  EXPECT_EQ(s.writeback_chunks, 0);
  EXPECT_EQ(s.writeback_bytes, 0);
  EXPECT_FALSE(tiered.IsFlushPending({1, 0, 0}));
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

TEST(TieredAsyncTest, FailedFlushRollsBackAndTheNextEvictionLandsItBitExact) {
  // A failed flush is not retried in place: its chunks go back to the hot tier, and
  // the context's next eviction writes them down — bit-exact, counted once.
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  TieredBackend tiered(&cold, 2 * kChunkBytes);

  const auto v1 = Versioned(1, 0);
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, v1.data(), kChunkBytes));
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 0}, Versioned(2, 0).data(), kChunkBytes));
  cold.FailNextWrites(1);
  ASSERT_TRUE(tiered.WriteChunk({3, 0, 0}, Versioned(3, 0).data(), kChunkBytes));
  ASSERT_TRUE(tiered.IsDramResident({1, 0, 0}));  // rolled back, MRU
  EXPECT_FALSE(cold.HasChunk({1, 0, 0}));

  // LRU order is now 2, 3, 1: ctx 4 evicts 2 and 3, ctx 5 evicts 1.
  ASSERT_TRUE(tiered.WriteChunk({4, 0, 0}, Versioned(4, 0).data(), kChunkBytes));
  ASSERT_TRUE(tiered.IsDramResident({1, 0, 0}));
  ASSERT_TRUE(tiered.WriteChunk({5, 0, 0}, Versioned(5, 0).data(), kChunkBytes));
  ASSERT_FALSE(tiered.IsDramResident({1, 0, 0}));

  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(mem.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);
  EXPECT_EQ(buf, v1);
  const StorageStats s = tiered.Stats();
  EXPECT_EQ(s.writeback_failures, 1);
  EXPECT_EQ(s.evicted_contexts, 3);  // 2, 3, then 1; the failed eviction un-counted
  EXPECT_EQ(s.writeback_chunks, 3);
  EXPECT_EQ(s.writeback_bytes, 3 * kChunkBytes);
  std::fill(buf.begin(), buf.end(), '\0');
  ASSERT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);
  EXPECT_EQ(buf, v1);
  EXPECT_EQ(tiered.Stats().cold_hits, 1);
}

TEST(TieredAsyncTest, ShortBufferColdReadDoesNoIOAndNoPromotion) {
  // The cross-backend short-buffer contract, at its sharpest for the tiered tier: a
  // too-small buffer on a cold-resident chunk must not touch the cold tier at all.
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  TieredBackend tiered(&cold, 2 * kChunkBytes);
  const auto v1 = Payload(kChunkBytes, 'c');
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, v1.data(), kChunkBytes));
  const auto v2 = Payload(kChunkBytes, 'd');
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 0}, v2.data(), kChunkBytes));
  ASSERT_TRUE(tiered.WriteChunk({2, 0, 1}, v2.data(), kChunkBytes));  // evicts ctx 1
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

TEST(TieredAsyncTest, DestructionWithoutQuiesceStillLandsDirtyChunksInCold) {
  // WriteChunk returned true for these bytes; every write that evicted a context
  // flushed it before returning, so tearing the tier down loses none of them.
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  cold.set_io_latency_micros(20000);  // 20ms/op: a slow cold tier
  const auto data = Payload(kChunkBytes, 'q');
  {
    TieredBackend tiered(&cold, kChunkBytes);
    for (int64_t ctx = 0; ctx < 4; ++ctx) {
      ASSERT_TRUE(tiered.WriteChunk({ctx, 0, 0}, data.data(), kChunkBytes));
    }
  }
  for (int64_t ctx = 0; ctx < 3; ++ctx) {  // ctx 3 stayed hot; 0-2 were evicted
    EXPECT_TRUE(cold.HasChunk({ctx, 0, 0})) << "ctx " << ctx;
  }
}

TEST(TieredAsyncTest, DeleteDuringFlushDoesNotResurrectTheContext) {
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  FlushGate gate(/*ctx=*/1);
  cold.set_write_hook([&](const ChunkKey& key) { gate.OnWrite(key); });
  TieredBackend tiered(&cold, kChunkBytes);

  const auto v1 = Payload(kChunkBytes, 'z');
  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, v1.data(), kChunkBytes));
  std::thread evictor([&] {
    ASSERT_TRUE(tiered.WriteChunk({2, 0, 0}, v1.data(), kChunkBytes));  // evicts ctx 1
  });
  gate.WaitEntered();
  // The delete arrives while ctx 1's flush is mid-flight: it must wait the flush out
  // before deleting in the cold tier, or the flush re-creates the chunk there.
  std::thread deleter([&] { tiered.DeleteContext(1); });
  LetOtherThreadsRun();
  gate.Release();
  evictor.join();
  deleter.join();

  EXPECT_FALSE(cold.HasChunk({1, 0, 0}));
  EXPECT_FALSE(tiered.HasChunk({1, 0, 0}));
  EXPECT_EQ(tiered.ChunkSize({1, 0, 0}), -1);
}

TEST(TieredAsyncTest, AnOlderFlushNeverLandsAfterANewerOne) {
  // Two flushes of one chunk: version 0's is parked in the cold tier while another
  // thread overwrites the chunk and evicts it again. Version 1's flush must wait for
  // version 0's to land, or version 0 overwrites it in the cold tier.
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  FlushGate gate(/*ctx=*/1);
  cold.set_write_hook([&](const ChunkKey& key) { gate.OnWrite(key); });
  TieredBackend tiered(&cold, kChunkBytes);

  ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, Versioned(1, 0).data(), kChunkBytes));
  std::thread first([&] {
    ASSERT_TRUE(tiered.WriteChunk({2, 0, 0}, Versioned(2, 0).data(), kChunkBytes));
  });
  gate.WaitEntered();
  std::thread second([&] {
    ASSERT_TRUE(tiered.WriteChunk({1, 0, 0}, Versioned(1, 1).data(), kChunkBytes));
    ASSERT_TRUE(tiered.WriteChunk({3, 0, 0}, Versioned(3, 0).data(), kChunkBytes));
  });
  LetOtherThreadsRun();
  gate.Release();
  first.join();
  second.join();

  ASSERT_FALSE(tiered.IsDramResident({1, 0, 0}));
  std::vector<char> buf(kChunkBytes);
  ASSERT_EQ(mem.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);
  EXPECT_EQ(buf, Versioned(1, 1));
  ASSERT_EQ(tiered.ReadChunk({1, 0, 0}, buf.data(), kChunkBytes), kChunkBytes);
  EXPECT_EQ(buf, Versioned(1, 1));
}

TEST(TieredAsyncTest, RacingOverwritesAndDeletesNeverLeaveStaleBytes) {
  // Two writers take turns overwriting and deleting the same keys while two evictor
  // threads write filler contexts into a 2-chunk budget, so nearly every write on
  // any thread evicts and flushes — often a key a writer is about to overwrite or
  // delete. The cold tier is slow and jittery, so concurrent flushes land out of
  // submission order unless the tier orders them. The writers' turns fix each
  // step's outcome (a reference map); after each step the cold tier and the tier's
  // reads must match it: never stale bytes, and never a deleted key brought back.
  constexpr int64_t kContexts = 3;
  constexpr int64_t kChunksPerContext = 2;
  constexpr int kSteps = 40;
  constexpr int kOpsPerStep = 24;
  constexpr int kEvictors = 2;
  MemoryBackend mem(kChunkBytes);
  InstrumentedBackend cold(&mem);
  cold.set_io_latency_micros(300);
  cold.set_io_latency_jitter(/*jitter_micros=*/250, /*seed=*/7);
  TieredBackend tiered(&cold, 2 * kChunkBytes);

  struct Op {
    ChunkKey key;
    enum { kWrite, kDeleteChunk, kDeleteContext } kind;
  };
  std::map<ChunkKey, int64_t> reference;  // live key -> version
  int64_t next_version = 0;
  Rng rng(11);
  std::vector<char> buf(kChunkBytes);
  for (int step = 0; step < kSteps; ++step) {
    std::vector<Op> ops(kOpsPerStep);
    for (Op& op : ops) {
      op.key = ChunkKey{static_cast<int64_t>(rng.NextBounded(kContexts)), 0,
                        static_cast<int64_t>(rng.NextBounded(kChunksPerContext))};
      const uint64_t pick = rng.NextBounded(8);
      op.kind = pick == 0 ? Op::kDeleteContext : pick == 1 ? Op::kDeleteChunk : Op::kWrite;
    }
    std::atomic<int> turn{0};
    std::atomic<bool> writers_done{false};
    const auto writer = [&](int first) {
      for (int i = first; i < kOpsPerStep; i += 2) {
        while (turn.load(std::memory_order_acquire) != i) {
          std::this_thread::yield();
        }
        const Op& op = ops[static_cast<size_t>(i)];
        if (op.kind == Op::kWrite) {
          const int64_t version = next_version++;
          const auto data = Versioned(op.key.context_id * 8 + op.key.chunk_index, version);
          ASSERT_TRUE(tiered.WriteChunk(op.key, data.data(), kChunkBytes));
          reference[op.key] = version;
        } else if (op.kind == Op::kDeleteChunk) {
          tiered.DeleteChunk(op.key);
          reference.erase(op.key);
        } else {
          tiered.DeleteContext(op.key.context_id);
          std::erase_if(reference, [&](const auto& kv) {
            return kv.first.context_id == op.key.context_id;
          });
        }
        turn.store(i + 1, std::memory_order_release);
      }
    };
    const auto evictor = [&](int64_t filler_ctx) {
      const auto data = Payload(kChunkBytes, 'f');
      while (!writers_done.load(std::memory_order_acquire)) {
        ASSERT_TRUE(tiered.WriteChunk({filler_ctx, 0, 0}, data.data(), kChunkBytes));
      }
    };
    std::vector<std::thread> evictors;
    for (int e = 0; e < kEvictors; ++e) {
      evictors.emplace_back(evictor, 100 + e);
    }
    std::thread even(writer, 0);
    std::thread odd(writer, 1);
    even.join();
    odd.join();
    writers_done.store(true, std::memory_order_release);
    for (auto& t : evictors) {
      t.join();
    }

    for (int64_t ctx = 0; ctx < kContexts; ++ctx) {
      for (int64_t c = 0; c < kChunksPerContext; ++c) {
        const ChunkKey key{ctx, 0, c};
        SCOPED_TRACE(testing::Message() << "step " << step << " ctx " << ctx << " c " << c);
        ASSERT_FALSE(tiered.IsFlushPending(key));  // every evicting call flushed
        const auto it = reference.find(key);
        const int64_t cold_got = mem.ReadChunk(key, buf.data(), kChunkBytes);
        if (it == reference.end()) {
          ASSERT_EQ(cold_got, -1) << "deleted key brought back in the cold tier";
          ASSERT_EQ(tiered.ReadChunk(key, buf.data(), kChunkBytes), -1);
          continue;
        }
        const auto want = Versioned(ctx * 8 + c, it->second);
        if (!tiered.IsDramResident(key)) {
          ASSERT_EQ(cold_got, kChunkBytes);
          ASSERT_EQ(buf, want) << "stale bytes in the cold tier";
        }
        ASSERT_EQ(tiered.ReadChunk(key, buf.data(), kChunkBytes), kChunkBytes);
        ASSERT_EQ(buf, want) << "stale bytes read";
      }
    }
  }
  EXPECT_EQ(tiered.Stats().writeback_failures, 0);
}

}  // namespace
}  // namespace hcache
