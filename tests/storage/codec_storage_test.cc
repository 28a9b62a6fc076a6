// Storage-plane codec integration: per-codec save/read round trips through the
// two-stage saver, bit-identical decode across File/Memory/Tiered backends, and the
// steady-state save path's no-allocation guarantee.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <new>
#include <numeric>

#include "src/common/rng.h"
#include "src/storage/codec.h"
#include "src/storage/file_backend.h"
#include "src/storage/hidden_saver.h"
#include "src/storage/memory_backend.h"
#include "src/storage/tiered_backend.h"

// --- global allocation counter (used by SteadyStateSavePathDoesNotAllocate) ---
//
// Replacing the global allocation functions is the only way to observe *every*
// allocation on the save path — staging, flush payload, and backend write alike.
namespace {
std::atomic<long long> g_alloc_count{0};
std::atomic<bool> g_count_allocs{false};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocs.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace hcache {
namespace {

constexpr int64_t kChunkBytes = 1 << 20;

Tensor RandomTokens(const ModelConfig& cfg, int64_t total, uint64_t seed) {
  Rng rng(seed);
  Tensor all({total, cfg.hidden_dim});
  for (int64_t i = 0; i < all.numel(); ++i) {
    all.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  return all;
}

void Feed(HiddenStateSink* sink, const ModelConfig& cfg, const Tensor& all, int64_t step) {
  const int64_t total = all.dim(0);
  for (int64_t start = 0; start < total; start += step) {
    const int64_t n = std::min(step, total - start);
    Tensor batch({n, cfg.hidden_dim});
    std::vector<int32_t> pos(static_cast<size_t>(n));
    std::iota(pos.begin(), pos.end(), static_cast<int32_t>(start));
    for (int64_t i = 0; i < n; ++i) {
      std::copy(all.row(start + i), all.row(start + i) + cfg.hidden_dim, batch.row(i));
    }
    for (int64_t layer = 0; layer < cfg.num_layers; ++layer) {
      sink->OnLayerInput(layer, batch, pos.data(), n);
    }
  }
}

class CodecStorageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = ModelConfig::TinyLlama(2, 32, 2);
    base_ = std::filesystem::temp_directory_path() /
            ("hcache_codec_storage_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  void TearDown() override { std::filesystem::remove_all(base_); }

  std::unique_ptr<FileBackend> MakeFile(const char* tag) {
    return std::make_unique<FileBackend>(
        std::vector<std::string>{(base_ / tag / "d0").string(), (base_ / tag / "d1").string()},
        kChunkBytes);
  }

  ModelConfig cfg_;
  std::filesystem::path base_;
};

TEST_F(CodecStorageTest, PerCodecRoundTripWithinBounds) {
  const Tensor all = RandomTokens(cfg_, 37, 21);
  for (const ChunkCodec codec :
       {ChunkCodec::kFp32, ChunkCodec::kFp16, ChunkCodec::kInt8}) {
    MemoryBackend store(kChunkBytes);
    HiddenStateWriter writer(&store, nullptr, cfg_, 1, /*chunk_tokens=*/8, codec);
    Feed(&writer, cfg_, all, 5);
    writer.Seal();
    HiddenStateReader reader(&store, cfg_, 8);
    ASSERT_TRUE(reader.ContextComplete(1, 37, codec)) << ChunkCodecName(codec);
    const Tensor got = reader.ReadLayer(1, 0, 37);
    if (codec == ChunkCodec::kFp32) {
      EXPECT_TRUE(Tensor::BitwiseEqual(got, all));
      continue;
    }
    for (int64_t i = 0; i < all.numel(); ++i) {
      const float err = std::fabs(got.at(i) - all.at(i));
      if (codec == ChunkCodec::kFp16) {
        EXPECT_LE(err, Fp16UlpOf(got.at(i))) << ChunkCodecName(codec) << " @" << i;
      } else {
        // Per-row symmetric INT8: error ≤ scale/2 = max|row|/254.
        const int64_t r = i / cfg_.hidden_dim;
        float max_abs = 0;
        for (int64_t c = 0; c < cfg_.hidden_dim; ++c) {
          max_abs = std::max(max_abs, std::fabs(all.at(r, c)));
        }
        EXPECT_LE(err, max_abs / 254.0f + 1e-12f) << ChunkCodecName(codec) << " @" << i;
      }
    }
  }
}

TEST_F(CodecStorageTest, CompressionShowsUpInBackendBytes) {
  const Tensor all = RandomTokens(cfg_, 64, 4);
  int64_t bytes_fp32 = 0, bytes_fp16 = 0, bytes_int8 = 0;
  for (const auto& [codec, out] :
       {std::pair{ChunkCodec::kFp32, &bytes_fp32}, {ChunkCodec::kFp16, &bytes_fp16},
        {ChunkCodec::kInt8, &bytes_int8}}) {
    MemoryBackend store(kChunkBytes);
    HiddenStateWriter writer(&store, nullptr, cfg_, 1, 16, codec);
    Feed(&writer, cfg_, all, 16);
    writer.Seal();
    *out = store.bytes_stored();
    EXPECT_EQ(writer.encoded_bytes_written(), *out);
    EXPECT_EQ(writer.logical_bytes_written(),
              cfg_.num_layers * 64 * cfg_.hidden_dim *
                  static_cast<int64_t>(sizeof(float)));
  }
  // Headers keep the ratios slightly under the ideal 2x/4x; they must still be close.
  EXPECT_GT(static_cast<double>(bytes_fp32) / bytes_fp16, 1.9);
  EXPECT_GT(static_cast<double>(bytes_fp32) / bytes_int8, 3.3);
}

TEST_F(CodecStorageTest, DecodedBytesBitStableAcrossBackends) {
  // The acceptance bar for FP16: every backend returns the *same* decoded floats.
  const Tensor all = RandomTokens(cfg_, 48, 17);
  for (const ChunkCodec codec :
       {ChunkCodec::kFp16, ChunkCodec::kInt8, ChunkCodec::kFp32}) {
    auto file = MakeFile("file");
    MemoryBackend memory(kChunkBytes);
    auto cold = MakeFile("cold");
    TieredBackend tiered(cold.get(), 2 * kChunkBytes);
    std::vector<StorageBackend*> backends{file.get(), &memory, &tiered};
    std::vector<Tensor> decoded;
    for (StorageBackend* b : backends) {
      HiddenStateWriter writer(b, nullptr, cfg_, 1, 8, codec);
      Feed(&writer, cfg_, all, 7);
      writer.Seal();
      decoded.push_back(HiddenStateReader(b, cfg_, 8).ReadLayer(1, 1, 48));
    }
    EXPECT_TRUE(Tensor::BitwiseEqual(decoded[0], decoded[1])) << ChunkCodecName(codec);
    EXPECT_TRUE(Tensor::BitwiseEqual(decoded[1], decoded[2])) << ChunkCodecName(codec);
    file->DeleteContext(1);
    tiered.DeleteContext(1);
  }
}

// A backend that stores chunks in preallocated slots: WriteChunk never allocates, so
// the whole steady-state save path (snapshot + flush + backend) can be asserted
// allocation-free.
class PreallocatedBackend : public StorageBackend {
 public:
  PreallocatedBackend(int64_t chunk_bytes, int64_t slots)
      : StorageBackend(chunk_bytes), slots_(static_cast<size_t>(slots)) {
    for (auto& s : slots_) {
      s.resize(static_cast<size_t>(chunk_bytes));
    }
  }
  bool WriteChunk(const ChunkKey& key, const void* data, int64_t bytes) override {
    auto& slot = slots_[static_cast<size_t>(key.chunk_index) % slots_.size()];
    std::memcpy(slot.data(), data, static_cast<size_t>(bytes));
    ++writes_;
    return true;
  }
  void ReadChunks(std::span<ChunkReadRequest> requests,
                  const BatchCompletion& done = {}) const override {
    for (ChunkReadRequest& req : requests) {
      req.result = -1;
    }
    if (done) {
      done();
    }
  }
  int64_t ChunkSize(const ChunkKey&) const override { return -1; }
  void DeleteContext(int64_t) override {}
  StorageStats Stats() const override { return {}; }
  std::string Name() const override { return "prealloc"; }
  int64_t writes() const { return writes_; }

 private:
  std::vector<std::vector<uint8_t>> slots_;
  int64_t writes_ = 0;
};

TEST_F(CodecStorageTest, SteadyStateSavePathDoesNotAllocate) {
  for (const ChunkCodec codec : {ChunkCodec::kFp16, ChunkCodec::kFp32}) {
    const int64_t chunk_tokens = 4;
    PreallocatedBackend store(kChunkBytes, 8);
    HiddenStateWriter writer(&store, nullptr, cfg_, 1, chunk_tokens, codec);
    Tensor row({1, cfg_.hidden_dim});
    row.Fill(0.25f);
    // Warm-up: fill and flush a few chunks so the payload pool reaches steady depth.
    int32_t pos = 0;
    for (; pos < 3 * static_cast<int32_t>(chunk_tokens); ++pos) {
      for (int64_t layer = 0; layer < cfg_.num_layers; ++layer) {
        writer.OnLayerInput(layer, row, &pos, 1);
      }
    }
    const int64_t allocs_after_warmup = writer.payload_buffer_allocations();
    EXPECT_GE(allocs_after_warmup, 1);
    // Steady state: many more sealed chunks, zero allocations anywhere on the path.
    g_alloc_count.store(0);
    g_count_allocs.store(true);
    for (; pos < 40 * static_cast<int32_t>(chunk_tokens); ++pos) {
      for (int64_t layer = 0; layer < cfg_.num_layers; ++layer) {
        writer.OnLayerInput(layer, row, &pos, 1);
      }
    }
    g_count_allocs.store(false);
    EXPECT_EQ(g_alloc_count.load(), 0)
        << "steady-state save path allocated under codec " << ChunkCodecName(codec);
    EXPECT_EQ(writer.payload_buffer_allocations(), allocs_after_warmup)
        << "payload buffers were not recycled";
    EXPECT_GT(store.writes(), 60);
  }
}

}  // namespace
}  // namespace hcache
