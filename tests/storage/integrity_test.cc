// The durability plane's integrity primitives: CRC32C kernel correctness across
// SIMD tiers, v2 header sealing, and VerifyChunkBytes' three-way verdict — the
// contract every backend's verified read path is built on.
#include "src/storage/integrity.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <random>
#include <vector>

#include "src/storage/codec.h"
#include "src/storage/codec_simd.h"
#include "src/storage/layout.h"

namespace hcache {
namespace {

// Restores whatever tier was active when the test started (other suites in this
// process depend on the default dispatch).
class TierGuard {
 public:
  TierGuard() : saved_(ActiveSimdTier()) {}
  ~TierGuard() { ForceSimdTier(saved_); }

 private:
  SimdTier saved_;
};

TEST(Crc32cTest, KnownVectors) {
  TierGuard guard;
  for (int t = 0; t <= static_cast<int>(DetectedSimdTier()); ++t) {
    ForceSimdTier(static_cast<SimdTier>(t));
    SCOPED_TRACE(SimdTierName(ActiveSimdTier()));
    // The canonical Castagnoli check value.
    EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
    EXPECT_EQ(Crc32c("", 0), 0u);
    // RFC 3720 (iSCSI) test vectors.
    const std::vector<uint8_t> zeros(32, 0x00);
    EXPECT_EQ(Crc32c(zeros.data(), 32), 0x8A9136AAu);
    const std::vector<uint8_t> ones(32, 0xFF);
    EXPECT_EQ(Crc32c(ones.data(), 32), 0x62A8AB43u);
  }
}

TEST(Crc32cTest, TiersMatchScalarOnRaggedLengths) {
  TierGuard guard;
  std::mt19937 rng(20260807);
  std::vector<uint8_t> buf(4096 + 9);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng());
  }
  const CodecKernels& scalar = CodecKernelsFor(SimdTier::kScalar);
  for (const int64_t n : {int64_t{0}, int64_t{1}, int64_t{7}, int64_t{8}, int64_t{9},
                          int64_t{63}, int64_t{64}, int64_t{65}, int64_t{1000},
                          static_cast<int64_t>(buf.size())}) {
    const uint32_t want = scalar.crc32c(0xFFFFFFFFu, buf.data(), n) ^ 0xFFFFFFFFu;
    for (int t = 0; t <= static_cast<int>(DetectedSimdTier()); ++t) {
      ForceSimdTier(static_cast<SimdTier>(t));
      EXPECT_EQ(Crc32c(buf.data(), n), want)
          << SimdTierName(ActiveSimdTier()) << " n=" << n;
      // Unaligned start (the payload begins 24 bytes into the chunk).
      if (n + 3 <= static_cast<int64_t>(buf.size())) {
        const uint32_t want_off =
            scalar.crc32c(0xFFFFFFFFu, buf.data() + 3, n) ^ 0xFFFFFFFFu;
        EXPECT_EQ(Crc32c(buf.data() + 3, n), want_off)
            << SimdTierName(ActiveSimdTier()) << " n=" << n << " off=3";
      }
    }
  }
}

TEST(Crc32cTest, KernelStateChainsAcrossSplits) {
  // The kernel operates on raw shift-register state, so CRC(a ++ b) must equal
  // feeding a then b without re-initializing — what an incremental verifier does.
  std::mt19937 rng(7);
  std::vector<uint8_t> buf(1 << 12);
  for (auto& b : buf) {
    b = static_cast<uint8_t>(rng());
  }
  const uint32_t whole = Crc32c(buf.data(), static_cast<int64_t>(buf.size()));
  const CodecKernels& k = ActiveCodecKernels();
  for (const size_t split : {size_t{0}, size_t{1}, size_t{100}, buf.size() / 2,
                             buf.size() - 1, buf.size()}) {
    uint32_t crc = 0xFFFFFFFFu;
    crc = k.crc32c(crc, buf.data(), static_cast<int64_t>(split));
    crc = k.crc32c(crc, buf.data() + split, static_cast<int64_t>(buf.size() - split));
    EXPECT_EQ(crc ^ 0xFFFFFFFFu, whole) << "split=" << split;
  }
}

// A sealed v2 chunk: `rows` x `cols` FP32 payload with deterministic contents.
std::vector<uint8_t> MakeChunk(int64_t rows, int64_t cols, uint32_t seed = 1) {
  std::vector<uint8_t> chunk(
      static_cast<size_t>(EncodedChunkBytes(ChunkCodec::kFp32, rows, cols)));
  std::mt19937 rng(seed);
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::vector<float> row(static_cast<size_t>(cols));
  for (int64_t r = 0; r < rows; ++r) {
    for (auto& v : row) {
      v = dist(rng);
    }
    EncodeRowsInto(ChunkCodec::kFp32, row.data(), cols, 1, cols,
                   chunk.data() + sizeof(ChunkHeader) +
                       r * CodecRowBytes(ChunkCodec::kFp32, cols));
  }
  WriteChunkHeader(ChunkCodec::kFp32, rows, cols, chunk.data());
  return chunk;
}

TEST(VerifyChunkBytesTest, SealedV2ChunkVerifies) {
  const auto chunk = MakeChunk(16, 32);
  const int64_t bytes = static_cast<int64_t>(chunk.size());

  ChunkInfo info;
  ASSERT_TRUE(InspectChunk(chunk.data(), bytes, 0, &info));
  EXPECT_EQ(info.payload_crc32c,
            Crc32c(chunk.data() + sizeof(ChunkHeader), bytes - sizeof(ChunkHeader)));

  int64_t checked = 0;
  EXPECT_EQ(VerifyChunkBytes(chunk.data(), bytes, &checked), ChunkVerdict::kOkVerified);
  EXPECT_EQ(checked, bytes - static_cast<int64_t>(sizeof(ChunkHeader)));
}

TEST(VerifyChunkBytesTest, EveryPayloadBitFlipIsDetectedOnASmallChunk) {
  // Exhaustive over a small chunk: CRC32C catches ALL single-bit payload flips.
  const auto clean = MakeChunk(2, 4);
  const int64_t bytes = static_cast<int64_t>(clean.size());
  for (size_t byte = sizeof(ChunkHeader); byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto chunk = clean;
      chunk[byte] ^= static_cast<uint8_t>(1u << bit);
      EXPECT_EQ(VerifyChunkBytes(chunk.data(), bytes, nullptr), ChunkVerdict::kCorrupt)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(VerifyChunkBytesTest, HeaderFieldFlipIsDetectedByHeaderCrc) {
  const auto clean = MakeChunk(16, 32);
  const int64_t bytes = static_cast<int64_t>(clean.size());
  // Flip bits across the descriptor fields (version/codec/rows/cols) and the stored
  // payload CRC itself — the header CRC covers all of them.
  for (const size_t byte : {size_t{4}, size_t{6}, size_t{8}, size_t{12}, size_t{16}}) {
    auto chunk = clean;
    chunk[byte] ^= 0x10;
    EXPECT_EQ(VerifyChunkBytes(chunk.data(), bytes, nullptr), ChunkVerdict::kCorrupt)
        << "byte " << byte;
  }
}

TEST(VerifyChunkBytesTest, TruncationIsDetected) {
  const auto chunk = MakeChunk(16, 32);
  for (const int64_t keep : {static_cast<int64_t>(chunk.size()) - 1,
                             static_cast<int64_t>(chunk.size()) / 2,
                             static_cast<int64_t>(sizeof(ChunkHeader)),
                             int64_t{16}, int64_t{5}}) {
    EXPECT_EQ(VerifyChunkBytes(chunk.data(), keep, nullptr), ChunkVerdict::kCorrupt)
        << "kept " << keep;
  }
}

TEST(VerifyChunkBytesTest, OpaqueBytesStayUnverified) {
  // No magic -> not a format claim -> never "corrupt" (the serving plane stores
  // opaque descriptor blobs through the same backends).
  std::vector<uint8_t> blob(512, 0xAB);
  EXPECT_EQ(VerifyChunkBytes(blob.data(), 512, nullptr), ChunkVerdict::kOkUnverified);
  // Headerless FP32 rows are opaque too: delivered as stored, never decoded.
  std::vector<float> raw(64, 1.5f);
  EXPECT_EQ(VerifyChunkBytes(raw.data(), 64 * 4, nullptr), ChunkVerdict::kOkUnverified);
  ChunkInfo info;
  EXPECT_FALSE(InspectChunk(raw.data(), 64 * 4, 16, &info));
  EXPECT_EQ(VerifyChunkBytes(nullptr, 0, nullptr), ChunkVerdict::kOkUnverified);
}

TEST(VerifyChunkBytesTest, V1HeaderIsCorrupt) {
  // A 16-byte v1 chunk (magic, no CRC): it claims the chunk format in a version no
  // reader accepts, so it is a detected corruption, not opaque bytes.
  const int64_t rows = 4, cols = 8;
  const int64_t stride = CodecRowBytes(ChunkCodec::kFp32, cols);
  std::vector<uint8_t> chunk(static_cast<size_t>(16 + rows * stride), 0x3C);
  const uint32_t magic = kChunkMagic;
  const uint16_t version = 1;
  const uint8_t codec = 0;  // kFp32
  const uint32_t rows32 = static_cast<uint32_t>(rows), cols32 = static_cast<uint32_t>(cols);
  std::memcpy(chunk.data() + 0, &magic, 4);
  std::memcpy(chunk.data() + 4, &version, 2);
  chunk[6] = codec;
  chunk[7] = 0;
  std::memcpy(chunk.data() + 8, &rows32, 4);
  std::memcpy(chunk.data() + 12, &cols32, 4);

  ChunkInfo info;
  EXPECT_FALSE(InspectChunk(chunk.data(), static_cast<int64_t>(chunk.size()), 0, &info));
  EXPECT_EQ(VerifyChunkBytes(chunk.data(), static_cast<int64_t>(chunk.size()), nullptr),
            ChunkVerdict::kCorrupt);
  std::vector<uint8_t> copy(chunk.size());
  EXPECT_EQ(VerifyAndCopyChunk(chunk.data(), static_cast<int64_t>(chunk.size()), copy.data(),
                               nullptr),
            ChunkVerdict::kCorrupt);
}

TEST(VerifyChunkBytesTest, VerdictStableAcrossSimdTiers) {
  TierGuard guard;
  const auto clean = MakeChunk(16, 32);
  auto corrupt = clean;
  corrupt[sizeof(ChunkHeader) + 17] ^= 0x04;
  for (int t = 0; t <= static_cast<int>(DetectedSimdTier()); ++t) {
    ForceSimdTier(static_cast<SimdTier>(t));
    SCOPED_TRACE(SimdTierName(ActiveSimdTier()));
    EXPECT_EQ(VerifyChunkBytes(clean.data(), static_cast<int64_t>(clean.size()), nullptr),
              ChunkVerdict::kOkVerified);
    EXPECT_EQ(
        VerifyChunkBytes(corrupt.data(), static_cast<int64_t>(corrupt.size()), nullptr),
        ChunkVerdict::kCorrupt);
  }
}

}  // namespace
}  // namespace hcache
