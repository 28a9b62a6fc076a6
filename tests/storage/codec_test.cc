// Property tests for the chunk precision codec: FP16 round-trip error within 1 ulp of
// half precision (RNE is actually ≤ 0.5 ulp), INT8 within RowErrorBound, FP32 bitwise,
// plus header inspection and rectangular (column-range) decode.
#include "src/storage/codec.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "src/common/rng.h"
#include "src/core/quantize.h"
#include "src/tensor/tensor.h"

namespace hcache {
namespace {

Tensor RandomRows(int64_t rows, int64_t cols, uint64_t seed, double scale = 1.0) {
  Rng rng(seed);
  Tensor t({rows, cols});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(rng.NextNormal(0, scale));
  }
  return t;
}

std::vector<uint8_t> EncodeWholeChunk(ChunkCodec codec, const Tensor& t) {
  const int64_t rows = t.dim(0), cols = t.dim(1);
  std::vector<uint8_t> chunk(static_cast<size_t>(EncodedChunkBytes(codec, rows, cols)));
  WriteChunkHeader(codec, rows, cols, chunk.data());
  EncodeRowsInto(codec, t.data(), cols, rows, cols, chunk.data() + sizeof(ChunkHeader));
  return chunk;
}

Tensor DecodeWholeChunk(const std::vector<uint8_t>& chunk, int64_t cols) {
  ChunkInfo info;
  EXPECT_TRUE(InspectChunk(chunk.data(), static_cast<int64_t>(chunk.size()), cols, &info));
  Tensor out({info.rows, info.cols});
  DecodeChunkRange(chunk.data(), static_cast<int64_t>(chunk.size()), info, 0, info.rows, 0,
                   info.cols, out.data(), info.cols);
  return out;
}

TEST(CodecTest, RowBytesAndChunkBytes) {
  EXPECT_EQ(CodecRowBytes(ChunkCodec::kFp32, 64), 256);
  EXPECT_EQ(CodecRowBytes(ChunkCodec::kFp16, 64), 128);
  EXPECT_EQ(CodecRowBytes(ChunkCodec::kInt8, 64), 68);  // values + per-row scale
  // The header: 16 descriptor bytes + payload CRC32C + header CRC32C.
  EXPECT_EQ(static_cast<int64_t>(sizeof(ChunkHeader)), 24);
  EXPECT_EQ(EncodedChunkBytes(ChunkCodec::kFp16, 64, 128), 24 + 64 * 256);
}

TEST(CodecTest, Fp16KnownValues) {
  // Exactly representable values round-trip unchanged.
  for (const float v : {0.0f, 1.0f, -1.0f, 0.5f, -2.0f, 65504.0f, 6.103515625e-05f,
                        5.9604644775390625e-08f}) {
    EXPECT_EQ(Fp16BitsToFp32(Fp32ToFp16Bits(v)), v) << v;
  }
  EXPECT_EQ(Fp32ToFp16Bits(1.0f), 0x3c00);
  EXPECT_EQ(Fp32ToFp16Bits(-2.0f), 0xc000);
  // Round-to-nearest-EVEN at the exact midpoint between 1.0 (0x3c00) and the next
  // half 1.0009765625 (0x3c01): 1.00048828125 ties down to the even mantissa.
  EXPECT_EQ(Fp32ToFp16Bits(1.00048828125f), 0x3c00);
  // Midpoint between 0x3c01 and 0x3c02 ties UP to the even mantissa.
  EXPECT_EQ(Fp32ToFp16Bits(1.00146484375f), 0x3c02);
  // Signed zero survives.
  EXPECT_EQ(Fp32ToFp16Bits(-0.0f), 0x8000);
  EXPECT_EQ(Fp16BitsToFp32(0x8000), -0.0f);
  EXPECT_TRUE(std::signbit(Fp16BitsToFp32(0x8000)));
}

TEST(CodecTest, Fp16SaturatesInsteadOfOverflowing) {
  EXPECT_EQ(Fp16BitsToFp32(Fp32ToFp16Bits(1e6f)), 65504.0f);
  EXPECT_EQ(Fp16BitsToFp32(Fp32ToFp16Bits(-1e30f)), -65504.0f);
  EXPECT_EQ(Fp16BitsToFp32(Fp32ToFp16Bits(65520.0f)), 65504.0f);  // first value RNE'ing up
  // NaN stays NaN; Inf saturates like any out-of-range magnitude is clamped to Inf.
  EXPECT_TRUE(std::isnan(Fp16BitsToFp32(Fp32ToFp16Bits(std::nanf("")))));
  EXPECT_TRUE(std::isinf(Fp16BitsToFp32(Fp32ToFp16Bits(std::numeric_limits<float>::infinity()))));
}

TEST(CodecTest, Fp16RoundTripWithinHalfUlpEverywhere) {
  // Sweep magnitudes across the half normal + subnormal range, both signs, random
  // mantissas: the RNE round trip must land within 0.5 ulp of half precision (the
  // issue's acceptance bound is 1 ulp; RNE is strictly tighter).
  Rng rng(7);
  for (int i = 0; i < 200000; ++i) {
    const double mag = std::ldexp(1.0 + rng.NextDouble(), static_cast<int>(rng.NextBounded(40)) - 24);
    if (mag > 65504.0) {
      continue;  // the saturation band is covered by Fp16SaturatesInsteadOfOverflowing
    }
    const float x = static_cast<float>(rng.NextDouble() < 0.5 ? -mag : mag);
    const float y = Fp16BitsToFp32(Fp32ToFp16Bits(x));
    const float ulp = Fp16UlpOf(y);
    EXPECT_LE(std::fabs(y - x), 0.5f * ulp + 1e-30f) << "x=" << x << " y=" << y;
  }
}

TEST(CodecTest, Fp16ChunkRoundTripBounded) {
  const Tensor t = RandomRows(64, 96, 11);
  const auto chunk = EncodeWholeChunk(ChunkCodec::kFp16, t);
  const Tensor back = DecodeWholeChunk(chunk, 96);
  for (int64_t i = 0; i < t.numel(); ++i) {
    const float ulp = Fp16UlpOf(back.at(i));
    EXPECT_LE(std::fabs(back.at(i) - t.at(i)), ulp) << i;
  }
}

TEST(CodecTest, Int8ChunkMatchesQuantizeRowsAndBound) {
  const Tensor t = RandomRows(32, 80, 3, 4.0);
  const auto chunk = EncodeWholeChunk(ChunkCodec::kInt8, t);
  const Tensor back = DecodeWholeChunk(chunk, 80);
  // Same kernel as core/quantize.cc: identical reconstruction...
  const QuantizedRows q = QuantizeRows(t);
  const Tensor ref = DequantizeRows(q);
  EXPECT_TRUE(Tensor::BitwiseEqual(back, ref));
  // ...and within the analytic per-row bound.
  for (int64_t r = 0; r < t.dim(0); ++r) {
    const float bound = RowErrorBound(q, r);
    for (int64_t c = 0; c < t.dim(1); ++c) {
      EXPECT_LE(std::fabs(back.at(r, c) - t.at(r, c)), bound) << r << "," << c;
    }
  }
}

TEST(CodecTest, Fp32ChunkRoundTripsBitwise) {
  const Tensor t = RandomRows(17, 33, 5);
  const auto chunk = EncodeWholeChunk(ChunkCodec::kFp32, t);
  const Tensor back = DecodeWholeChunk(chunk, 33);
  EXPECT_TRUE(Tensor::BitwiseEqual(back, t));
}

TEST(CodecTest, InspectRejectsGarbage) {
  std::vector<uint8_t> junk(13, 0xab);
  ChunkInfo info;
  EXPECT_FALSE(InspectChunk(junk.data(), static_cast<int64_t>(junk.size()), 24, &info));
  // Truncated encoded chunk: header promises more rows than the bytes hold.
  const Tensor t = RandomRows(8, 16, 8);
  auto chunk = EncodeWholeChunk(ChunkCodec::kFp16, t);
  chunk.resize(chunk.size() - 1);
  EXPECT_FALSE(InspectChunk(chunk.data(), static_cast<int64_t>(chunk.size()), 16, &info));
}

TEST(CodecTest, InspectAcceptsOnlySealedChunks) {
  const Tensor t = RandomRows(9, 24, 6);
  // Raw FP32 rows with no header never parse, whatever their size.
  std::vector<uint8_t> raw(static_cast<size_t>(t.numel()) * sizeof(float));
  std::memcpy(raw.data(), t.data(), raw.size());
  ChunkInfo info;
  EXPECT_FALSE(InspectChunk(raw.data(), static_cast<int64_t>(raw.size()), 24, &info));
  EXPECT_FALSE(InspectChunk(raw.data(), static_cast<int64_t>(raw.size()), 0, &info));
  const auto chunk = EncodeWholeChunk(ChunkCodec::kFp32, t);
  // The sealed chunk parses at its own width or at "any width" (0), not at another.
  const int64_t bytes = static_cast<int64_t>(chunk.size());
  EXPECT_TRUE(InspectChunk(chunk.data(), bytes, 24, &info));
  EXPECT_TRUE(InspectChunk(chunk.data(), bytes, 0, &info));
  EXPECT_EQ(info.cols, 24);
  EXPECT_EQ(info.rows, 9);
  EXPECT_FALSE(InspectChunk(chunk.data(), bytes, 12, &info));
  EXPECT_FALSE(InspectChunk(chunk.data(), bytes, 48, &info));
}

TEST(CodecTest, ParseChunkHeaderIgnoresThePayloadLength) {
  // fsck's torn-write check: a trusted header over a short payload still parses.
  const Tensor t = RandomRows(8, 16, 10);
  auto chunk = EncodeWholeChunk(ChunkCodec::kInt8, t);
  ChunkInfo info;
  ASSERT_TRUE(ParseChunkHeader(chunk.data(), static_cast<int64_t>(sizeof(ChunkHeader)), &info));
  EXPECT_EQ(info.codec, ChunkCodec::kInt8);
  EXPECT_EQ(info.rows, 8);
  EXPECT_EQ(info.cols, 16);
  // Shorter than the header itself, or a header bit flip: no parse.
  EXPECT_FALSE(ParseChunkHeader(chunk.data(), static_cast<int64_t>(sizeof(ChunkHeader)) - 1,
                                &info));
  chunk[9] ^= 0x01;  // rows
  EXPECT_FALSE(ParseChunkHeader(chunk.data(), static_cast<int64_t>(chunk.size()), &info));
}

TEST(CodecTest, ColumnRangeDecodeSplitsInterleavedRows) {
  // The KV read path decodes the [K | V] halves of one stored row into two tensors.
  const int64_t rows = 12, kv = 20;
  const Tensor t = RandomRows(rows, 2 * kv, 9);
  for (const ChunkCodec codec :
       {ChunkCodec::kFp32, ChunkCodec::kFp16, ChunkCodec::kInt8}) {
    const auto chunk = EncodeWholeChunk(codec, t);
    const Tensor whole = DecodeWholeChunk(chunk, 2 * kv);
    ChunkInfo info;
    ASSERT_TRUE(InspectChunk(chunk.data(), static_cast<int64_t>(chunk.size()), 2 * kv, &info));
    Tensor k({rows, kv}), v({rows, kv});
    DecodeChunkRange(chunk.data(), static_cast<int64_t>(chunk.size()), info, 0, rows, 0, kv,
                     k.data(), kv);
    DecodeChunkRange(chunk.data(), static_cast<int64_t>(chunk.size()), info, 0, rows, kv,
                     2 * kv, v.data(), kv);
    for (int64_t r = 0; r < rows; ++r) {
      for (int64_t c = 0; c < kv; ++c) {
        EXPECT_EQ(k.at(r, c), whole.at(r, c)) << ChunkCodecName(codec);
        EXPECT_EQ(v.at(r, c), whole.at(r, kv + c)) << ChunkCodecName(codec);
      }
    }
  }
}

TEST(CodecTest, ChunkSizeCoversRowsAcceptsEveryValidEncoding) {
  for (const int64_t cols : {8, 64, 4096}) {
    for (const int64_t rows : {1, 7, 33, 64}) {
      for (const ChunkCodec codec :
           {ChunkCodec::kFp32, ChunkCodec::kFp16, ChunkCodec::kInt8}) {
        EXPECT_TRUE(
            ChunkSizeCoversRows(EncodedChunkBytes(codec, rows, cols), rows, 64, cols, codec))
            << ChunkCodecName(codec) << " rows=" << rows << " cols=" << cols;
      }
    }
  }
}

TEST(CodecTest, ChunkSizeCoversRowsRejectsShortChunks) {
  // The regression the check exists for: a partially saved chunk (fewer rows than
  // wanted) must be reported incomplete, so restoration falls back to recompute
  // instead of CHECK-failing mid-decode.
  for (const int64_t cols : {8, 64, 4096}) {
    for (const ChunkCodec codec :
         {ChunkCodec::kFp32, ChunkCodec::kFp16, ChunkCodec::kInt8}) {
      const int64_t short_bytes = EncodedChunkBytes(codec, 33, cols);  // 33 of 64 wanted
      EXPECT_FALSE(ChunkSizeCoversRows(short_bytes, 64, 64, cols, codec))
          << ChunkCodecName(codec) << " cols=" << cols;
    }
    // Headerless FP32 rows, even a full chunk's worth, are not a chunk.
    EXPECT_FALSE(ChunkSizeCoversRows(64 * cols * static_cast<int64_t>(sizeof(float)), 64, 64,
                                     cols, ChunkCodec::kFp32));
    // Absent chunk (ChunkSize returns -1) and zero bytes never cover anything.
    EXPECT_FALSE(ChunkSizeCoversRows(-1, 1, 64, cols, ChunkCodec::kFp32));
    EXPECT_FALSE(ChunkSizeCoversRows(0, 1, 64, cols, ChunkCodec::kFp32));
  }
}

TEST(CodecTest, ChunkSizeCoversRowsRejectsCrossCodecAliasing) {
  // An FP32 payload of r rows is byte-identical in size to an FP16 payload of 2r rows
  // (r*4*cols == 2r*2*cols). With the expected codec pinned to what the context's
  // writer uses, a half-saved FP32 chunk must NOT read as a complete FP16 chunk.
  const int64_t cols = 4096;
  const int64_t half_fp32 = EncodedChunkBytes(ChunkCodec::kFp32, 4, cols);  // 4 of 8 rows
  EXPECT_EQ(half_fp32, EncodedChunkBytes(ChunkCodec::kFp16, 8, cols));      // the alias
  EXPECT_FALSE(ChunkSizeCoversRows(half_fp32, 8, 8, cols, ChunkCodec::kFp32));
}

}  // namespace
}  // namespace hcache
