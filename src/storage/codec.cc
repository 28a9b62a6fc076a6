#include "src/storage/codec.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstring>

#include "src/common/logging.h"
#include "src/common/thread_pool.h"
#include "src/storage/codec_simd.h"

namespace hcache {

namespace {

// Convert kernels below this many elements run inline on the caller; above it they
// work-share rows on the shared pool. 2^15 elements ≈ the point where a ~1 GB/s-per
// -core conversion stops being dwarfed by pool dispatch.
constexpr int64_t kParallelElemThreshold = 1 << 15;

inline uint32_t BitsOf(float f) {
  uint32_t u;
  std::memcpy(&u, &f, sizeof(u));
  return u;
}

inline float FloatOf(uint32_t u) {
  float f;
  std::memcpy(&f, &u, sizeof(f));
  return f;
}

// Row-parallel driver shared by encode and decode.
template <typename Fn>
void ForEachRow(int64_t rows, int64_t cols, const Fn& fn) {
  if (rows * cols < kParallelElemThreshold) {
    for (int64_t r = 0; r < rows; ++r) {
      fn(r);
    }
    return;
  }
  const int64_t grain = std::max<int64_t>(1, kParallelElemThreshold / std::max<int64_t>(cols, 1));
  ParallelFor(0, rows, grain, [&](int64_t lo, int64_t hi) {
    for (int64_t r = lo; r < hi; ++r) {
      fn(r);
    }
  });
}

}  // namespace

uint16_t Fp32ToFp16Bits(float f) {
  const uint32_t u = BitsOf(f);
  const uint16_t sign = static_cast<uint16_t>((u >> 16) & 0x8000u);
  const uint32_t abs = u & 0x7fffffffu;
  // Fast path first: the normal half range [2^-14, ~65520) covers virtually every
  // hidden-state value, and its body is branch-free — RNE folds into one add whose
  // carry propagates from mantissa into exponent in float bit space:
  //   (abs + 0xfff + lsb) >> 13 rounds the 13 dropped bits to nearest-even, then the
  //   exponent is rebased from bias 127 to bias 15.
  if (abs - 0x38800000u < 0x477ff000u - 0x38800000u) {
    const uint32_t rounded = abs + 0xfffu + ((abs >> 13) & 1u);
    return static_cast<uint16_t>(sign | ((rounded >> 13) - (112u << 10)));
  }
  if (abs >= 0x7f800000u) {  // Inf / NaN
    return static_cast<uint16_t>(sign | (abs > 0x7f800000u ? 0x7e00u : 0x7c00u));
  }
  if (abs >= 0x477ff000u) {  // would round to ≥ 2^16: saturate to max finite half
    return static_cast<uint16_t>(sign | 0x7bffu);
  }
  if (abs <= 0x33000000u) {  // < 2^-25 (tie at 2^-25 rounds to even = 0): signed zero
    return sign;
  }
  // Subnormal half: value = m * 2^(exp - 150) with the implicit bit restored; the
  // result in units of 2^-24 is m >> (126 - exp), rounded to nearest-even.
  const uint32_t m = (abs & 0x7fffffu) | 0x800000u;
  const uint32_t shift = 126u - (abs >> 23);  // 14..24
  uint32_t h = m >> shift;
  const uint32_t rem = m & ((1u << shift) - 1u);
  const uint32_t half = 1u << (shift - 1u);
  h += (rem > half) || (rem == half && (h & 1u));  // may carry into the normal range: ok
  return static_cast<uint16_t>(sign | h);
}

namespace {

float Fp16BitsToFp32Scalar(uint16_t bits) {
  const uint32_t sign = static_cast<uint32_t>(bits & 0x8000u) << 16;
  const uint32_t exp = (bits >> 10) & 0x1fu;
  uint32_t mant = bits & 0x3ffu;
  if (exp == 0x1fu) {  // Inf / NaN
    if (mant != 0) {
      // Quiet signaling NaNs (set the payload MSB), exactly like vcvtph2ps — the
      // LUT must stay hardware-equivalent for all 65536 patterns so the SIMD
      // decode tiers are bit-identical to scalar.
      mant |= 0x200u;
    }
    return FloatOf(sign | 0x7f800000u | (mant << 13));
  }
  if (exp != 0) {  // normal
    return FloatOf(sign | ((exp + 112u) << 23) | (mant << 13));
  }
  if (mant == 0) {  // signed zero
    return FloatOf(sign);
  }
  // Subnormal: normalize mant into the implicit-bit position.
  uint32_t e = 112;
  do {
    mant <<= 1;
    --e;
  } while ((mant & 0x400u) == 0);
  return FloatOf(sign | ((e + 1u) << 23) | ((mant & 0x3ffu) << 13));
}

}  // namespace

// Half decode is on the restoration critical path (the transmission stream's fused
// dequant); the scalar tier folds the branchy conversion into a 256 KiB lookup
// table — one L1/L2-friendly load per element instead of a branch tree. The vector
// tiers use vcvtph2ps, which is bit-identical to this table for every half pattern
// (the matrix test sweeps all 65536). Built once, thread-safe (C++11 statics).
const float* Fp16DecodeTable() {
  static const std::vector<float>* table = [] {
    auto* t = new std::vector<float>(1u << 16);
    for (uint32_t i = 0; i < (1u << 16); ++i) {
      (*t)[i] = Fp16BitsToFp32Scalar(static_cast<uint16_t>(i));
    }
    return t;
  }();
  return table->data();
}

float Fp16BitsToFp32(uint16_t bits) { return Fp16DecodeTable()[bits]; }

float Fp16UlpOf(float decoded) {
  const float a = std::fabs(decoded);
  if (a < 6.103515625e-05f) {  // subnormal half: fixed spacing 2^-24
    return 5.9604644775390625e-08f;
  }
  const int exp = std::ilogb(a);
  return std::ldexp(1.0f, exp - 10);  // 2^(e-10): half has 10 fraction bits
}

void Int8EncodeRow(const float* src, int64_t cols, float* scale_out, int8_t* values_out) {
  const CodecKernels& k = ActiveCodecKernels();
  const float max_abs = k.max_abs(src, cols);
  const float scale = max_abs > 0.0f ? max_abs / 127.0f : 1.0f;
  *scale_out = scale;
  k.int8_quantize(src, 1.0f / scale, values_out, cols);
}

void Int8DecodeRow(const int8_t* values, float scale, int64_t cols, float* dst) {
  ActiveCodecKernels().int8_dequantize(values, scale, dst, cols);
}

void WriteChunkHeader(ChunkCodec codec, int64_t rows, int64_t cols, void* dst) {
  CHECK_GE(rows, 0);
  CHECK_GT(cols, 0);
  ChunkHeader h;
  h.magic = kChunkMagic;
  h.version = kChunkFormatVersion;
  h.codec = static_cast<uint8_t>(codec);
  h.rows = static_cast<uint32_t>(rows);
  h.cols = static_cast<uint32_t>(cols);
  // Seal the already-encoded payload behind the header, then the header behind its
  // own checksum (over every field above, i.e. the 20 bytes before header_crc32c).
  const uint8_t* payload = static_cast<const uint8_t*>(dst) + sizeof(ChunkHeader);
  h.payload_crc32c = Crc32c(payload, rows * CodecRowBytes(codec, cols));
  h.header_crc32c = Crc32c(&h, offsetof(ChunkHeader, header_crc32c));
  std::memcpy(dst, &h, sizeof(h));
}

void EncodeRowsInto(ChunkCodec codec, const float* src, int64_t src_stride, int64_t rows,
                    int64_t cols, uint8_t* payload) {
  const int64_t row_bytes = CodecRowBytes(codec, cols);
  switch (codec) {
    case ChunkCodec::kFp32:
      ForEachRow(rows, cols, [&](int64_t r) {
        std::memcpy(payload + r * row_bytes, src + r * src_stride,
                    static_cast<size_t>(cols) * sizeof(float));
      });
      break;
    case ChunkCodec::kFp16: {
      const CodecKernels& k = ActiveCodecKernels();
      ForEachRow(rows, cols, [&](int64_t r) {
        k.fp16_encode(src + r * src_stride,
                      reinterpret_cast<uint16_t*>(payload + r * row_bytes), cols);
      });
      break;
    }
    case ChunkCodec::kInt8:
      ForEachRow(rows, cols, [&](int64_t r) {
        uint8_t* row = payload + r * row_bytes;
        float scale = 0.0f;
        Int8EncodeRow(src + r * src_stride, cols, &scale,
                      reinterpret_cast<int8_t*>(row + sizeof(float)));
        std::memcpy(row, &scale, sizeof(float));
      });
      break;
  }
}

bool HasChunkMagic(const void* data, int64_t bytes) {
  uint32_t magic = 0;
  if (data == nullptr || bytes < static_cast<int64_t>(sizeof(magic))) {
    return false;
  }
  std::memcpy(&magic, data, sizeof(magic));
  return magic == kChunkMagic;
}

bool ParseChunkHeader(const void* data, int64_t bytes, ChunkInfo* info) {
  CHECK(info != nullptr);
  if (data == nullptr || bytes < static_cast<int64_t>(sizeof(ChunkHeader))) {
    return false;
  }
  ChunkHeader h;
  std::memcpy(&h, data, sizeof(h));
  if (h.magic != kChunkMagic || h.version != kChunkFormatVersion ||
      h.codec > static_cast<uint8_t>(ChunkCodec::kInt8) || h.cols == 0 ||
      Crc32c(data, offsetof(ChunkHeader, header_crc32c)) != h.header_crc32c) {
    return false;
  }
  info->codec = static_cast<ChunkCodec>(h.codec);
  info->rows = h.rows;
  info->cols = h.cols;
  info->payload_crc32c = h.payload_crc32c;
  return true;
}

bool InspectChunk(const void* data, int64_t bytes, int64_t cols, ChunkInfo* info) {
  return ParseChunkHeader(data, bytes, info) && (cols == 0 || info->cols == cols) &&
         EncodedChunkBytes(info->codec, info->rows, info->cols) == bytes;
}

void DecodeChunkRange(const void* data, int64_t bytes, const ChunkInfo& info, int64_t row0,
                      int64_t row1, int64_t col0, int64_t col1, float* dst,
                      int64_t dst_stride) {
  CHECK_GE(row0, 0);
  CHECK_LE(row1, info.rows);
  CHECK_GE(col0, 0);
  CHECK_LT(col0, col1);
  CHECK_LE(col1, info.cols);
  const int64_t rows = row1 - row0;
  if (rows <= 0) {
    return;
  }
  const int64_t cols = col1 - col0;
  const int64_t row_bytes = CodecRowBytes(info.codec, info.cols);
  const uint8_t* base = static_cast<const uint8_t*>(data) + sizeof(ChunkHeader);
  CHECK_LE(EncodedChunkBytes(info.codec, info.rows, info.cols), bytes)
      << "short chunk payload";
  switch (info.codec) {
    case ChunkCodec::kFp32:
      ForEachRow(rows, cols, [&](int64_t r) {
        const uint8_t* row = base + (row0 + r) * row_bytes;
        std::memcpy(dst + r * dst_stride,
                    reinterpret_cast<const float*>(row) + col0,
                    static_cast<size_t>(cols) * sizeof(float));
      });
      break;
    case ChunkCodec::kFp16: {
      // The column-range decode de-interleaves [K | V] rows straight into the
      // projection inputs; the kernel tolerates the 2-byte-aligned offset a nonzero
      // col0 produces (unaligned vector loads).
      const CodecKernels& k = ActiveCodecKernels();
      ForEachRow(rows, cols, [&](int64_t r) {
        k.fp16_decode(reinterpret_cast<const uint16_t*>(base + (row0 + r) * row_bytes) + col0,
                      dst + r * dst_stride, cols);
      });
      break;
    }
    case ChunkCodec::kInt8:
      ForEachRow(rows, cols, [&](int64_t r) {
        const uint8_t* row = base + (row0 + r) * row_bytes;
        float scale = 0.0f;
        std::memcpy(&scale, row, sizeof(float));
        Int8DecodeRow(reinterpret_cast<const int8_t*>(row + sizeof(float)) + col0, scale,
                      cols, dst + r * dst_stride);
      });
      break;
  }
}

}  // namespace hcache
