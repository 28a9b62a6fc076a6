#include "src/tensor/rope.h"

#include <cmath>
#include <numeric>
#include <vector>

#include "src/common/thread_pool.h"

namespace hcache {

namespace {

// Tokens per ParallelFor subrange: each token costs num_heads * head_dim trig ops, so
// a handful of tokens is already enough work to amortize dispatch.
constexpr int64_t kRopeGrainTokens = 8;

// RoPE's angle expressions live here only, for the table and the per-call path alike:
// pair i < head_dim / 2 rotates by pos * freq[i], freq[i] = theta_base^(-2i / head_dim).
std::vector<float> Frequencies(int64_t head_dim, float theta_base) {
  std::vector<float> freqs(static_cast<size_t>(head_dim / 2));
  for (int64_t i = 0; i < head_dim / 2; ++i) {
    freqs[static_cast<size_t>(i)] =
        std::pow(theta_base, -2.0f * static_cast<float>(i) / static_cast<float>(head_dim));
  }
  return freqs;
}

// Writes the (cos, sin) of every pair's angle at `pos` into cs[2i], cs[2i + 1].
void FillCosSin(float pos, const std::vector<float>& freqs, float* cs) {
  for (size_t i = 0; i < freqs.size(); ++i) {
    const float angle = pos * freqs[i];
    cs[2 * i] = std::cos(angle);
    cs[2 * i + 1] = std::sin(angle);
  }
}

// Rotates each head's pairs (a, b) = (src[2i], src[2i+1]) by the angle whose (cos, sin)
// is (cs[2i], cs[2i+1]), writing dst. Every rotation goes through this one function.
void RotateHeads(const float* src, float* dst, const float* cs, int64_t num_heads,
                 int64_t head_dim) {
  for (int64_t h = 0; h < num_heads; ++h) {
    const float* in = src + h * head_dim;
    float* out = dst + h * head_dim;
    for (int64_t i = 0; i < head_dim / 2; ++i) {
      const float cos_a = cs[2 * i];
      const float sin_a = cs[2 * i + 1];
      const float a = in[2 * i];
      const float b = in[2 * i + 1];
      out[2 * i] = a * cos_a - b * sin_a;
      out[2 * i + 1] = a * sin_a + b * cos_a;
    }
  }
}

}  // namespace

void ApplyRope(Tensor& x, const int32_t* positions, int64_t num_heads, int64_t head_dim,
               float theta_base) {
  CHECK_EQ(x.rank(), 2);
  CHECK_EQ(x.dim(1), num_heads * head_dim);
  CHECK_EQ(head_dim % 2, 0);
  const std::vector<float> freqs = Frequencies(head_dim, theta_base);
  // Rows are independent (each token's rotation touches only its own row), so the
  // token partitioning cannot change any result bit.
  ParallelFor(0, x.dim(0), kRopeGrainTokens, [&](int64_t t0, int64_t t1) {
    std::vector<float> cs(static_cast<size_t>(head_dim));
    for (int64_t t = t0; t < t1; ++t) {
      FillCosSin(static_cast<float>(positions[t]), freqs, cs.data());
      RotateHeads(x.row(t), x.row(t), cs.data(), num_heads, head_dim);
    }
  });
}

void ApplyRopeContiguous(Tensor& x, int32_t start_pos, int64_t num_heads, int64_t head_dim,
                         float theta_base) {
  std::vector<int32_t> positions(static_cast<size_t>(x.dim(0)));
  std::iota(positions.begin(), positions.end(), start_pos);
  ApplyRope(x, positions.data(), num_heads, head_dim, theta_base);
}

RopeTable::RopeTable(int64_t head_dim, int64_t max_position, float theta_base)
    : head_dim_(head_dim), max_position_(max_position) {
  CHECK_GT(head_dim, 0);
  CHECK_EQ(head_dim % 2, 0);
  CHECK_GE(max_position, 0);
  freqs_ = Frequencies(head_dim, theta_base);
  cos_sin_.resize(static_cast<size_t>(max_position * head_dim));
  for (int64_t pos = 0; pos < max_position; ++pos) {
    FillCosSin(static_cast<float>(pos), freqs_, &cos_sin_[pos * head_dim]);
  }
}

const float* RopeTable::CosSin(int32_t pos, float* scratch) const {
  if (pos >= 0 && pos < max_position_) {
    return cos_sin_.data() + static_cast<int64_t>(pos) * head_dim_;
  }
  FillCosSin(static_cast<float>(pos), freqs_, scratch);
  return scratch;
}

void RopeTable::RotateRow(const float* src, float* dst, int32_t pos,
                          int64_t num_heads) const {
  thread_local std::vector<float> scratch;
  scratch.resize(static_cast<size_t>(head_dim_));
  RotateHeads(src, dst, CosSin(pos, scratch.data()), num_heads, head_dim_);
}

void RopeTable::Apply(Tensor& x, const int32_t* positions, int64_t num_heads) const {
  CHECK_EQ(x.rank(), 2);
  CHECK_EQ(x.dim(1), num_heads * head_dim_);
  ParallelFor(0, x.dim(0), kRopeGrainTokens, [&](int64_t t0, int64_t t1) {
    for (int64_t t = t0; t < t1; ++t) {
      RotateRow(x.row(t), x.row(t), positions[t], num_heads);
    }
  });
}

}  // namespace hcache
