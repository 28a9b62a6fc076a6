// Rotary position embedding (RoPE, Su et al.).
//
// HCache-relevant detail (§5 of the paper): the KV projection from hidden states yields
// *pre-rotation* keys, so restoration must re-apply RoPE with each token's original
// absolute position. ApplyRope therefore takes an explicit per-token position array
// instead of assuming positions 0..n-1 — the restoration path passes the historical
// positions, and bit-exactness versus the original forward pass follows from using the
// identical kernel in both places.
//
// RopeTable holds the (cos, sin) of every angle up to a model's max_position, computed
// once from the expressions ApplyRope evaluates per call, so the transformer's hot
// paths rotate with two loads per pair instead of a powf and a sincosf. Both rotate
// through one routine, so a table rotation equals ApplyRope bit for bit.
#ifndef HCACHE_SRC_TENSOR_ROPE_H_
#define HCACHE_SRC_TENSOR_ROPE_H_

#include <cstdint>
#include <vector>

#include "src/tensor/tensor.h"

namespace hcache {

// Rotates `x` in place. x is [num_tokens, num_heads * head_dim]; positions has
// num_tokens entries. Pairs (x[2i], x[2i+1]) within each head are rotated by
// pos * theta^(-2i/head_dim). `theta_base` is 10000 for Llama-family models.
void ApplyRope(Tensor& x, const int32_t* positions, int64_t num_heads, int64_t head_dim,
               float theta_base = 10000.0f);

// Convenience for contiguous positions [start, start + num_tokens).
void ApplyRopeContiguous(Tensor& x, int32_t start_pos, int64_t num_heads, int64_t head_dim,
                         float theta_base = 10000.0f);

// Immutable after construction, so any number of threads may read it.
class RopeTable {
 public:
  RopeTable() = default;
  // Tabulates positions [0, max_position) for heads of `head_dim`.
  RopeTable(int64_t head_dim, int64_t max_position, float theta_base = 10000.0f);

  // The head_dim / 2 interleaved (cos, sin) pairs of `pos`: a table row below
  // max_position; past it, the same expressions computed into `scratch`
  // (head_dim floats).
  const float* CosSin(int32_t pos, float* scratch) const;

  // Rotates one token's row of `num_heads` heads at `pos` from `src` into `dst`
  // (which may equal src).
  void RotateRow(const float* src, float* dst, int32_t pos, int64_t num_heads) const;

  // ApplyRope over the table: rotates every row of x [n, num_heads * head_dim].
  void Apply(Tensor& x, const int32_t* positions, int64_t num_heads) const;

 private:
  int64_t head_dim_ = 0;
  int64_t max_position_ = 0;
  std::vector<float> freqs_;    // [head_dim / 2]: each pair's rotation frequency
  std::vector<float> cos_sin_;  // [max_position, head_dim]: (cos, sin) per pair
};

}  // namespace hcache

#endif  // HCACHE_SRC_TENSOR_ROPE_H_
