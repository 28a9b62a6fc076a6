#include "src/model/weights.h"

#include <cmath>
#include <cstdio>
#include <functional>

#include "src/common/logging.h"
#include "src/common/rng.h"

namespace hcache {

namespace {

Tensor RandomTensor(std::vector<int64_t> shape, Rng& rng, float scale) {
  Tensor t(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(rng.NextNormal(0.0, scale));
  }
  return t;
}

Tensor OnesTensor(std::vector<int64_t> shape) {
  Tensor t(std::move(shape));
  t.Fill(1.0f);
  return t;
}

// A layer's projections in the raw row-major layout that Random samples and the
// checkpoint stores; LayerWeights holds them packed.
struct RawProjections {
  Tensor wq, wk, wv, wo, w_gate, w_up, w_down;
};

bool Packable(const Tensor& t) { return t.rank() == 0 || t.rank() == 2; }

// Packs `raw` into `lw`. False (leaving `lw` untouched) when the shapes cannot form
// packed weights: a projection that is neither absent nor a matrix, or W_k and W_v
// that do not stack.
bool PackProjections(const RawProjections& raw, LayerWeights* lw) {
  for (const Tensor* t : {&raw.wq, &raw.wo, &raw.w_gate, &raw.w_up, &raw.w_down}) {
    if (!Packable(*t)) {
      return false;
    }
  }
  if (raw.wk.shape() != raw.wv.shape() || !Packable(raw.wk)) {
    return false;
  }
  lw->wq = PackedWeight(raw.wq);
  lw->wkv = raw.wk.rank() == 0 ? PackedWeight() : PackedWeight::Stack(raw.wk, raw.wv);
  lw->wo = PackedWeight(raw.wo);
  lw->w_gate = PackedWeight(raw.w_gate);
  lw->w_up = PackedWeight(raw.w_up);
  lw->w_down = PackedWeight(raw.w_down);
  return true;
}

RawProjections UnpackProjections(const LayerWeights& lw) {
  RawProjections raw;
  raw.wq = lw.wq.Unpack();
  if (!lw.wkv.empty()) {
    const int64_t kv_dim = lw.wkv.rows() / 2;
    raw.wk = lw.wkv.UnpackRows(0, kv_dim);
    raw.wv = lw.wkv.UnpackRows(kv_dim, lw.wkv.rows());
  }
  raw.wo = lw.wo.Unpack();
  raw.w_gate = lw.w_gate.Unpack();
  raw.w_up = lw.w_up.Unpack();
  raw.w_down = lw.w_down.Unpack();
  return raw;
}

}  // namespace

ModelWeights ModelWeights::Random(const ModelConfig& config, uint64_t seed) {
  ModelWeights w;
  w.config = config;
  Rng rng(seed);

  // 1/sqrt(hidden) keeps activations O(1) through deep stacks of random projections.
  const float proj_scale = 1.0f / std::sqrt(static_cast<float>(config.hidden_dim));
  const float embed_scale = 0.02f;
  const bool layer_norm = config.norm == NormKind::kLayerNorm;
  const bool learned_pos = config.position == PositionKind::kLearned;
  const bool swiglu = config.activation == ActivationKind::kSwiGlu;

  w.embedding = RandomTensor({config.vocab_size, config.hidden_dim}, rng, embed_scale);
  if (learned_pos) {
    w.pos_embedding = RandomTensor({config.max_position, config.hidden_dim}, rng, embed_scale);
  }

  w.layers.reserve(static_cast<size_t>(config.num_layers));
  for (int64_t l = 0; l < config.num_layers; ++l) {
    LayerWeights lw;
    RawProjections raw;
    raw.wq = RandomTensor({config.hidden_dim, config.hidden_dim}, rng, proj_scale);
    raw.wk = RandomTensor({config.kv_dim(), config.hidden_dim}, rng, proj_scale);
    raw.wv = RandomTensor({config.kv_dim(), config.hidden_dim}, rng, proj_scale);
    raw.wo = RandomTensor({config.hidden_dim, config.hidden_dim}, rng, proj_scale);
    if (layer_norm) {
      lw.bq = Tensor({config.hidden_dim});
      lw.bk = Tensor({config.kv_dim()});
      lw.bv = Tensor({config.kv_dim()});
      lw.bo = Tensor({config.hidden_dim});
    }

    lw.attn_norm_weight = OnesTensor({config.hidden_dim});
    lw.ffn_norm_weight = OnesTensor({config.hidden_dim});
    if (layer_norm) {
      lw.attn_norm_bias = Tensor({config.hidden_dim});
      lw.ffn_norm_bias = Tensor({config.hidden_dim});
    }

    if (swiglu) {
      raw.w_gate = RandomTensor({config.ffn_dim, config.hidden_dim}, rng, proj_scale);
    }
    raw.w_up = RandomTensor({config.ffn_dim, config.hidden_dim}, rng, proj_scale);
    raw.w_down = RandomTensor({config.hidden_dim, config.ffn_dim}, rng,
                              1.0f / std::sqrt(static_cast<float>(config.ffn_dim)));
    if (layer_norm) {
      lw.b_up = Tensor({config.ffn_dim});
      lw.b_down = Tensor({config.hidden_dim});
    }
    CHECK(PackProjections(raw, &lw));
    w.layers.push_back(std::move(lw));
  }

  w.final_norm_weight = OnesTensor({config.hidden_dim});
  if (layer_norm) {
    w.final_norm_bias = Tensor({config.hidden_dim});
  }
  w.lm_head =
      PackedWeight(RandomTensor({config.vocab_size, config.hidden_dim}, rng, proj_scale));
  return w;
}

namespace {

constexpr uint64_t kCheckpointMagic = 0x48434143'4b505431ull;  // "HCACKPT1"

// Applies `fn` to one layer's tensors in checkpoint order, taking the projections
// from `raw` — the serialization schema of a layer.
template <typename L, typename R, typename Fn>
void ForEachLayerTensor(L& layer, R& raw, Fn&& fn) {
  fn(raw.wq);
  fn(raw.wk);
  fn(raw.wv);
  fn(raw.wo);
  fn(layer.bq);
  fn(layer.bk);
  fn(layer.bv);
  fn(layer.bo);
  fn(layer.attn_norm_weight);
  fn(layer.attn_norm_bias);
  fn(layer.ffn_norm_weight);
  fn(layer.ffn_norm_bias);
  fn(raw.w_gate);
  fn(raw.w_up);
  fn(raw.w_down);
  fn(layer.b_up);
  fn(layer.b_down);
}

bool WriteRaw(std::FILE* f, const void* p, size_t n) { return std::fwrite(p, 1, n, f) == n; }
bool ReadRaw(std::FILE* f, void* p, size_t n) { return std::fread(p, 1, n, f) == n; }

bool WriteI64(std::FILE* f, int64_t v) { return WriteRaw(f, &v, sizeof(v)); }
bool ReadI64(std::FILE* f, int64_t* v) { return ReadRaw(f, v, sizeof(*v)); }

}  // namespace

bool ModelWeights::SaveToFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return false;
  }
  bool ok = WriteRaw(f, &kCheckpointMagic, sizeof(kCheckpointMagic));
  // Config header: name length + bytes, then the numeric/enum fields.
  const int64_t name_len = static_cast<int64_t>(config.name.size());
  ok = ok && WriteI64(f, name_len) && WriteRaw(f, config.name.data(), config.name.size());
  const int64_t fields[] = {config.num_layers,
                            config.hidden_dim,
                            config.num_heads,
                            config.num_kv_heads,
                            config.ffn_dim,
                            config.vocab_size,
                            config.max_position,
                            static_cast<int64_t>(config.norm),
                            static_cast<int64_t>(config.activation),
                            static_cast<int64_t>(config.position),
                            config.state_dtype_bytes};
  for (const int64_t v : fields) {
    ok = ok && WriteI64(f, v);
  }
  ok = ok && WriteRaw(f, &config.norm_eps, sizeof(config.norm_eps));

  // Tensors in schema order: embeddings, each layer, the final norm and the LM head.
  const auto write = [&](const Tensor& t) {
    ok = ok && WriteI64(f, t.rank());
    for (int64_t d = 0; d < t.rank(); ++d) {
      ok = ok && WriteI64(f, t.dim(d));
    }
    if (t.numel() > 0) {
      ok = ok && WriteRaw(f, t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
    }
  };
  write(embedding);
  write(pos_embedding);
  for (const LayerWeights& layer : layers) {
    const RawProjections raw = UnpackProjections(layer);
    ForEachLayerTensor(layer, raw, write);
  }
  write(final_norm_weight);
  write(final_norm_bias);
  write(lm_head.Unpack());
  ok = std::fclose(f) == 0 && ok;
  return ok;
}

bool ModelWeights::LoadFromFile(const std::string& path, ModelWeights* out) {
  CHECK(out != nullptr);
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return false;
  }
  uint64_t magic = 0;
  bool ok = ReadRaw(f, &magic, sizeof(magic)) && magic == kCheckpointMagic;

  ModelConfig cfg;
  int64_t name_len = 0;
  ok = ok && ReadI64(f, &name_len) && name_len >= 0 && name_len < 1024;
  if (ok) {
    cfg.name.resize(static_cast<size_t>(name_len));
    ok = name_len == 0 || ReadRaw(f, cfg.name.data(), cfg.name.size());
  }
  int64_t fields[11] = {};
  for (auto& v : fields) {
    ok = ok && ReadI64(f, &v);
  }
  ok = ok && ReadRaw(f, &cfg.norm_eps, sizeof(cfg.norm_eps));
  if (ok) {
    cfg.num_layers = fields[0];
    cfg.hidden_dim = fields[1];
    cfg.num_heads = fields[2];
    cfg.num_kv_heads = fields[3];
    cfg.ffn_dim = fields[4];
    cfg.vocab_size = fields[5];
    cfg.max_position = fields[6];
    cfg.norm = static_cast<NormKind>(fields[7]);
    cfg.activation = static_cast<ActivationKind>(fields[8]);
    cfg.position = static_cast<PositionKind>(fields[9]);
    cfg.state_dtype_bytes = fields[10];
  }

  out->config = cfg;
  out->layers.clear();
  out->layers.resize(static_cast<size_t>(std::max<int64_t>(0, cfg.num_layers)));
  const auto read = [&](Tensor& t) {
    int64_t rank = 0;
    ok = ok && ReadI64(f, &rank) && rank >= 0 && rank <= 4;
    if (!ok) {
      return;
    }
    if (rank == 0) {
      t = Tensor();  // absent tensor (e.g. biases of a bias-free model)
      return;
    }
    std::vector<int64_t> shape(static_cast<size_t>(rank));
    for (auto& d : shape) {
      ok = ok && ReadI64(f, &d) && d >= 0;
    }
    if (!ok) {
      return;
    }
    Tensor loaded(shape);
    if (loaded.numel() > 0) {
      ok = ok && ReadRaw(f, loaded.data(), static_cast<size_t>(loaded.numel()) * sizeof(float));
    }
    t = std::move(loaded);
  };
  read(out->embedding);
  read(out->pos_embedding);
  for (LayerWeights& layer : out->layers) {
    RawProjections raw;
    ForEachLayerTensor(layer, raw, read);
    ok = ok && PackProjections(raw, &layer);  // packs as it reads
  }
  read(out->final_norm_weight);
  read(out->final_norm_bias);
  Tensor lm_head;
  read(lm_head);
  ok = ok && Packable(lm_head);
  if (ok) {
    out->lm_head = PackedWeight(lm_head);
  }
  std::fclose(f);
  return ok;
}

}  // namespace hcache
