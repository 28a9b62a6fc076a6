#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "src/common/rng.h"
#include "src/model/transformer.h"
#include "src/model/weights.h"

namespace hcache {
namespace {

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

Tensor RandomMatrix(int64_t r, int64_t c, uint64_t seed) {
  Rng rng(seed);
  Tensor t({r, c});
  for (int64_t i = 0; i < t.numel(); ++i) {
    t.at(i) = static_cast<float>(rng.NextNormal(0, 1));
  }
  return t;
}

// The checkpoint's tensor records in file order, each as its raw payload bytes (rank
// and dims checked against `shapes` by the caller). Parses the format independently of
// LoadFromFile: magic, name, 11 int64 fields and the float norm_eps, then per tensor an
// int64 rank, the int64 dims and the row-major FP32 data.
std::vector<std::pair<std::vector<int64_t>, std::string>> TensorRecords(
    const std::string& bytes) {
  size_t off = 8;
  auto i64 = [&] {
    int64_t v = 0;
    std::memcpy(&v, bytes.data() + off, sizeof(v));
    off += sizeof(v);
    return v;
  };
  off += static_cast<size_t>(i64());  // name
  off += 11 * sizeof(int64_t) + sizeof(float);
  std::vector<std::pair<std::vector<int64_t>, std::string>> records;
  while (off < bytes.size()) {
    std::vector<int64_t> shape(static_cast<size_t>(i64()));
    int64_t numel = shape.empty() ? 0 : 1;
    for (auto& d : shape) {
      d = i64();
      numel *= d;
    }
    const size_t n = static_cast<size_t>(numel) * sizeof(float);
    records.emplace_back(shape, bytes.substr(off, n));
    off += n;
  }
  return records;
}

std::string RawBytes(const Tensor& t) {
  return {reinterpret_cast<const char*>(t.data()), static_cast<size_t>(t.byte_size())};
}

class WeightsIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = (std::filesystem::temp_directory_path() /
             ("hcache_ckpt_" + std::to_string(::getpid()) + "_" +
              ::testing::UnitTest::GetInstance()->current_test_info()->name() + ".bin"))
                .string();
  }
  void TearDown() override { std::filesystem::remove(path_); }

  std::string path_;
};

TEST_F(WeightsIoTest, RoundTripLlama) {
  const ModelWeights w = ModelWeights::Random(ModelConfig::TinyLlama(3, 32, 2), 11);
  ASSERT_TRUE(w.SaveToFile(path_));
  ModelWeights loaded;
  ASSERT_TRUE(ModelWeights::LoadFromFile(path_, &loaded));
  EXPECT_EQ(loaded.config.name, "TinyLlama");
  EXPECT_EQ(loaded.config.num_layers, 3);
  EXPECT_EQ(loaded.config.activation, ActivationKind::kSwiGlu);
  EXPECT_TRUE(Tensor::BitwiseEqual(w.embedding, loaded.embedding));
  EXPECT_TRUE(Tensor::BitwiseEqual(w.lm_head.Unpack(), loaded.lm_head.Unpack()));
  for (size_t l = 0; l < w.layers.size(); ++l) {
    EXPECT_TRUE(Tensor::BitwiseEqual(w.layers[l].wkv.Unpack(), loaded.layers[l].wkv.Unpack()))
        << l;
    EXPECT_TRUE(
        Tensor::BitwiseEqual(w.layers[l].w_down.Unpack(), loaded.layers[l].w_down.Unpack()))
        << l;
  }
  // Absent tensors (Llama has no biases) stay absent.
  EXPECT_TRUE(loaded.layers[0].bq.empty());
  EXPECT_TRUE(loaded.pos_embedding.empty());
}

TEST_F(WeightsIoTest, RoundTripOptWithBiases) {
  const ModelWeights w = ModelWeights::Random(ModelConfig::TinyOpt(2, 32, 2), 12);
  ASSERT_TRUE(w.SaveToFile(path_));
  ModelWeights loaded;
  ASSERT_TRUE(ModelWeights::LoadFromFile(path_, &loaded));
  EXPECT_EQ(loaded.config.position, PositionKind::kLearned);
  EXPECT_TRUE(Tensor::BitwiseEqual(w.pos_embedding, loaded.pos_embedding));
  EXPECT_EQ(loaded.layers[0].bq.numel(), 32);
  EXPECT_TRUE(Tensor::BitwiseEqual(w.layers[1].attn_norm_bias,
                                   loaded.layers[1].attn_norm_bias));
}

TEST_F(WeightsIoTest, LoadedModelComputesIdentically) {
  // The real guarantee: a checkpoint round trip does not perturb a single output bit.
  const ModelConfig cfg = ModelConfig::TinyLlama(3, 32, 2);
  const ModelWeights w = ModelWeights::Random(cfg, 13);
  ASSERT_TRUE(w.SaveToFile(path_));
  ModelWeights loaded;
  ASSERT_TRUE(ModelWeights::LoadFromFile(path_, &loaded));

  Transformer a(&w), b(&loaded);
  KvBlockPool pa(KvPoolConfig::ForModel(cfg, 32, 8)), pb(KvPoolConfig::ForModel(cfg, 32, 8));
  PagedKvSequence sa(&pa), sb(&pb);
  const std::vector<int32_t> prompt = {1, 2, 3, 4, 5, 6, 7};
  Tensor oa = a.Forward(prompt, &sa);
  Tensor ob = b.Forward(prompt, &sb);
  EXPECT_TRUE(Tensor::BitwiseEqual(oa, ob));
  EXPECT_EQ(a.GreedyDecode(7, 5, &sa), b.GreedyDecode(7, 5, &sb));
}

TEST_F(WeightsIoTest, SaveLoadSaveIsByteIdentical) {
  // Packing on load and unpacking on save must not move a byte of the file.
  for (const ModelConfig& cfg : {ModelConfig::TinyLlama(2, 32, 2),
                                 ModelConfig::TinyOpt(2, 32, 2),
                                 ModelConfig::TinyGqa(2, 48, 4, 2)}) {
    SCOPED_TRACE(cfg.name);
    const ModelWeights w = ModelWeights::Random(cfg, 15);
    ASSERT_TRUE(w.SaveToFile(path_));
    const std::string first = FileBytes(path_);
    ModelWeights loaded;
    ASSERT_TRUE(ModelWeights::LoadFromFile(path_, &loaded));
    ASSERT_TRUE(loaded.SaveToFile(path_));
    EXPECT_EQ(FileBytes(path_), first);
  }
}

TEST_F(WeightsIoTest, ProjectionsStoredRawRowMajor) {
  // The file format predates packed weights: each projection is stored as its raw
  // row-major [out, in] tensor, W_k and W_v as two tensors, W_gate and W_up too.
  // Planting known matrices (kv_dim 24, not a multiple of the 16-column panels)
  // checks every projection's bytes in the file against the matrix it was packed from.
  const ModelConfig cfg = ModelConfig::TinyGqa(2, 48, 4, 2);
  ModelWeights w = ModelWeights::Random(cfg, 16);
  const int64_t h = cfg.hidden_dim, kv = cfg.kv_dim(), ffn = cfg.ffn_dim;
  constexpr size_t kPerLayer = 17;  // tensors per layer record
  std::vector<std::pair<size_t, Tensor>> planted;
  uint64_t seed = 100;
  for (size_t l = 0; l < w.layers.size(); ++l) {
    LayerWeights& lw = w.layers[l];
    Tensor wq = RandomMatrix(h, h, seed++), wk = RandomMatrix(kv, h, seed++),
           wv = RandomMatrix(kv, h, seed++), wo = RandomMatrix(h, h, seed++),
           gate = RandomMatrix(ffn, h, seed++), up = RandomMatrix(ffn, h, seed++),
           down = RandomMatrix(h, ffn, seed++);
    lw.wq = PackedWeight(wq);
    lw.wkv = PackedWeight::Stack(wk, wv);
    lw.wo = PackedWeight(wo);
    lw.w_gate_up = PackedWeight::Stack(gate, up);
    lw.w_down = PackedWeight(down);
    const size_t base = 2 + l * kPerLayer;
    planted.emplace_back(base + 0, std::move(wq));
    planted.emplace_back(base + 1, std::move(wk));
    planted.emplace_back(base + 2, std::move(wv));
    planted.emplace_back(base + 3, std::move(wo));
    planted.emplace_back(base + 12, std::move(gate));
    planted.emplace_back(base + 13, std::move(up));
    planted.emplace_back(base + 14, std::move(down));
  }
  Tensor lm = RandomMatrix(cfg.vocab_size, h, seed++);
  w.lm_head = PackedWeight(lm);
  ASSERT_TRUE(w.SaveToFile(path_));
  const auto records = TensorRecords(FileBytes(path_));
  ASSERT_EQ(records.size(), 2 + w.layers.size() * kPerLayer + 3);
  planted.emplace_back(records.size() - 1, std::move(lm));
  for (const auto& [index, raw] : planted) {
    SCOPED_TRACE(index);
    EXPECT_EQ(records[index].first, raw.shape());
    EXPECT_TRUE(records[index].second == RawBytes(raw));
  }
}

TEST_F(WeightsIoTest, MissingFileFails) {
  ModelWeights loaded;
  EXPECT_FALSE(ModelWeights::LoadFromFile("/nonexistent/ckpt.bin", &loaded));
}

TEST_F(WeightsIoTest, CorruptMagicFails) {
  std::FILE* f = std::fopen(path_.c_str(), "wb");
  const char junk[] = "not a checkpoint at all";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  ModelWeights loaded;
  EXPECT_FALSE(ModelWeights::LoadFromFile(path_, &loaded));
}

TEST_F(WeightsIoTest, TruncatedFileFails) {
  const ModelWeights w = ModelWeights::Random(ModelConfig::TinyLlama(2, 16, 2), 14);
  ASSERT_TRUE(w.SaveToFile(path_));
  // Chop the file in half.
  const auto size = std::filesystem::file_size(path_);
  std::filesystem::resize_file(path_, size / 2);
  ModelWeights loaded;
  EXPECT_FALSE(ModelWeights::LoadFromFile(path_, &loaded));
}

}  // namespace
}  // namespace hcache
