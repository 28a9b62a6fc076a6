#include "src/core/shared_prefix.h"

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/storage/dedup_backend.h"
#include "src/storage/memory_backend.h"

namespace hcache {
namespace {

class SharedPrefixTest : public ::testing::TestWithParam<ChunkCodec> {
 protected:
  void SetUp() override {
    cfg_ = ModelConfig::TinyLlama(3, 32, 2);
    weights_ = std::make_unique<ModelWeights>(ModelWeights::Random(cfg_, 5));
    model_ = std::make_unique<Transformer>(weights_.get());
    pool_ = std::make_unique<KvBlockPool>(KvPoolConfig::ForModel(cfg_, 128, 8));
    engine_ = std::make_unique<FunctionalHCache>(model_.get(), &dedup_, &flush_pool_,
                                                 /*chunk_tokens=*/8, GetParam());
    mgr_ = std::make_unique<SharedPrefixManager>(model_.get(), engine_.get());
  }

  std::vector<int32_t> RandomTokens(int64_t n, uint64_t seed) {
    Rng rng(seed);
    std::vector<int32_t> t(static_cast<size_t>(n));
    for (auto& x : t) {
      x = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(cfg_.vocab_size)));
    }
    return t;
  }

  static std::vector<int32_t> Concat(std::vector<int32_t> a, const std::vector<int32_t>& b) {
    a.insert(a.end(), b.begin(), b.end());
    return a;
  }

  // Begins `ctx` with `prefix`, forwards `suffix` with capture, seals and evicts.
  PagedKvSequence RunContext(int64_t ctx, const std::vector<int32_t>& prefix,
                             const std::vector<int32_t>& suffix) {
    PagedKvSequence seq(pool_.get());
    HiddenStateSink* sink = mgr_->BeginContext(ctx, prefix, &seq);
    EXPECT_EQ(seq.num_tokens(), static_cast<int64_t>(prefix.size()));
    model_->Forward(suffix, &seq, sink);
    engine_->SealContext(ctx);
    seq.Evict();
    return seq;
  }

  // Restores `ctx` through the engine. Under the lossless codec the restored KV must
  // match a fresh prefill of `full` bitwise, and so must the greedy decode after it.
  void ExpectRestoresLikeFreshPrefill(int64_t ctx, const std::vector<int32_t>& full,
                                      PagedKvSequence* seq) {
    PartitionScheme all_hidden;
    all_hidden.layers_hidden = cfg_.num_layers;
    ASSERT_TRUE(engine_->RestoreContext(ctx, all_hidden, {}, seq));
    PagedKvSequence ref(pool_.get());
    model_->Forward(full, &ref);
    ASSERT_EQ(seq->num_tokens(), ref.num_tokens());
    if (GetParam() == ChunkCodec::kFp32) {
      for (int64_t layer = 0; layer < cfg_.num_layers; ++layer) {
        Tensor ka, va, kb, vb;
        ref.ReadKv(layer, 0, ref.num_tokens(), &ka, &va);
        seq->ReadKv(layer, 0, seq->num_tokens(), &kb, &vb);
        EXPECT_TRUE(Tensor::BitwiseEqual(ka, kb)) << "ctx " << ctx << " K layer " << layer;
        EXPECT_TRUE(Tensor::BitwiseEqual(va, vb)) << "ctx " << ctx << " V layer " << layer;
      }
      EXPECT_EQ(model_->GreedyDecode(full.back(), 4, seq),
                model_->GreedyDecode(full.back(), 4, &ref));
    }
    seq->Evict();
  }

  ModelConfig cfg_;
  MemoryBackend mem_{1 << 20};
  DedupBackend dedup_{&mem_};
  ThreadPool flush_pool_{2};
  std::unique_ptr<ModelWeights> weights_;
  std::unique_ptr<Transformer> model_;
  std::unique_ptr<KvBlockPool> pool_;
  std::unique_ptr<FunctionalHCache> engine_;
  std::unique_ptr<SharedPrefixManager> mgr_;
};

TEST_P(SharedPrefixTest, SecondContextAdoptsPrefixAndRestoresBitExact) {
  const auto prefix = RandomTokens(19, 1);  // two full chunks + a partial one
  const auto suffix_a = RandomTokens(7, 2);
  const auto suffix_b = RandomTokens(9, 3);
  PagedKvSequence a = RunContext(1, prefix, suffix_a);
  EXPECT_EQ(mgr_->prefix_reuses(), 0);
  EXPECT_EQ(dedup_.Stats().dedup_hits, 0);

  PagedKvSequence b = RunContext(2, prefix, suffix_b);
  EXPECT_EQ(mgr_->prefix_reuses(), 1);
  // The recaptured full prefix chunks are byte-identical to the donor's, under every
  // codec: two per layer.
  EXPECT_EQ(dedup_.Stats().dedup_hits, 2 * cfg_.num_layers);

  ExpectRestoresLikeFreshPrefill(1, Concat(prefix, suffix_a), &a);
  ExpectRestoresLikeFreshPrefill(2, Concat(prefix, suffix_b), &b);
}

TEST_P(SharedPrefixTest, DroppingTheDonorLeavesSharersRestorable) {
  // Each context stores its own copy of the prefix, so no drop can strand another
  // context's restore; the store's refcounts keep the shared bytes.
  const auto prefix = RandomTokens(16, 4);
  const auto suffix = RandomTokens(5, 5);
  PagedKvSequence donor = RunContext(10, prefix, suffix);
  PagedKvSequence b = RunContext(11, prefix, RandomTokens(6, 6));
  const auto suffix_c = RandomTokens(3, 7);
  PagedKvSequence c = RunContext(12, prefix, suffix_c);
  EXPECT_EQ(mgr_->prefix_reuses(), 2);

  mgr_->DropContext(10);
  ExpectRestoresLikeFreshPrefill(12, Concat(prefix, suffix_c), &c);

  // A surviving sharer donates to the next context.
  const auto suffix_d = RandomTokens(4, 8);
  PagedKvSequence d = RunContext(13, prefix, suffix_d);
  EXPECT_EQ(mgr_->prefix_reuses(), 3);
  ExpectRestoresLikeFreshPrefill(13, Concat(prefix, suffix_d), &d);
}

TEST_P(SharedPrefixTest, PrefixesDifferingInOneTokenNeverShare) {
  const auto prefix_a = RandomTokens(12, 9);
  auto prefix_b = prefix_a;
  prefix_b.back() = (prefix_b.back() + 1) % static_cast<int32_t>(cfg_.vocab_size);
  const auto suffix = RandomTokens(5, 10);
  PagedKvSequence a = RunContext(20, prefix_a, suffix);
  PagedKvSequence b = RunContext(21, prefix_b, suffix);
  EXPECT_EQ(mgr_->prefix_reuses(), 0);
  ExpectRestoresLikeFreshPrefill(20, Concat(prefix_a, suffix), &a);
  ExpectRestoresLikeFreshPrefill(21, Concat(prefix_b, suffix), &b);
}

TEST_P(SharedPrefixTest, UnreadableDonorFallsBackToForward) {
  const auto prefix = RandomTokens(13, 11);
  PagedKvSequence donor = RunContext(30, prefix, RandomTokens(4, 12));
  ASSERT_TRUE(dedup_.DeleteChunk(ChunkKey{30, /*layer=*/1, /*chunk_index=*/1}));

  // The donor read fails before anything is captured; the forward pass captures
  // every prefix row once and the context restores normally.
  const auto suffix = RandomTokens(6, 13);
  PagedKvSequence seq = RunContext(31, prefix, suffix);
  EXPECT_EQ(mgr_->prefix_reuses(), 0);
  ExpectRestoresLikeFreshPrefill(31, Concat(prefix, suffix), &seq);

  // The broken donor is forgotten: the next context adopts from the healthy one.
  const auto suffix_next = RandomTokens(2, 14);
  PagedKvSequence next = RunContext(32, prefix, suffix_next);
  EXPECT_EQ(mgr_->prefix_reuses(), 1);
  ExpectRestoresLikeFreshPrefill(32, Concat(prefix, suffix_next), &next);
  mgr_->DropContext(30);
}

TEST_P(SharedPrefixTest, DroppingEveryContextFreesAllBytes) {
  const auto prefix = RandomTokens(24, 15);
  std::vector<PagedKvSequence> seqs;
  for (int64_t ctx = 40; ctx < 44; ++ctx) {
    seqs.push_back(RunContext(ctx, prefix, RandomTokens(5, static_cast<uint64_t>(ctx))));
  }
  EXPECT_EQ(mgr_->prefix_reuses(), 3);
  EXPECT_GT(dedup_.PhysicalBytes(), 0);
  for (int64_t ctx = 40; ctx < 44; ++ctx) {
    mgr_->DropContext(ctx);
  }
  EXPECT_EQ(dedup_.PhysicalBytes(), 0);
  EXPECT_EQ(dedup_.Stats().chunks_stored, 0);
  EXPECT_EQ(mem_.chunks_stored(), 0);
}

INSTANTIATE_TEST_SUITE_P(Codecs, SharedPrefixTest,
                         ::testing::Values(ChunkCodec::kFp32, ChunkCodec::kFp16,
                                           ChunkCodec::kInt8),
                         [](const ::testing::TestParamInfo<ChunkCodec>& info) {
                           return std::string(ChunkCodecName(info.param));
                         });

}  // namespace
}  // namespace hcache
