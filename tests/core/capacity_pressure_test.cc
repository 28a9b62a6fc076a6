// Integration test for the paper's motivating scenario (§2.4): more conversation
// sessions than the GPU KV pool can hold. A toy scheduler round-robins sessions,
// evicting the least-recently-used session's KV under pressure and restoring from
// hidden states when a session's turn comes back. Every session's outputs must match
// a reference conversation served with unlimited memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <list>
#include <vector>

#include "src/core/functional_engine.h"
#include "src/common/rng.h"
#include "src/storage/file_backend.h"
#include "tests/test_dir.h"

namespace hcache {
namespace {

class CapacityPressureTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cfg_ = ModelConfig::TinyLlama(3, 32, 2);
    store_ = std::make_unique<FileBackend>(
        std::vector<std::string>{(base_ / "d0").string(), (base_ / "d1").string()},
        1 << 20);
    weights_ = std::make_unique<ModelWeights>(ModelWeights::Random(cfg_, 3));
    model_ = std::make_unique<Transformer>(weights_.get());
    engine_ = std::make_unique<FunctionalHCache>(model_.get(), store_.get(), nullptr,
                                                 /*chunk_tokens=*/8);
  }
  void TearDown() override {
    engine_.reset();
  }

  ModelConfig cfg_;
  TestDir base_{"pressure"};
  std::unique_ptr<FileBackend> store_;
  std::unique_ptr<ModelWeights> weights_;
  std::unique_ptr<Transformer> model_;
  std::unique_ptr<FunctionalHCache> engine_;
};

TEST_F(CapacityPressureTest, FourSessionsSqueezeThroughATinyPool) {
  constexpr int kSessions = 4;
  constexpr int kRounds = 3;
  constexpr int64_t kPromptLen = 12;
  constexpr int64_t kDecodeLen = 6;

  // Pool sized for roughly two sessions' worth of state: with 3 rounds of 18 tokens
  // each, a session peaks at ~54 tokens = 7 blocks; give the pool 16 blocks.
  KvBlockPool pressured_pool(KvPoolConfig::ForModel(cfg_, 16, 8));
  // Reference pool: effectively unlimited.
  KvBlockPool big_pool(KvPoolConfig::ForModel(cfg_, 256, 8));

  Rng rng(77);
  std::vector<std::vector<std::vector<int32_t>>> prompts(kSessions);
  for (auto& session : prompts) {
    session.resize(kRounds);
    for (auto& p : session) {
      p.resize(kPromptLen);
      for (auto& t : p) {
        t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(cfg_.vocab_size)));
      }
    }
  }

  // Reference outputs with unlimited memory, no eviction.
  std::vector<std::vector<std::vector<int32_t>>> want(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    PagedKvSequence seq(&big_pool);
    for (int r = 0; r < kRounds; ++r) {
      model_->Forward(prompts[s][r], &seq);
      want[s].push_back(model_->GreedyDecode(prompts[s][r].back(), kDecodeLen, &seq));
    }
  }

  // Pressured serving: round-robin rounds across sessions; evict LRU on demand.
  PartitionScheme all_hidden;
  all_hidden.layers_hidden = cfg_.num_layers;
  all_hidden.complement = ComplementMethod::kNone;

  std::vector<std::unique_ptr<PagedKvSequence>> seqs;
  for (int s = 0; s < kSessions; ++s) {
    seqs.push_back(std::make_unique<PagedKvSequence>(&pressured_pool));
  }
  std::list<int> lru;  // front = most recently served

  auto evict_one = [&](int current) {
    for (auto it = lru.rbegin(); it != lru.rend(); ++it) {
      if (*it != current && seqs[static_cast<size_t>(*it)]->has_kv() &&
          seqs[static_cast<size_t>(*it)]->num_blocks_held() > 0) {
        seqs[static_cast<size_t>(*it)]->Evict();
        return true;
      }
    }
    return false;
  };

  int evictions = 0;
  int restorations = 0;
  std::vector<std::vector<std::vector<int32_t>>> got(kSessions);
  for (int r = 0; r < kRounds; ++r) {
    for (int s = 0; s < kSessions; ++s) {
      PagedKvSequence& seq = *seqs[static_cast<size_t>(s)];
      // Restore if this session was evicted; evict LRU peers until it fits.
      if (!seq.has_kv() && seq.num_tokens() > 0) {
        while (!engine_->RestoreContext(s, all_hidden, {}, &seq)) {
          ASSERT_TRUE(evict_one(s)) << "pool too small even for one session";
          ++evictions;
        }
        ++restorations;
      }
      // Serve the round, evicting peers on allocation pressure.
      for (;;) {
        const int64_t needed = seq.num_tokens() + kPromptLen + kDecodeLen;
        if (seq.EnsureCapacity(needed)) {
          break;
        }
        ASSERT_TRUE(evict_one(s)) << "cannot free capacity for session " << s;
        ++evictions;
      }
      HiddenStateSink* sink = engine_->BeginCapture(s);
      model_->Forward(prompts[s][r], &seq, sink);
      got[s].push_back(model_->GreedyDecode(prompts[s][r].back(), kDecodeLen, &seq, sink));
      engine_->SealContext(s);
      lru.remove(s);
      lru.push_front(s);
    }
  }

  // The pool really was under pressure, and correctness survived it.
  EXPECT_GT(evictions, 0);
  EXPECT_GT(restorations, 0);
  for (int s = 0; s < kSessions; ++s) {
    EXPECT_EQ(got[s], want[s]) << "session " << s;
  }
}

}  // namespace
}  // namespace hcache
