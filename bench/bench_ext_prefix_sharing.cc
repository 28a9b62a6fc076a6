// Extension: prefix sharing over the content-addressed store.
//
// Many contexts start with the same system prompt or retrieved document. Their prefix
// hidden states are identical (causal attention), so SharedPrefixManager adopts a live
// context's stored prefix rows instead of forwarding the prefix again, and the
// DedupBackend under the engine stores the recaptured, byte-identical prefix chunks
// once. This bench measures, on a real (tiny) model with file-backed storage, the
// physical bytes stored as the number of users of one prefix grows, and verifies every
// context restored through FunctionalHCache decodes identically to a fresh prefill.
//
// Exits 1 unless every user is decode-exact, every user after the first adopted the
// prefix, and the physical bytes are exactly one prefix copy plus one suffix per user.
#include <cstdio>
#include <filesystem>

#include "bench/bench_util.h"
#include "src/common/rng.h"
#include "src/core/shared_prefix.h"
#include "src/storage/dedup_backend.h"
#include "src/storage/file_backend.h"

using namespace hcache;

int main() {
  PrintTitle("Extension: prefix sharing (functional, dedup over file)");
  const ModelConfig cfg = ModelConfig::TinyLlama(4, 64, 4);
  const ModelWeights weights = ModelWeights::Random(cfg, 21);
  Transformer model(&weights);
  KvBlockPool pool(KvPoolConfig::ForModel(cfg, 512, 8));
  ThreadPool flush_pool(2);

  const auto dir = std::filesystem::temp_directory_path() / "hcache_prefix_bench";
  std::filesystem::remove_all(dir);

  Rng rng(5);
  const int64_t chunk_tokens = 8;
  const int64_t prefix_len = 48;  // shared system prompt
  const int64_t suffix_len = 16;  // per-user question; both lengths chunk-aligned
  std::vector<int32_t> prefix(static_cast<size_t>(prefix_len));
  for (auto& t : prefix) {
    t = static_cast<int32_t>(rng.NextBounded(static_cast<uint64_t>(cfg.vocab_size)));
  }
  PartitionScheme all_hidden;
  all_hidden.layers_hidden = cfg.num_layers;
  const int64_t chunk_bytes = EncodedChunkBytes(ChunkCodec::kFp32, chunk_tokens, cfg.hidden_dim);

  bool ok = true;
  std::printf("  %7s | %14s %14s | %8s | %6s | %s\n", "users", "physical bytes",
              "naive bytes", "saving", "reuses", "verified");
  for (const int num_users : {1, 4, 16, 64}) {
    FileBackend file({(dir / ("d" + std::to_string(num_users))).string()}, 1 << 20);
    DedupBackend store(&file);
    FunctionalHCache engine(&model, &store, &flush_pool, chunk_tokens);
    SharedPrefixManager mgr(&model, &engine);
    Rng user_rng(100 + num_users);

    int verified = 0;
    for (int u = 0; u < num_users; ++u) {
      std::vector<int32_t> suffix(static_cast<size_t>(suffix_len));
      for (auto& t : suffix) {
        t = static_cast<int32_t>(user_rng.NextBounded(static_cast<uint64_t>(cfg.vocab_size)));
      }
      std::vector<int32_t> full = prefix;
      full.insert(full.end(), suffix.begin(), suffix.end());

      PagedKvSequence seq(&pool);
      HiddenStateSink* sink = mgr.BeginContext(u, prefix, &seq);
      model.Forward(suffix, &seq, sink);
      engine.SealContext(u);
      seq.Evict();
      CHECK(engine.RestoreContext(u, all_hidden, {}, &seq));
      PagedKvSequence ref(&pool);
      model.Forward(full, &ref);
      verified += model.GreedyDecode(full.back(), 4, &seq) ==
                  model.GreedyDecode(full.back(), 4, &ref);
    }

    const int64_t physical_bytes = store.PhysicalBytes();
    const int64_t expected_bytes =
        (prefix_len / chunk_tokens + num_users * (suffix_len / chunk_tokens)) *
        cfg.num_layers * chunk_bytes;
    const int64_t naive_bytes =
        static_cast<int64_t>(num_users) * cfg.num_layers * (prefix_len + suffix_len) *
        cfg.hidden_dim * static_cast<int64_t>(sizeof(float));
    const bool row_ok = verified == num_users && mgr.prefix_reuses() == num_users - 1 &&
                        physical_bytes == expected_bytes;
    ok = ok && row_ok;
    std::printf("  %7d | %14lld %14lld | %7.2fx | %6lld | %d/%d decode-exact%s\n", num_users,
                static_cast<long long>(physical_bytes), static_cast<long long>(naive_bytes),
                static_cast<double>(naive_bytes) / static_cast<double>(physical_bytes),
                static_cast<long long>(mgr.prefix_reuses()), verified, num_users,
                row_ok ? "" : "  FAIL");
  }
  const double asymptote = static_cast<double>(prefix_len + suffix_len) / suffix_len;
  std::printf("\n  asymptotic saving = (prefix+suffix)/suffix = %.1fx for this workload\n",
              asymptote);
  PrintNote("related GPU-side prefix reuse (PromptCache/SGLang) covers the hit path;");
  PrintNote("this shares the hidden states HCache stores on the miss path.");
  std::filesystem::remove_all(dir);
  return ok ? 0 : 1;
}
