// Extension: token-level prefix reuse on top of FunctionalHCache.
//
// Deployments put the same system prompt or retrieved document in front of many
// contexts. Under causal attention a token's hidden states depend only on the tokens
// before it, so every context that begins with the same tokens captures the same
// prefix rows. SharedPrefixManager is the token index that skips the forward pass for
// such a prefix:
//
//   * `BeginContext(ctx, prefix, seq)` fills `seq` with the prefix's KV and returns
//     the engine's capture sink for `ctx`. When a live context already began with
//     exactly these tokens (the donor), the donor's stored prefix rows are read back,
//     captured under `ctx`, and projected into K/V — no forward pass. Otherwise, or
//     when a donor read fails, the prefix is forwarded once with capture.
//   * Every context stores its full history under its own id, so seal, restore and
//     drop are the engine's own calls and no context ever depends on another's chunks.
//
// Byte sharing is the store's job: point the engine at a DedupBackend and the
// recaptured prefix chunks, byte-identical to the donor's, are stored once there, with
// refcounts owned by the store.
//
// Related systems: PromptCache / SGLang share *KV* on the GPU hit path; this shares
// *hidden states* on HCache's miss path.
#ifndef HCACHE_SRC_CORE_SHARED_PREFIX_H_
#define HCACHE_SRC_CORE_SHARED_PREFIX_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/core/functional_engine.h"
#include "src/model/kv_cache.h"
#include "src/model/transformer.h"

namespace hcache {

class SharedPrefixManager {
 public:
  // `model` and `engine` must outlive the manager.
  SharedPrefixManager(Transformer* model, FunctionalHCache* engine);

  // Starts context `ctx` with `prefix`. `seq` must be fresh; on return it holds the
  // prefix's KV. The returned sink is the engine's BeginCapture(ctx) sink: feed it the
  // rest of the context's history, then seal and restore through the engine.
  HiddenStateSink* BeginContext(int64_t ctx, const std::vector<int32_t>& prefix,
                                PagedKvSequence* seq);

  // Removes `ctx` from the index and drops its stored state in the engine. Another
  // live context that began with the same prefix takes over as donor.
  void DropContext(int64_t ctx);

  // BeginContext calls that adopted a donor's prefix instead of forwarding it.
  int64_t prefix_reuses() const { return prefix_reuses_; }

 private:
  // Live contexts keyed by the exact prefix tokens they began with; the front one
  // donates. Keying by the tokens themselves means distinct prompts never share.
  using Index = std::map<std::vector<int32_t>, std::vector<int64_t>>;

  // Captures `donor`'s first `plen` hidden rows under the new context and writes their
  // K/V into `seq`. Reads every layer before capturing any, so a failed read leaves
  // nothing captured and the forward fallback captures each row exactly once.
  bool AdoptPrefix(int64_t donor, int64_t plen, HiddenStateSink* sink,
                   PagedKvSequence* seq);

  Transformer* model_;
  FunctionalHCache* engine_;
  Index sharers_;
  std::map<int64_t, Index::iterator> contexts_;  // context -> its index entry
  int64_t prefix_reuses_ = 0;
};

}  // namespace hcache

#endif  // HCACHE_SRC_CORE_SHARED_PREFIX_H_
