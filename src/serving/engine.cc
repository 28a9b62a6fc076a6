#include "src/serving/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "src/common/logging.h"

namespace hcache {

namespace {

// Latency of one synchronous small write on the DirectIO path (submission + flush);
// the two-stage saver exists to keep this off the critical path.
constexpr double kSyncWriteLatency = 120e-6;

}  // namespace

bool MethodNeedsRestorePhase(RestoreMethod m) {
  switch (m) {
    case RestoreMethod::kKvOffload:
    case RestoreMethod::kHCache:
    case RestoreMethod::kHCacheOnly:
    case RestoreMethod::kNaiveHybrid:
      return true;
    case RestoreMethod::kRecompute:  // restoration == prefilling the history
    case RestoreMethod::kIdeal:      // state assumed resident
      return false;
  }
  return false;
}

const char* ReplicaLifecycleName(ReplicaLifecycle s) {
  switch (s) {
    case ReplicaLifecycle::kUp:
      return "up";
    case ReplicaLifecycle::kDraining:
      return "draining";
    case ReplicaLifecycle::kDown:
      return "down";
  }
  return "?";
}

ServingEngine::ServingEngine(const Platform& platform, const ModelConfig& cfg,
                             const ServingOptions& options)
    : platform_(platform),
      cfg_(cfg),
      options_(options),
      gpu_(platform.gpu, platform.num_gpus),
      restorer_(platform, cfg, StorageLayout::kLayerChunked, kDefaultChunkTokens,
                options.state_codec) {
  if (options_.kv_capacity_tokens == 0) {
    options_.kv_capacity_tokens = DeriveKvCapacityTokens();
  }
}

int64_t ServingEngine::DeriveKvCapacityTokens() const {
  const double weights =
      ApproxParamCount(cfg_) * static_cast<double>(cfg_.state_dtype_bytes) / platform_.num_gpus;
  const double budget = 0.9 * platform_.gpu.hbm_bytes - weights;
  CHECK_GT(budget, 0.0) << cfg_.name << " does not fit on " << platform_.gpu.name;
  const double per_token =
      static_cast<double>(cfg_.KvBytesPerToken()) / platform_.num_gpus;
  return static_cast<int64_t>(budget / per_token);
}

double ServingEngine::RestoreTime(int64_t history_tokens, double* compute_busy) const {
  return RestoreTimeWith(options_.method, history_tokens, compute_busy);
}

double ServingEngine::RestoreTimeWith(RestoreMethod method, int64_t history_tokens,
                                      double* compute_busy) const {
  if (history_tokens <= 0 || method == RestoreMethod::kIdeal) {
    *compute_busy = 0;
    return 0;
  }
  const RestoreResult res = restorer_.Restore(method, history_tokens);
  *compute_busy = res.compute_busy;
  return res.total_time;
}

double ServingEngine::DirectSaveStall(int64_t batch_size, double iteration_compute) const {
  if (options_.save_mode != SaveMode::kDirect || batch_size <= 0) {
    return 0.0;
  }
  if (platform_.storage.kind == StorageBackendSpec::Kind::kDram) {
    return 0.0;  // direct stores to DRAM behave like the snapshot stage
  }
  const int ndev = std::max(1, platform_.ssds_per_gpu());
  // Each row write moves the codec-encoded hidden row.
  const double row =
      static_cast<double>(CodecRowBytes(options_.state_codec, cfg_.hidden_dim));
  const double per_io = kSyncWriteLatency + row / platform_.storage.ssd.EffectiveWriteBw(row);
  const double rounds = std::ceil(static_cast<double>(batch_size) / ndev);
  const double per_layer_write = rounds * per_io;
  const double per_layer_compute = iteration_compute / static_cast<double>(cfg_.num_layers);
  return std::max(0.0, per_layer_write - per_layer_compute) *
         static_cast<double>(cfg_.num_layers);
}

double ServingEngine::SteadyStateTbt(int64_t batch_size, int64_t history_per_seq) const {
  const double iter =
      gpu_.DecodeIterationTime(cfg_, batch_size, batch_size * history_per_seq);
  return iter + DirectSaveStall(batch_size, iter);
}

ServingReport ServingEngine::RunLongContextSerial(
    const std::vector<LongContextRequest>& requests) {
  ServingReport report;
  report.state_codec = options_.state_codec;
  double now = 0;
  for (const auto& req : requests) {
    double compute_busy = 0;
    const double restore = RestoreTime(req.context_tokens, &compute_busy);
    const double prefill = gpu_.PrefillTime(cfg_, req.input_tokens);
    const double ttft = kRequestOverheadS + restore + prefill;
    report.ttft.Add(ttft);
    now += ttft;
    for (int64_t i = 1; i < req.output_tokens; ++i) {
      const double iter = gpu_.DecodeIterationTime(
          cfg_, 1, req.context_tokens + req.input_tokens + i);
      report.tbt.Add(iter + DirectSaveStall(1, iter));
      now += iter;
    }
    ++report.rounds_completed;
    ++report.rounds_submitted;
  }
  report.makespan = now;
  return report;
}

ServingReport ServingEngine::RunWithGpuCache(
    const std::vector<LongContextRequest>& requests, const std::vector<int64_t>& context_ids,
    int64_t cache_capacity_tokens) {
  CHECK_EQ(requests.size(), context_ids.size());
  LruContextCache cache(cache_capacity_tokens);
  ServingReport report;
  report.state_codec = options_.state_codec;
  double now = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    const auto& req = requests[i];
    const bool hit = cache.Lookup(context_ids[i]);
    double restore = 0;
    if (!hit) {
      double compute_busy = 0;
      restore = RestoreTime(req.context_tokens, &compute_busy);
    }
    cache.Insert(context_ids[i], req.context_tokens);
    const double ttft =
        kRequestOverheadS + restore + gpu_.PrefillTime(cfg_, req.input_tokens);
    report.ttft.Add(ttft);
    now += ttft;
    ++report.rounds_completed;
    ++report.rounds_submitted;
  }
  report.makespan = now;
  report.cache_hit_ratio = cache.HitRatio();
  return report;
}

// ===== stepped simulation core =====

// Encoded bytes one history token's descriptor occupies under the configured codec.
// kStateBytesPerToken is the FP32-equivalent stand-in size; the codec's byte ratio
// is taken at the REAL per-token row width (hidden_dim elements), so the INT8 per-row
// scale amortizes as it does in the actual storage plane instead of being charged
// against the tiny stand-in row (which would make int8 look bigger than fp16).
int64_t ServingEngine::EncodedStateBytesPerToken() const {
  const double fp32_row = static_cast<double>(cfg_.hidden_dim) * sizeof(float);
  const double ratio =
      static_cast<double>(CodecRowBytes(options_.state_codec, cfg_.hidden_dim)) / fp32_row;
  const auto bytes = static_cast<int64_t>(
      static_cast<double>(kStateBytesPerToken) * ratio + 0.5);
  return std::max<int64_t>(1, bytes);
}

void ServingEngine::StartExternal() {
  now_ = 0;
  kv_free_ = options_.kv_capacity_tokens;
  queued_tokens_ = 0;
  queued_rounds_ = 0;
  pending_.clear();
  prefill_q_.clear();
  decode_.clear();
  restoring_ = Restoration{};
  lifecycle_ = ReplicaLifecycle::kUp;
  report_ = ServingReport{};
  report_.state_codec = options_.state_codec;

  // Context state is persisted through the configured backend as descriptor chunks
  // (kStateBytesPerToken per history token, context id = session id). Saving appends
  // from the first incomplete chunk (the two-stage saver's seal-and-rewrite pattern);
  // restoration streams every chunk back, which is what drives per-tier hit counts.
  StorageBackend* backend = options_.state_backend;
  if (backend != nullptr) {
    CHECK_LE(EncodedStateBytesPerToken(), backend->chunk_bytes())
        << "encoded state bytes per token exceed the backend's chunk capacity";
    chunk_capacity_tokens_ =
        std::max<int64_t>(1, backend->chunk_bytes() / EncodedStateBytesPerToken());
    state_buf_.assign(static_cast<size_t>(backend->chunk_bytes()), '\0');
  } else {
    chunk_capacity_tokens_ = 1;
    state_buf_.clear();
  }
}

void ServingEngine::SaveState(int64_t session, int64_t old_tokens, int64_t new_tokens) {
  StorageBackend* backend = options_.state_backend;
  if (backend == nullptr || new_tokens <= old_tokens) {
    return;
  }
  // The backend stores *encoded* chunks: the DRAM/SSD footprint (and the tiered
  // backend's eviction pressure) reflects the codec, not the FP32 logical size.
  const int64_t encoded_bpt = EncodedStateBytesPerToken();
  const int64_t first_chunk = old_tokens / chunk_capacity_tokens_;
  const int64_t last_chunk = (new_tokens - 1) / chunk_capacity_tokens_;
  for (int64_t c = first_chunk; c <= last_chunk; ++c) {
    const int64_t chunk_tokens =
        std::min(chunk_capacity_tokens_, new_tokens - c * chunk_capacity_tokens_);
    backend->WriteChunk(ChunkKey{session, 0, c}, state_buf_.data(),
                        chunk_tokens * encoded_bpt);
  }
  const int64_t appended = new_tokens - old_tokens;
  report_.state_logical_bytes += appended * kStateBytesPerToken;
  report_.state_encoded_bytes += appended * encoded_bpt;
}

bool ServingEngine::LoadState(int64_t session, int64_t tokens) {
  StorageBackend* backend = options_.state_backend;
  if (backend == nullptr || tokens <= 0) {
    return true;  // nothing to read back — restoration proceeds on the timing model
  }
  const int64_t num_chunks = (tokens + chunk_capacity_tokens_ - 1) / chunk_capacity_tokens_;
  // Batched restore: the session's chunks come up in bounded windows of one
  // submission each (the backend overlaps them — per-device pread fan-out, or one
  // cold round trip on a tiered store) instead of num_chunks serial round trips.
  constexpr int64_t kWindowChunks = 16;
  const int64_t chunk_bytes = backend->chunk_bytes();
  std::vector<char> scratch(
      static_cast<size_t>(std::min(num_chunks, kWindowChunks) * chunk_bytes));
  std::vector<ChunkReadRequest> reqs;
  for (int64_t c0 = 0; c0 < num_chunks; c0 += kWindowChunks) {
    const int64_t count = std::min(kWindowChunks, num_chunks - c0);
    reqs.assign(static_cast<size_t>(count), ChunkReadRequest{});
    for (int64_t i = 0; i < count; ++i) {
      reqs[static_cast<size_t>(i)] =
          ChunkReadRequest{ChunkKey{session, 0, c0 + i}, scratch.data() + i * chunk_bytes,
                           chunk_bytes, /*result=*/-1};
    }
    backend->ReadChunks(reqs);
    for (int64_t i = 0; i < count; ++i) {
      const int64_t got = reqs[static_cast<size_t>(i)].result;
      if (got <= 0) {
        HCACHE_LOG_ERROR << "session state "
                         << (got == kChunkCorrupt ? "corrupt" : "missing")
                         << ": session=" << session << " chunk=" << (c0 + i)
                         << " — falling back to recompute";
        return false;
      }
    }
  }
  return true;
}

void ServingEngine::Submit(const RoundTask& r) {
  CHECK(lifecycle_ == ReplicaLifecycle::kUp)
      << "Submit on a " << ReplicaLifecycleName(lifecycle_)
      << " replica — the driver must route from the kUp candidate set";
  pending_.push_back(r);
  ++report_.rounds_submitted;
  ++queued_rounds_;
  queued_tokens_ += r.history + r.input + r.output;
}

void ServingEngine::FinishRound(Active& a, std::vector<RoundCompletion>* done) {
  kv_free_ += a.kv_reserved;
  ++report_.rounds_completed;
  --queued_rounds_;
  queued_tokens_ -= a.r.history + a.r.input + a.r.output;
  if (!a.r.last_round) {
    SaveState(a.r.session, a.r.history, a.r.history + a.r.input + a.r.output);
  } else if (options_.state_backend != nullptr) {
    options_.state_backend->DeleteContext(a.r.session);  // session over: drop its state
  }
  if (done != nullptr) {
    done->push_back(RoundCompletion{a.r.session, a.r.input + a.r.output, now_});
  }
}

double ServingEngine::NextEventTime() const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  if (lifecycle_ == ReplicaLifecycle::kDown || now_ >= options_.max_sim_seconds) {
    return kInf;
  }
  if (!decode_.empty() || !prefill_q_.empty()) {
    return now_;
  }
  if (restoring_.active && now_ >= restoring_.end) {
    return now_;  // completion ready to be harvested
  }
  if (!pending_.empty()) {
    const RoundTask& r = pending_.front();
    const int64_t needed = r.history + r.input;
    const bool needs_restore = r.history > 0 && MethodNeedsRestorePhase(options_.method);
    const bool blocked_on_channel = needs_restore && restoring_.active;
    const bool blocked_on_kv = needed <= options_.kv_capacity_tokens && needed > kv_free_;
    if (!blocked_on_channel && !blocked_on_kv) {
      // Dispatchable (or droppable) as soon as the round becomes visible.
      return std::max(now_, r.arrival);
    }
  }
  if (restoring_.active) {
    return restoring_.end;
  }
  return pending_.empty() ? kInf : now_;
}

void ServingEngine::Advance(double until, std::vector<RoundCompletion>* done) {
  if (lifecycle_ == ReplicaLifecycle::kDown) {
    return;  // not serving: the clock resumes via ResumeAt() on scale-up
  }
  for (;;) {
    if (now_ >= options_.max_sim_seconds) {
      return;
    }

    // Complete an in-flight restoration.
    if (restoring_.active && now_ >= restoring_.end) {
      Active a;
      a.r = restoring_.r;
      a.prefill_remaining = restoring_.r.input;
      a.kv_reserved = restoring_.kv_reserved;
      prefill_q_.push_back(a);
      restoring_.active = false;
    }

    // Dispatch pending rounds FCFS against the KV budget. PagedAttention allocates
    // blocks on demand, so admission charges the known footprint (history + prompt);
    // decode growth is charged as tokens generate (approximated at completion).
    while (!pending_.empty()) {
      RoundTask& r = pending_.front();
      if (r.arrival > now_) {
        // Submitted ahead of this replica's clock (the driver runs a global clock the
        // local one may trail while idle): not visible yet. FCFS order is preserved —
        // later pending rounds carry later arrivals.
        break;
      }
      const int64_t needed = r.history + r.input;
      if (needed > options_.kv_capacity_tokens) {
        // Never fits: drop rather than deadlock (the trace clamps at 16K so this only
        // guards misconfiguration). The session is over — surface the drop so the
        // driver stops scheduling it, and release its stored state: nothing will ever
        // restore it, and an orphaned context would squat in the shared tier skewing
        // fleet-wide eviction pressure for the rest of the run.
        --queued_rounds_;
        queued_tokens_ -= r.history + r.input + r.output;
        if (options_.state_backend != nullptr && r.history > 0) {
          options_.state_backend->DeleteContext(r.session);
        }
        if (done != nullptr) {
          done->push_back(RoundCompletion{r.session, 0, now_, /*dropped=*/true});
        }
        pending_.pop_front();
        continue;
      }
      if (needed > kv_free_) {
        break;
      }
      const bool needs_restore = r.history > 0 && MethodNeedsRestorePhase(options_.method);
      if (needs_restore) {
        if (restoring_.active) {
          break;  // one restoration channel; keep FCFS order
        }
        // Verified readback: if the stored state is gone or fails its CRC, the round
        // still completes — it just pays recompute-from-tokens restoration instead of
        // trusting bytes that would decode to a wrong KV cache.
        RestoreMethod method = options_.method;
        if (!LoadState(r.session, r.history)) {
          method = RestoreMethod::kRecompute;
          ++report_.restore_fallbacks;
        }
        double compute_busy = 0;
        const double t = RestoreTimeWith(method, r.history, &compute_busy);
        restoring_.r = r;
        restoring_.start = now_;
        restoring_.end = now_ + t;
        restoring_.compute_total = compute_busy;
        restoring_.charged = 0;
        restoring_.kv_reserved = needed;
        restoring_.active = true;
      } else {
        Active a;
        a.r = r;
        a.kv_reserved = needed;
        a.prefill_remaining =
            options_.method == RestoreMethod::kRecompute ? r.history + r.input : r.input;
        prefill_q_.push_back(a);
      }
      kv_free_ -= needed;
      pending_.pop_front();
    }

    // Nothing runnable? Jump the clock to the next local event within the horizon,
    // or park at `until` and hand control back to the driver.
    if (decode_.empty() && prefill_q_.empty()) {
      double next = std::numeric_limits<double>::infinity();
      if (restoring_.active) {
        next = std::min(next, restoring_.end);
      }
      if (!pending_.empty() && pending_.front().arrival > now_) {
        next = std::min(next, pending_.front().arrival);
      }
      if (next <= until) {
        now_ = std::max(now_, next);
        continue;
      }
      now_ = std::max(now_, until);
      return;
    }

    // The replica has runnable work: run fused iterations until the local clock passes
    // the horizon (iterations are indivisible, so the clock may overshoot by one).
    if (now_ > until) {
      return;
    }

    // --- one fused iteration (SplitFuse) ---
    int64_t total_ctx = 0;
    for (const Active& d : decode_) {
      total_ctx += d.r.history + d.r.input + d.decoded;
    }
    double iter = decode_.empty() ? 0.0
                                  : gpu_.DecodeIterationTime(
                                        cfg_, static_cast<int64_t>(decode_.size()), total_ctx);
    int64_t chunk = 0;
    const bool can_prefill =
        !prefill_q_.empty() && static_cast<int64_t>(decode_.size()) < kMaxBatchSize;
    if (can_prefill) {
      chunk = std::min(options_.prefill_chunk_tokens, prefill_q_.front().prefill_remaining);
      iter += gpu_.PrefillTime(cfg_, chunk);
    }
    iter += DirectSaveStall(static_cast<int64_t>(decode_.size()), iter);
    if (restoring_.active) {
      // Restoration compute steals GPU time from overlapping iterations.
      const double window = std::max(restoring_.end - restoring_.start, 1e-9);
      double share = restoring_.compute_total * (iter / window);
      share = std::min(share, restoring_.compute_total - restoring_.charged);
      restoring_.charged += share;
      iter += std::max(0.0, share);
    }
    if (iter <= 0) {
      iter = 1e-6;
    }
    now_ += iter;

    // Decode progress: one token per sequence per iteration.
    for (auto it = decode_.begin(); it != decode_.end();) {
      report_.tbt.Add(iter);
      ++it->decoded;
      if (it->decoded >= it->r.output) {
        FinishRound(*it, done);
        it = decode_.erase(it);
      } else {
        ++it;
      }
    }

    // Prefill progress on the queue head.
    if (chunk > 0) {
      Active& head = prefill_q_.front();
      head.prefill_remaining -= chunk;
      if (head.prefill_remaining == 0) {
        // Prefill emits the first token.
        report_.ttft.Add(now_ - head.r.arrival + kRequestOverheadS);
        head.decoded = 1;
        if (head.decoded >= head.r.output) {
          FinishRound(head, done);
        } else {
          decode_.push_back(head);
        }
        prefill_q_.pop_front();
      }
    }
  }
}

ReplicaLoad ServingEngine::Load() const {
  ReplicaLoad l;
  l.queued_rounds = queued_rounds_;
  l.queued_tokens = queued_tokens_;
  l.kv_free_tokens = kv_free_;
  l.kv_capacity_tokens = options_.kv_capacity_tokens;
  return l;
}

ServingReport ServingEngine::FinishExternal() {
  report_.makespan = now_;
  return report_;
}

bool ServingEngine::Idle() const {
  return pending_.empty() && prefill_q_.empty() && decode_.empty() && !restoring_.active;
}

void ServingEngine::BeginDrain() {
  CHECK(lifecycle_ == ReplicaLifecycle::kUp)
      << "BeginDrain on a " << ReplicaLifecycleName(lifecycle_) << " replica";
  lifecycle_ = ReplicaLifecycle::kDraining;
}

void ServingEngine::MarkDown() {
  CHECK(Idle()) << "MarkDown with in-flight work — drain must settle first";
  lifecycle_ = ReplicaLifecycle::kDown;
}

std::vector<RoundTask> ServingEngine::Kill() {
  std::vector<RoundTask> orphans;
  orphans.reserve(pending_.size() + prefill_q_.size() + decode_.size() +
                  (restoring_.active ? 1 : 0));
  for (const RoundTask& r : pending_) {
    orphans.push_back(r);
  }
  if (restoring_.active) {
    orphans.push_back(restoring_.r);
  }
  for (const Active& a : prefill_q_) {
    orphans.push_back(a.r);
  }
  for (const Active& a : decode_) {
    orphans.push_back(a.r);
  }
  // Fail-stop: none of these rounds delivered a token, so abandoning them is safe —
  // the session's last COMPLETED round already persisted its state through the shared
  // tier (FinishRound), which is exactly the HCache thesis: hidden-state caches
  // outlive GPU residency, so a survivor restores instead of recomputing.
  report_.rounds_abandoned += static_cast<int64_t>(orphans.size());
  pending_.clear();
  prefill_q_.clear();
  decode_.clear();
  restoring_ = Restoration{};
  kv_free_ = options_.kv_capacity_tokens;
  queued_tokens_ = 0;
  queued_rounds_ = 0;
  lifecycle_ = ReplicaLifecycle::kDown;
  return orphans;
}

void ServingEngine::ResumeAt(double now) {
  CHECK(lifecycle_ == ReplicaLifecycle::kDown)
      << "ResumeAt on a " << ReplicaLifecycleName(lifecycle_) << " replica";
  CHECK(Idle());
  lifecycle_ = ReplicaLifecycle::kUp;
  now_ = std::max(now_, now);
}

}  // namespace hcache
