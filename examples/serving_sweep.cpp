// Serving sweep: run the continuous-batching serving simulator from the command line.
//
// Reproduces any point of the paper's Fig 9 grid (or configurations the paper never
// measured) without writing code:
//
//   ./build/serving_sweep --model=7b --method=hcache --load=0.2
//       --sessions=200 --interval=30 --ssds=4 --backend=tiered --dram-mb=1 --codec=int8
//
// Cluster mode multiplexes N replicas over ONE shared backend behind a session
// router (the load is the fleet-wide offered load):
//
//   ./build/serving_sweep --replicas=4 --router=least --backend=tiered --load=2.0
//
// Elastic mode layers the dynamic fleet on top of cluster mode: `--autoscale` turns
// on the target-utilization controller (optionally `--min-replicas`/`--target-tokens`),
// `--diurnal[=amplitude]` swaps the stationary Poisson arrivals for a sinusoidal day
// (`--diurnal-period` seconds per cycle), and `--kill-replica-at=SEC` fail-stops a
// replica mid-run so its sessions migrate and restore on the survivors:
//
//   ./build/serving_sweep --replicas=4 --autoscale --diurnal=0.8 --diurnal-period=900
//   ./build/serving_sweep --replicas=3 --router=sticky --kill-replica-at=30
//
// Prints TTFT/TBT distributions, completed-round throughput, the restoration
// schedule in effect, and — when a storage backend is selected — what the storage
// tier saw (reads split across DRAM/cold, evictions, write-back volume). Cluster
// runs additionally report per-replica skew and cross-replica restore counts.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "src/core/restorer.h"
#include "src/serving/cluster.h"
#include "src/serving/engine.h"
#include "src/storage/file_backend.h"
#include "src/storage/memory_backend.h"
#include "src/storage/tiered_backend.h"

using namespace hcache;

namespace {

std::string ArgValue(int argc, char** argv, const char* key, const char* def) {
  const size_t klen = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, klen) == 0 && argv[i][klen] == '=') {
      return argv[i] + klen + 1;
    }
  }
  return def;
}

// True when `key` appears bare (`--autoscale`) or with a value (`--diurnal=0.8`).
bool HasFlag(int argc, char** argv, const char* key) {
  const size_t klen = std::strlen(key);
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], key, klen) == 0 &&
        (argv[i][klen] == '\0' || argv[i][klen] == '=')) {
      return true;
    }
  }
  return false;
}

RestoreMethod ParseMethod(const std::string& m) {
  if (m == "recompute") {
    return RestoreMethod::kRecompute;
  }
  if (m == "kvoffload") {
    return RestoreMethod::kKvOffload;
  }
  if (m == "ideal") {
    return RestoreMethod::kIdeal;
  }
  if (m == "hcache-o") {
    return RestoreMethod::kHCacheOnly;
  }
  return RestoreMethod::kHCache;
}

void PrintSummary(const ServingReport& rep) {
  std::printf("rounds   : %lld submitted, %lld completed in %.1fs  (%.3f rounds/s)\n",
              static_cast<long long>(rep.rounds_submitted),
              static_cast<long long>(rep.rounds_completed), rep.makespan,
              rep.RoundsPerSecond());
  std::printf("TTFT     : %s\n", rep.ttft.Summary(" s").c_str());
  std::printf("TBT      : %s\n", rep.tbt.Summary(" s").c_str());
}

RouterPolicy ParseRouter(const std::string& r) {
  if (r == "rr" || r == "round-robin") {
    return RouterPolicy::kRoundRobin;
  }
  if (r == "p2c" || r == "power-of-two") {
    return RouterPolicy::kPowerOfTwo;
  }
  if (r == "sticky" || r == "sticky-spill") {
    return RouterPolicy::kStickyWithSpill;
  }
  return RouterPolicy::kLeastLoadedTokens;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string model_name = ArgValue(argc, argv, "--model", "7b");
  const std::string method_name = ArgValue(argc, argv, "--method", "hcache");
  const double load = std::stod(ArgValue(argc, argv, "--load", "0.2"));
  const int64_t sessions = std::stoll(ArgValue(argc, argv, "--sessions", "150"));
  const double interval = std::stod(ArgValue(argc, argv, "--interval", "30"));
  const int ssds = std::stoi(ArgValue(argc, argv, "--ssds", "4"));
  const uint64_t seed = std::stoull(ArgValue(argc, argv, "--seed", "97"));
  const std::string backend_name = ArgValue(argc, argv, "--backend", "none");
  const int64_t dram_mb = std::stoll(ArgValue(argc, argv, "--dram-mb", "4"));
  const std::string codec_name = ArgValue(argc, argv, "--codec", "fp16");
  const int replicas = std::stoi(ArgValue(argc, argv, "--replicas", "1"));
  const RouterPolicy router = ParseRouter(ArgValue(argc, argv, "--router", "least"));
  const bool autoscale = HasFlag(argc, argv, "--autoscale");
  const int min_replicas = std::stoi(ArgValue(argc, argv, "--min-replicas", "1"));
  const double target_tokens =
      std::stod(ArgValue(argc, argv, "--target-tokens", "3000"));
  const bool diurnal = HasFlag(argc, argv, "--diurnal");
  const double diurnal_amplitude =
      std::stod(ArgValue(argc, argv, "--diurnal", "0.6"));
  const double diurnal_period =
      std::stod(ArgValue(argc, argv, "--diurnal-period", "900"));
  const double kill_at = std::stod(ArgValue(argc, argv, "--kill-replica-at", "-1"));

  const ModelConfig cfg = model_name == "30b"   ? ModelConfig::Opt30B()
                          : model_name == "13b" ? ModelConfig::Llama2_13B()
                                                : ModelConfig::Llama2_7B();
  const Platform platform = Platform::DefaultTestbed(model_name == "30b" ? 4 : 1, ssds);

  ServingOptions o;
  o.method = ParseMethod(method_name);
  o.state_codec = codec_name == "fp32"   ? ChunkCodec::kFp32
                  : codec_name == "int8" ? ChunkCodec::kInt8
                                         : ChunkCodec::kFp16;
  if (model_name == "13b") {
    o.max_history_tokens = 8192;  // the 13B pool holds ~15K tokens; cap the whales
  }

  // Optional storage backend the run registers context state with.
  constexpr int64_t kChunkBytes = 64 * 1024;
  const auto store_dir = std::filesystem::temp_directory_path() /
                         ("hcache_sweep_" + std::to_string(::getpid()));
  std::unique_ptr<StorageBackend> cold_tier;
  std::unique_ptr<StorageBackend> backend;
  auto make_file = [&] {
    return std::make_unique<FileBackend>(
        std::vector<std::string>{(store_dir / "d0").string(), (store_dir / "d1").string()},
        kChunkBytes);
  };
  if (backend_name == "file") {
    backend = make_file();
  } else if (backend_name == "memory") {
    backend = std::make_unique<MemoryBackend>(kChunkBytes);
  } else if (backend_name == "tiered") {
    cold_tier = make_file();
    backend = std::make_unique<TieredBackend>(cold_tier.get(), dram_mb << 20);
  }
  o.state_backend = backend.get();

  std::printf("model    : %s on %s%s\n", cfg.name.c_str(), platform.Describe().c_str(),
              replicas > 1 ? " (per replica)" : "");
  std::printf("method   : %s (hidden-state codec %s)\n", RestoreMethodName(o.method),
              ChunkCodecName(o.state_codec));
  std::printf("workload : %lld sessions, Poisson %.3f sessions/s, %.0fs round interval\n",
              static_cast<long long>(sessions), load, interval);

  if (o.method == RestoreMethod::kHCache) {
    Restorer r(platform, cfg, kDefaultChunkTokens, o.state_codec);
    std::printf("restoration schedule @2.5K history: %s\n\n",
                r.Schedule(2500).ToString().c_str());
  }

  ServingReport rep;
  if (replicas > 1) {
    // Cluster mode: N replicas behind a session router, one shared backend. Without
    // an explicit backend the fleet still needs one to move state across replicas.
    if (backend == nullptr) {
      backend = std::make_unique<MemoryBackend>(kChunkBytes);
    }
    ClusterOptions co;
    co.num_replicas = replicas;
    co.router = router;
    co.serving = o;
    if (autoscale) {
      co.initial_replicas = min_replicas;
      co.autoscaler.policy = AutoscalePolicy::kTargetUtilization;
      co.autoscaler.min_replicas = min_replicas;
      co.autoscaler.target_queued_tokens = target_tokens;
    }
    if (diurnal) {
      co.arrivals.kind = ArrivalSpec::Kind::kDiurnal;
      co.arrivals.diurnal.amplitude = diurnal_amplitude;
      co.arrivals.diurnal.period_s = diurnal_period;
    }
    if (kill_at >= 0) {
      co.events.push_back(
          FleetEvent{kill_at, FleetEvent::Kind::kKill, /*replica=*/-1});
    }
    ClusterEngine cluster(platform, cfg, co, backend.get());
    std::printf("cluster  : %d replicas behind %s routing, shared %s backend\n",
                replicas, RouterPolicyName(router), backend->Name().c_str());
    if (autoscale) {
      std::printf("elastic  : autoscaled %d..%d replicas, target %.0f queued "
                  "tokens/replica\n",
                  min_replicas, replicas, target_tokens);
    }
    if (diurnal) {
      std::printf("arrivals : diurnal sinusoid, amplitude %.2f, period %.0fs\n",
                  diurnal_amplitude, diurnal_period);
    }
    if (kill_at >= 0) {
      std::printf("fault    : fail-stop one replica at t=%.0fs\n", kill_at);
    }
    std::printf("KV pool  : %lld tokens per replica\n\n",
                static_cast<long long>(cluster.replica(0).DeriveKvCapacityTokens()));
    const ClusterReport crep = cluster.RunConversations(load, sessions, interval, seed);
    rep = crep.aggregate;
    PrintSummary(rep);
    std::printf("fleet    : round skew %.3f, %lld cross-replica restores, "
                "%lld affinity restores\n",
                crep.ReplicaRoundSkew(),
                static_cast<long long>(crep.cross_replica_restores),
                static_cast<long long>(crep.affinity_restores));
    if (autoscale || kill_at >= 0 || !co.events.empty()) {
      std::printf("elastic  : %d..%d replicas up, %lld scale-ups, %lld scale-downs, "
                  "%lld kills\n",
                  crep.min_replicas_up, crep.peak_replicas_up,
                  static_cast<long long>(crep.scale_ups),
                  static_cast<long long>(crep.scale_downs),
                  static_cast<long long>(crep.kills));
      std::printf("           %.1f replica-seconds used (%.1f saved vs holding peak), "
                  "%lld rounds migrated, %lld sessions completed, %lld dropped\n",
                  crep.replica_seconds, crep.ReplicaSecondsSavedVsPeak(),
                  static_cast<long long>(crep.migrated_rounds),
                  static_cast<long long>(crep.sessions_completed),
                  static_cast<long long>(crep.sessions_dropped));
    }
    for (int i = 0; i < cluster.num_replicas(); ++i) {
      const ServingReport& r = crep.replicas[static_cast<size_t>(i)];
      std::printf("           replica %d: %lld rounds, ttft %.3fs mean\n", i,
                  static_cast<long long>(r.rounds_completed), r.ttft.Mean());
    }
  } else {
    ServingEngine engine(platform, cfg, o);
    std::printf("KV pool  : %lld tokens\n\n",
                static_cast<long long>(engine.DeriveKvCapacityTokens()));
    rep = engine.RunConversations(load, sessions, interval, seed);
    PrintSummary(rep);
  }
  if (backend != nullptr) {
    const StorageStats& s = rep.storage;
    std::printf("storage  : %s — %lld writes, %lld reads (%.0f%% DRAM by chunks, "
                "%.0f%% by bytes)\n",
                backend->Name().c_str(), static_cast<long long>(s.total_writes),
                static_cast<long long>(s.total_reads), 100.0 * s.DramHitRatio(),
                100.0 * s.DramHitByteRatio());
    std::printf("           %.1f MB encoded state written (%.2fx vs FP32-equivalent)\n",
                static_cast<double>(rep.state_encoded_bytes) / (1 << 20),
                rep.StateCompressionRatio());
    if (s.evicted_contexts > 0) {
      std::printf("           %lld contexts evicted, %.1f MB written back\n",
                  static_cast<long long>(s.evicted_contexts),
                  static_cast<double>(s.writeback_bytes) / (1 << 20));
    }
    std::filesystem::remove_all(store_dir);
  }
  return 0;
}
