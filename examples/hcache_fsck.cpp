// hcache-fsck: offline integrity checker for on-disk chunk stores.
//
// Scans a FileBackend's device directories, classifies every chunk
// (clean / unverified / partial / corrupt) by re-parsing headers and re-computing
// payload CRC32Cs, reports torn segment tails from interrupted appends, damaged
// segments (a bad frame before the last record) and orphaned temp files from
// interrupted compactions, and — with --repair — quarantines the
// damage so the serving read path sees ordinary misses (recompute-from-tokens)
// instead of per-read CRC failures.
//
//   hcache-fsck [--repair] [--json] <device_dir> [<device_dir>...]
//   hcache-fsck --distributed [--replication R] [--repair] [--json] <node_dir>...
//   hcache-fsck --selftest
//
// --distributed treats each directory as ONE storage node of a replicated cold
// plane: every node store is scanned separately (per-node counts in --json), a
// logical pass flags chunks below their home replica count, and --repair
// re-replicates them from a surviving healthy copy instead of just quarantining.
//
// Exit status: 0 when the store is healthy (or --repair fixed everything),
// 1 when damage remains, 2 on usage errors. --selftest builds a throwaway store,
// injects corruption/truncation/a torn segment tail/a damaged segment/an orphan —
// plus a replicated
// store with a lost and a rotted copy, plus a content-addressed (dedup) store with
// an orphaned physical chunk and a vanished one — and checks fsck catches all of
// it; the CI smoke run.
// (The dedup leg is selftest/library-only: a DedupBackend's logical index lives
// with the serving process, so there is no directory-only CLI mode for it.)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/storage/codec.h"
#include "src/storage/dedup_backend.h"
#include "src/storage/distributed_backend.h"
#include "src/storage/file_backend.h"
#include "src/storage/fsck.h"
#include "src/storage/instrumented_backend.h"
#include "src/storage/layout.h"

using namespace hcache;

namespace {

namespace fs = std::filesystem;

// The backend needs a chunk capacity >= the largest stored object; the largest
// segment bounds it, so fsck needs no knowledge of the writer's configuration.
int64_t LargestFileUnder(const std::vector<std::string>& dirs) {
  int64_t largest = 0;
  for (const std::string& dir : dirs) {
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (it->is_regular_file(ec)) {
        largest = std::max(largest, static_cast<int64_t>(it->file_size(ec)));
      }
    }
  }
  return largest;
}

void PrintHuman(const FsckReport& r) {
  std::printf("hcache-fsck: %lld chunks, %lld bytes scanned\n",
              static_cast<long long>(r.chunks_scanned),
              static_cast<long long>(r.bytes_scanned));
  std::printf("  clean (CRC verified): %lld\n", static_cast<long long>(r.clean));
  std::printf("  unverified (opaque):  %lld\n", static_cast<long long>(r.unverified));
  std::printf("  partial (truncated):  %lld\n", static_cast<long long>(r.partial));
  std::printf("  corrupt (CRC failed): %lld\n", static_cast<long long>(r.corrupt));
  std::printf("  orphaned temp files:  %lld\n",
              static_cast<long long>(r.orphaned_temp_files));
  if (!r.nodes.empty()) {
    std::printf("  under-replicated:     %lld\n",
                static_cast<long long>(r.under_replicated));
  }
  if (r.dedup_orphans != 0 || r.dedup_missing != 0 || r.dedup_drift != 0) {
    std::printf("  dedup orphan/missing/drift: %lld/%lld/%lld\n",
                static_cast<long long>(r.dedup_orphans),
                static_cast<long long>(r.dedup_missing),
                static_cast<long long>(r.dedup_drift));
  }
  std::printf("  repaired:             %lld\n", static_cast<long long>(r.repaired));
  for (const FsckNodeReport& n : r.nodes) {
    std::printf("  node %d: %lld chunks, %lld bytes, %lld corrupt%s%s%s\n", n.node,
                static_cast<long long>(n.chunks), static_cast<long long>(n.bytes),
                static_cast<long long>(n.corrupt), n.up ? "" : " [down]",
                n.draining ? " [draining]" : "", n.removed ? " [removed]" : "");
  }
  for (const FsckFinding& f : r.findings) {
    std::printf("  [%s]%s ctx=%lld L=%lld C=%lld (%lld bytes): %s\n",
                FsckClassName(f.klass), f.repaired ? " repaired" : "",
                static_cast<long long>(f.key.context_id),
                static_cast<long long>(f.key.layer),
                static_cast<long long>(f.key.chunk_index),
                static_cast<long long>(f.bytes), f.detail.c_str());
  }
  std::printf("store %s\n", r.Healthy() ? "HEALTHY" : "DAMAGED");
}

#define SELFTEST_CHECK(cond)                                                    \
  do {                                                                          \
    if (!(cond)) {                                                              \
      std::fprintf(stderr, "selftest FAILED at %s:%d: %s\n", __FILE__, __LINE__, \
                   #cond);                                                      \
      return 1;                                                                 \
    }                                                                           \
  } while (0)

// Builds a store with known damage and checks the scanner and the repair pass see
// exactly what was injected.
int RunSelftest() {
  const fs::path root = fs::temp_directory_path() / "hcache_fsck_selftest";
  fs::remove_all(root);
  const std::vector<std::string> dirs = {(root / "d0").string(), (root / "d1").string()};
  constexpr int64_t kChunkBytes = 1 << 16;
  {
    FileBackend store(dirs, kChunkBytes);
    InstrumentedBackend chaos(&store);
    // Six well-formed v2 chunks across two contexts.
    std::vector<uint8_t> payload(static_cast<size_t>(EncodedChunkBytes(
        ChunkCodec::kFp32, /*rows=*/16, /*cols=*/32)));
    for (int64_t ctx = 1; ctx <= 2; ++ctx) {
      for (int64_t c = 0; c < 3; ++c) {
        for (size_t i = sizeof(ChunkHeader); i < payload.size(); ++i) {
          payload[i] = static_cast<uint8_t>(ctx * 31 + c * 7 + i);
        }
        WriteChunkHeader(ChunkCodec::kFp32, 16, 32, payload.data());
        SELFTEST_CHECK(chaos.WriteChunk(ChunkKey{ctx, 0, c}, payload.data(),
                                        static_cast<int64_t>(payload.size())));
      }
    }
    // Damage: one payload bit flip, one lost chunk tail, one append cut short by a
    // crash (a torn segment tail) and one orphaned compaction temp file.
    SELFTEST_CHECK(chaos.CorruptChunk(ChunkKey{1, 0, 1},
                                      8 * (sizeof(ChunkHeader) + 5) + 2));
    SELFTEST_CHECK(chaos.TruncateChunk(ChunkKey{2, 0, 2},
                                       static_cast<int64_t>(payload.size() / 2)));
    const fs::path segment = root / "d1" / "ctx1.seg";
    const auto whole = fs::file_size(segment);
    SELFTEST_CHECK(chaos.WriteChunk(ChunkKey{1, 1, 1}, payload.data(),
                                    static_cast<int64_t>(payload.size())));
    fs::resize_file(segment, whole + 100);
    std::FILE* orphan = std::fopen((root / "d0" / "ctx1.seg.tmp").c_str(), "wb");
    SELFTEST_CHECK(orphan != nullptr);
    std::fputs("torn", orphan);
    std::fclose(orphan);
  }
  // Fresh process view: recover the index from disk, but keep the torn tail and the
  // orphan in place (sweep_temp_files=false) so the scanner — not the constructor —
  // finds them.
  FileBackendOptions opts;
  opts.sweep_temp_files = false;
  FileBackend store(dirs, kChunkBytes, opts);
  FsckOptions fsck;
  fsck.scan_dirs = dirs;
  FsckReport before = RunFsck(&store, fsck);
  std::printf("%s\n", before.ToJson().c_str());
  SELFTEST_CHECK(before.chunks_scanned == 6);
  SELFTEST_CHECK(before.clean == 4);
  SELFTEST_CHECK(before.corrupt == 1);
  SELFTEST_CHECK(before.partial == 2);  // the truncated chunk and the torn tail
  SELFTEST_CHECK(before.orphaned_temp_files == 1);
  SELFTEST_CHECK(!before.Healthy());
  fsck.repair = true;
  FsckReport repaired = RunFsck(&store, fsck);
  SELFTEST_CHECK(repaired.repaired == 4);
  fsck.repair = false;
  FsckReport after = RunFsck(&store, fsck);
  std::printf("%s\n", after.ToJson().c_str());
  SELFTEST_CHECK(after.Healthy());
  SELFTEST_CHECK(after.chunks_scanned == 4 && after.clean == 4);

  // A bad frame with whole records after it is damage, not a torn tail: fsck reports
  // it and repair leaves the records after it in place.
  const std::vector<std::string> small_dir = {(root / "d2").string()};
  const fs::path damaged_segment = root / "d2" / "ctx3.seg";
  {
    FileBackend small(small_dir, 4096);
    const std::vector<char> bytes(2000, 'x');
    for (int64_t layer = 0; layer < 3; ++layer) {
      SELFTEST_CHECK(small.WriteChunk(ChunkKey{3, layer, 0}, bytes.data(), 2000));
    }
  }
  const auto damaged_size = fs::file_size(damaged_segment);
  std::FILE* seg = std::fopen(damaged_segment.c_str(), "r+b");
  SELFTEST_CHECK(seg != nullptr);
  std::fseek(seg, 16, SEEK_SET);  // the first frame's layer
  std::fputc('!', seg);
  std::fclose(seg);
  FileBackend damaged_store(small_dir, 4096, opts);
  fsck.repair = true;
  const FsckReport damaged = RunFsck(&damaged_store, fsck);
  SELFTEST_CHECK(damaged.corrupt == 1 && damaged.repaired == 0 && !damaged.Healthy());
  SELFTEST_CHECK(fs::file_size(damaged_segment) == damaged_size);
  fsck.repair = false;
  fs::remove_all(root);

  // Distributed leg: three file-backed nodes, R=2; lose one copy, rot another.
  const fs::path droot = fs::temp_directory_path() / "hcache_fsck_selftest_dist";
  fs::remove_all(droot);
  std::vector<std::string> node_dirs;
  for (int n = 0; n < 3; ++n) {
    node_dirs.push_back((droot / ("node" + std::to_string(n))).string());
  }
  const auto factory = [&node_dirs](int node, int64_t bytes) {
    return std::make_unique<FileBackend>(
        std::vector<std::string>{node_dirs[static_cast<size_t>(node)]}, bytes);
  };
  DistributedColdBackend dist(3, kChunkBytes, {}, factory);
  std::vector<uint8_t> payload(static_cast<size_t>(EncodedChunkBytes(
      ChunkCodec::kFp32, /*rows=*/16, /*cols=*/32)));
  for (int64_t c = 0; c < 4; ++c) {
    for (size_t i = sizeof(ChunkHeader); i < payload.size(); ++i) {
      payload[i] = static_cast<uint8_t>(c * 17 + i * 3);
    }
    WriteChunkHeader(ChunkCodec::kFp32, 16, 32, payload.data());
    SELFTEST_CHECK(dist.WriteChunk(ChunkKey{9, 0, c}, payload.data(),
                                   static_cast<int64_t>(payload.size())));
  }
  const auto home0 = dist.CheckReplication(ChunkKey{9, 0, 0}).home;
  SELFTEST_CHECK(dist.node_store(home0[0])->DeleteChunk(ChunkKey{9, 0, 0}));
  const auto home1 = dist.CheckReplication(ChunkKey{9, 0, 1}).home;
  SELFTEST_CHECK(dist.node_instrument(home1[0])->CorruptChunk(
      ChunkKey{9, 0, 1}, 8 * (sizeof(ChunkHeader) + 11)));

  FsckOptions dist_fsck;
  dist_fsck.scan_dirs = node_dirs;
  FsckReport dist_before = RunFsck(&dist, dist_fsck);
  std::printf("%s\n", dist_before.ToJson().c_str());
  SELFTEST_CHECK(dist_before.under_replicated == 2);
  SELFTEST_CHECK(dist_before.corrupt == 1);
  SELFTEST_CHECK(dist_before.nodes.size() == 3);
  SELFTEST_CHECK(!dist_before.Healthy());
  dist_fsck.repair = true;
  FsckReport dist_fixed = RunFsck(&dist, dist_fsck);
  SELFTEST_CHECK(dist_fixed.repaired == 3);  // 1 quarantine + 2 re-replications
  dist_fsck.repair = false;
  FsckReport dist_after = RunFsck(&dist, dist_fsck);
  std::printf("%s\n", dist_after.ToJson().c_str());
  SELFTEST_CHECK(dist_after.Healthy());
  for (int64_t c = 0; c < 4; ++c) {
    SELFTEST_CHECK(dist.CheckReplication(ChunkKey{9, 0, c}).FullyReplicated());
  }
  fs::remove_all(droot);

  // Dedup leg: a content-addressed store with a refcount-invariant violation of
  // each kind. The physical plane is file-backed; the logical index is live.
  const fs::path dd_root = fs::temp_directory_path() / "hcache_fsck_selftest_dedup";
  fs::remove_all(dd_root);
  {
    FileBackend phys({(dd_root / "p0").string()}, kChunkBytes);
    DedupBackend dedup(&phys);
    std::vector<uint8_t> blob(4096);
    for (size_t i = 0; i < blob.size(); ++i) {
      blob[i] = static_cast<uint8_t>(i * 13 + 7);
    }
    // Three contexts share one physical chunk; a second unique chunk rides along.
    for (int64_t ctx = 1; ctx <= 3; ++ctx) {
      SELFTEST_CHECK(dedup.WriteChunk(ChunkKey{ctx, 0, 0}, blob.data(),
                                      static_cast<int64_t>(blob.size())));
    }
    blob[0] ^= 0xff;
    SELFTEST_CHECK(dedup.WriteChunk(ChunkKey{4, 0, 0}, blob.data(),
                                    static_cast<int64_t>(blob.size())));
    SELFTEST_CHECK(RunFsck(&dedup).Healthy());

    // Orphan: bytes in the physical store no index entry claims (a crash between
    // physical write and index publish). Missing: the shared chunk's bytes vanish
    // behind the index's back (media loss).
    SELFTEST_CHECK(phys.WriteChunk(ChunkKey{77, 77, 77}, blob.data(), 512));
    const auto phys_chunks = dedup.ListPhysicalChunks();
    SELFTEST_CHECK(phys_chunks.size() == 2);
    // Delete the 3-referent chunk: the one whose bytes differ from `blob` (which
    // now holds context 4's content).
    ChunkKey shared_key{};
    for (const auto& [pkey, psize] : phys_chunks) {
      std::vector<uint8_t> tmp(static_cast<size_t>(psize));
      SELFTEST_CHECK(phys.ReadChunkUnverified(pkey, tmp.data(), psize) == psize);
      if (std::memcmp(tmp.data(), blob.data(), tmp.size()) != 0) {
        shared_key = pkey;
      }
    }
    SELFTEST_CHECK(phys.DeleteChunk(shared_key));

    FsckReport dd_before = RunFsck(&dedup);
    std::printf("%s\n", dd_before.ToJson().c_str());
    SELFTEST_CHECK(dd_before.dedup_orphans == 1);
    SELFTEST_CHECK(dd_before.dedup_missing == 1);
    SELFTEST_CHECK(!dd_before.Healthy());

    FsckOptions dd_repair;
    dd_repair.repair = true;
    FsckReport dd_fixed = RunFsck(&dedup, dd_repair);
    SELFTEST_CHECK(dd_fixed.repaired == 2);  // orphan deleted + dead entry dropped
    // The lost chunk's referents now read as ordinary misses (recompute
    // fallback), not corrupt; the intact chunk still serves.
    std::vector<uint8_t> buf(4096);
    SELFTEST_CHECK(dedup.ReadChunk(ChunkKey{1, 0, 0}, buf.data(), 4096) == -1);
    SELFTEST_CHECK(dedup.ReadChunk(ChunkKey{4, 0, 0}, buf.data(), 4096) == 4096);
    SELFTEST_CHECK(!phys.HasChunk(ChunkKey{77, 77, 77}));
    FsckReport dd_after = RunFsck(&dedup);
    std::printf("%s\n", dd_after.ToJson().c_str());
    SELFTEST_CHECK(dd_after.Healthy());
  }
  fs::remove_all(dd_root);
  std::printf("hcache-fsck selftest OK\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool repair = false, json = false, selftest = false, distributed = false;
  int replication = 2;
  std::vector<std::string> dirs;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--repair") {
      repair = true;
    } else if (arg == "--json") {
      json = true;
    } else if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--distributed") {
      distributed = true;
    } else if (arg == "--replication" && i + 1 < argc) {
      replication = std::atoi(argv[++i]);
      if (replication < 1) {
        std::fprintf(stderr, "--replication must be >= 1\n");
        return 2;
      }
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    } else {
      dirs.push_back(arg);
    }
  }
  if (selftest) {
    return RunSelftest();
  }
  if (dirs.empty()) {
    std::fprintf(stderr,
                 "usage: hcache-fsck [--repair] [--json] <device_dir>...\n"
                 "       hcache-fsck --distributed [--replication R] [--repair] [--json] "
                 "<node_dir>...\n"
                 "       hcache-fsck --selftest\n");
    return 2;
  }
  for (const std::string& dir : dirs) {
    if (!fs::is_directory(dir)) {
      std::fprintf(stderr, "not a directory: %s\n", dir.c_str());
      return 2;
    }
  }
  const int64_t chunk_bytes = std::max<int64_t>(LargestFileUnder(dirs), 1);
  // Keep orphaned temp files in place: this run classifies them (and only a
  // --repair run removes them).
  FileBackendOptions opts;
  opts.sweep_temp_files = false;
  FsckOptions fsck;
  fsck.repair = repair;
  fsck.scan_dirs = dirs;
  FsckReport report;
  // Exit status reflects the store's state when we're done: a --repair run that
  // found damage re-scans report-only, so "everything fixed" exits 0.
  const auto scan = [&](StorageBackend* store) {
    report = RunFsck(store, fsck);
    if (report.Healthy()) {
      return true;
    }
    if (!repair) {
      return false;
    }
    FsckOptions verify = fsck;
    verify.repair = false;
    return RunFsck(store, verify).Healthy();
  };
  bool healthy = false;
  if (distributed) {
    // One node per directory; the constructor recovers the logical index from
    // whatever the node stores hold.
    DistributedColdOptions dopts;
    dopts.replication = replication;
    const auto factory = [&dirs, &opts](int node, int64_t bytes) {
      return std::make_unique<FileBackend>(
          std::vector<std::string>{dirs[static_cast<size_t>(node)]}, bytes, opts);
    };
    DistributedColdBackend store(static_cast<int>(dirs.size()), chunk_bytes, dopts,
                                 factory);
    healthy = scan(&store);
  } else {
    FileBackend store(dirs, chunk_bytes, opts);
    healthy = scan(&store);
  }
  if (json) {
    std::printf("%s\n", report.ToJson().c_str());
  } else {
    PrintHuman(report);
  }
  return healthy ? 0 : 1;
}
