// Library-level fsck: classification of every damage class, quarantine repair
// semantics, the orphaned-temp sweep, and the JSON report CI parses.
#include "src/storage/fsck.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "src/storage/codec.h"
#include "src/storage/dedup_backend.h"
#include "src/storage/distributed_backend.h"
#include "src/storage/file_backend.h"
#include "src/storage/instrumented_backend.h"
#include "src/storage/memory_backend.h"
#include "tests/test_dir.h"

namespace hcache {
namespace {

namespace fs = std::filesystem;

constexpr int64_t kChunkBytes = 64 * 1024;

std::vector<uint8_t> SealedChunk(int64_t rows, int64_t cols, uint8_t fill) {
  std::vector<uint8_t> chunk(
      static_cast<size_t>(EncodedChunkBytes(ChunkCodec::kFp32, rows, cols)), fill);
  WriteChunkHeader(ChunkCodec::kFp32, rows, cols, chunk.data());
  return chunk;
}

class FsckTest : public ::testing::Test {
 protected:
  TestDir base_{"fsck"};
};

TEST_F(FsckTest, ClassifiesEveryDamageClass) {
  MemoryBackend backend(kChunkBytes);
  InstrumentedBackend chaos(&backend);

  const auto sealed = SealedChunk(8, 16, 0x11);
  const int64_t bytes = static_cast<int64_t>(sealed.size());
  // Two clean, one opaque, one corrupt (payload flip), one partial (torn tail).
  ASSERT_TRUE(backend.WriteChunk({1, 0, 0}, sealed.data(), bytes));
  ASSERT_TRUE(backend.WriteChunk({1, 1, 0}, sealed.data(), bytes));
  std::vector<char> blob(256, 'o');
  ASSERT_TRUE(backend.WriteChunk({2, 0, 0}, blob.data(), 256));
  ASSERT_TRUE(backend.WriteChunk({3, 0, 0}, sealed.data(), bytes));
  ASSERT_TRUE(chaos.CorruptChunk({3, 0, 0}, 8 * (sizeof(ChunkHeader) + 7) + 2));
  ASSERT_TRUE(backend.WriteChunk({4, 0, 0}, sealed.data(), bytes));
  ASSERT_TRUE(chaos.TruncateChunk({4, 0, 0}, bytes / 2));

  const FsckReport before = RunFsck(&backend);
  EXPECT_EQ(before.chunks_scanned, 5);
  EXPECT_EQ(before.clean, 2);
  EXPECT_EQ(before.unverified, 1);
  EXPECT_EQ(before.corrupt, 1);
  EXPECT_EQ(before.partial, 1);
  EXPECT_EQ(before.orphaned_temp_files, 0);
  EXPECT_EQ(before.repaired, 0);
  EXPECT_FALSE(before.Healthy());
  // Findings list damage only (clean and unverified chunks are counted, not listed).
  ASSERT_EQ(before.findings.size(), 2u);
  for (const FsckFinding& f : before.findings) {
    EXPECT_FALSE(f.repaired);
    if (f.klass == FsckClass::kCorrupt) {
      EXPECT_EQ(f.key.context_id, 3);
      EXPECT_NE(f.detail.find("CRC"), std::string::npos) << f.detail;
    } else {
      EXPECT_EQ(f.klass, FsckClass::kPartial);
      EXPECT_EQ(f.key.context_id, 4);
      EXPECT_NE(f.detail.find("truncated"), std::string::npos) << f.detail;
    }
  }
  // Report-only: nothing was touched.
  EXPECT_TRUE(backend.HasChunk({3, 0, 0}));
  EXPECT_TRUE(backend.HasChunk({4, 0, 0}));
}

TEST_F(FsckTest, RepairQuarantinesDamageAndSparesUnverified) {
  MemoryBackend backend(kChunkBytes);
  InstrumentedBackend chaos(&backend);
  const auto sealed = SealedChunk(8, 16, 0x22);
  const int64_t bytes = static_cast<int64_t>(sealed.size());
  ASSERT_TRUE(backend.WriteChunk({1, 0, 0}, sealed.data(), bytes));
  std::vector<char> blob(128, 'u');
  ASSERT_TRUE(backend.WriteChunk({2, 0, 0}, blob.data(), 128));
  ASSERT_TRUE(backend.WriteChunk({3, 0, 0}, sealed.data(), bytes));
  ASSERT_TRUE(chaos.CorruptChunk({3, 0, 0}, 8 * sizeof(ChunkHeader)));
  ASSERT_TRUE(backend.WriteChunk({4, 0, 0}, sealed.data(), bytes));
  ASSERT_TRUE(chaos.TruncateChunk({4, 0, 0}, bytes - 4));

  FsckOptions repair;
  repair.repair = true;
  const FsckReport r = RunFsck(&backend, repair);
  EXPECT_EQ(r.repaired, 2);
  for (const FsckFinding& f : r.findings) {
    EXPECT_TRUE(f.repaired);
  }
  // Quarantine turns detected-corrupt (-2) into an ordinary miss (-1): the restore
  // path recomputes instead of tripping a CRC failure on every read.
  std::vector<char> buf(static_cast<size_t>(bytes));
  EXPECT_EQ(backend.ReadChunk({3, 0, 0}, buf.data(), bytes), -1);
  EXPECT_EQ(backend.ReadChunk({4, 0, 0}, buf.data(), bytes), -1);
  // Clean and unverified chunks survive repair untouched.
  EXPECT_EQ(backend.ReadChunk({1, 0, 0}, buf.data(), bytes), bytes);
  EXPECT_EQ(backend.ReadChunk({2, 0, 0}, buf.data(), 128), 128);

  const FsckReport after = RunFsck(&backend);
  EXPECT_TRUE(after.Healthy());
  EXPECT_EQ(after.chunks_scanned, 2);
  EXPECT_EQ(after.clean, 1);
  EXPECT_EQ(after.unverified, 1);
}

TEST_F(FsckTest, SweepsOrphanedTempFilesUnderScanDirs) {
  // sweep_temp_files=false models inspecting a store that hasn't been reopened
  // since a compaction died — fsck is what finds the residue.
  FileBackendOptions opts;
  opts.sweep_temp_files = false;
  FileBackend backend({(base_ / "d0").string()}, kChunkBytes, opts);
  const auto sealed = SealedChunk(4, 8, 0x33);
  ASSERT_TRUE(backend.WriteChunk({1, 0, 0}, sealed.data(),
                                 static_cast<int64_t>(sealed.size())));
  const fs::path orphan = base_ / "d0" / "ctx1.seg.tmp";
  {
    std::FILE* f = std::fopen(orphan.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("torn", f);
    std::fclose(f);
  }

  FsckOptions scan;
  scan.scan_dirs = {(base_ / "d0").string()};
  const FsckReport before = RunFsck(&backend, scan);
  EXPECT_EQ(before.orphaned_temp_files, 1);
  EXPECT_FALSE(before.Healthy());
  EXPECT_TRUE(fs::exists(orphan));  // report-only

  scan.repair = true;
  const FsckReport repaired = RunFsck(&backend, scan);
  EXPECT_EQ(repaired.orphaned_temp_files, 1);
  EXPECT_EQ(repaired.repaired, 1);
  EXPECT_FALSE(fs::exists(orphan));

  EXPECT_TRUE(RunFsck(&backend, scan).Healthy());
}

TEST_F(FsckTest, JsonReportCarriesTheCountsAndFindings) {
  MemoryBackend backend(kChunkBytes);
  InstrumentedBackend chaos(&backend);
  const auto sealed = SealedChunk(8, 16, 0x44);
  const int64_t bytes = static_cast<int64_t>(sealed.size());
  ASSERT_TRUE(backend.WriteChunk({1, 0, 0}, sealed.data(), bytes));
  ASSERT_TRUE(backend.WriteChunk({6, 3, 2}, sealed.data(), bytes));
  ASSERT_TRUE(chaos.CorruptChunk({6, 3, 2}, 8 * (sizeof(ChunkHeader) + 1)));

  const std::string json = RunFsck(&backend).ToJson();
  for (const char* needle :
       {"\"chunks_scanned\":2", "\"clean\":1", "\"corrupt\":1", "\"partial\":0",
        "\"orphaned_temp_files\":0", "\"healthy\":false", "\"findings\":[",
        "\"class\":\"corrupt\"", "\"context\":6", "\"layer\":3", "\"chunk\":2",
        "\"repaired\":false"}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }

  MemoryBackend pristine(kChunkBytes);
  ASSERT_TRUE(pristine.WriteChunk({1, 0, 0}, sealed.data(), bytes));
  const std::string clean_json = RunFsck(&pristine).ToJson();
  EXPECT_NE(clean_json.find("\"healthy\":true"), std::string::npos) << clean_json;
  EXPECT_NE(clean_json.find("\"findings\":[]"), std::string::npos) << clean_json;
}

TEST_F(FsckTest, DistributedScanFindsAndRepairsUnderReplication) {
  DistributedColdBackend dist(3, kChunkBytes);
  const auto sealed = SealedChunk(8, 16, 0x55);
  const int64_t bytes = static_cast<int64_t>(sealed.size());
  for (int64_t c = 0; c < 6; ++c) {
    ASSERT_TRUE(dist.WriteChunk({1, 0, c}, sealed.data(), bytes));
  }
  // Damage two chunks differently: one home copy bit-flipped at rest, one home
  // copy deleted out from under the index (simulated media loss).
  const auto home_a = dist.CheckReplication({1, 0, 0}).home;
  ASSERT_TRUE(dist.node_instrument(home_a[0])->CorruptChunk(
      {1, 0, 0}, 8 * (sizeof(ChunkHeader) + 3)));
  const auto home_b = dist.CheckReplication({1, 0, 1}).home;
  ASSERT_TRUE(dist.node_store(home_b[1])->DeleteChunk({1, 0, 1}));

  FsckReport before = RunFsck(&dist);
  EXPECT_EQ(before.chunks_scanned, 11);  // 6 keys x R=2, minus the deleted copy
  EXPECT_EQ(before.corrupt, 1);          // the physical per-node scan
  EXPECT_EQ(before.under_replicated, 2); // the logical replication audit
  EXPECT_FALSE(before.Healthy());
  ASSERT_EQ(before.nodes.size(), 3u);
  EXPECT_EQ(before.nodes[static_cast<size_t>(home_a[0])].corrupt, 1);
  const std::string json = before.ToJson();
  for (const char* needle : {"\"under_replicated\":2", "\"nodes\":[", "\"node\":",
                             "\"class\":\"under-replicated\""}) {
    EXPECT_NE(json.find(needle), std::string::npos) << needle << "\n" << json;
  }

  // --repair: quarantine the bad copy, then re-replicate both keys from their
  // surviving healthy copies.
  FsckOptions repair;
  repair.repair = true;
  FsckReport fixed = RunFsck(&dist, repair);
  EXPECT_EQ(fixed.repaired, 3);  // 1 quarantined copy + 2 re-replications
  EXPECT_EQ(fixed.under_replicated, 0);

  FsckReport after = RunFsck(&dist);
  EXPECT_TRUE(after.Healthy()) << after.ToJson();
  EXPECT_EQ(after.chunks_scanned, 12);
  for (int64_t c = 0; c < 6; ++c) {
    EXPECT_TRUE(dist.CheckReplication({1, 0, c}).FullyReplicated()) << c;
  }
}

TEST_F(FsckTest, DedupScanAuditsRefcountInvariantAndRepairs) {
  MemoryBackend phys(kChunkBytes);
  DedupBackend dedup(&phys);
  const auto shared = SealedChunk(8, 16, 0x22);
  const auto solo = SealedChunk(8, 16, 0x33);
  const int64_t bytes = static_cast<int64_t>(shared.size());
  for (int64_t ctx = 1; ctx <= 3; ++ctx) {
    ASSERT_TRUE(dedup.WriteChunk({ctx, 0, 0}, shared.data(), bytes));
  }
  ASSERT_TRUE(dedup.WriteChunk({4, 0, 0}, solo.data(), bytes));
  // Healthy store: the scan walks the PHYSICAL plane — 2 unique chunks, not 4
  // logical keys — and each carries a verifiable header.
  FsckReport healthy = RunFsck(&dedup);
  EXPECT_TRUE(healthy.Healthy()) << healthy.ToJson();
  EXPECT_EQ(healthy.chunks_scanned, 2);
  EXPECT_EQ(healthy.clean, 2);

  // Orphan: unreferenced bytes in the physical store. Missing: the shared
  // chunk's bytes vanish behind the index's back.
  ASSERT_TRUE(phys.WriteChunk({77, 77, 77}, solo.data(), 256));
  ChunkKey shared_key{};
  for (const auto& [pkey, psize] : dedup.ListPhysicalChunks()) {
    std::vector<uint8_t> tmp(static_cast<size_t>(psize));
    ASSERT_EQ(phys.ReadChunkUnverified(pkey, tmp.data(), psize), psize);
    if (std::memcmp(tmp.data(), shared.data(), tmp.size()) == 0) {
      shared_key = pkey;
    }
  }
  ASSERT_TRUE(phys.DeleteChunk(shared_key));

  FsckReport damaged = RunFsck(&dedup);
  EXPECT_FALSE(damaged.Healthy());
  EXPECT_EQ(damaged.dedup_orphans, 1);
  EXPECT_EQ(damaged.dedup_missing, 1);
  EXPECT_EQ(damaged.dedup_drift, 0);
  EXPECT_NE(damaged.ToJson().find("\"dedup-orphan\""), std::string::npos);
  EXPECT_NE(damaged.ToJson().find("\"dedup-missing\""), std::string::npos);

  FsckOptions repair;
  repair.repair = true;
  FsckReport fixed = RunFsck(&dedup, repair);
  EXPECT_EQ(fixed.repaired, 2);
  // Referents of the lost chunk read as ordinary misses (recompute fallback);
  // the intact chunk still serves; the orphan bytes are gone.
  std::vector<uint8_t> buf(static_cast<size_t>(bytes));
  EXPECT_EQ(dedup.ReadChunk({1, 0, 0}, buf.data(), bytes), -1);
  EXPECT_EQ(dedup.ReadChunk({4, 0, 0}, buf.data(), bytes), bytes);
  EXPECT_FALSE(phys.HasChunk({77, 77, 77}));
  EXPECT_TRUE(RunFsck(&dedup).Healthy());
}

TEST_F(FsckTest, DedupOverDistributedScansEveryNodeAndAudits) {
  // dedup(distributed(...)): the physical scan must recurse into the per-node
  // deep scan, and the audit must still see the wrapped plane's logical view.
  DistributedColdBackend dist(3, kChunkBytes);
  DedupBackend dedup(&dist);
  const auto sealed = SealedChunk(8, 16, 0x44);
  const int64_t bytes = static_cast<int64_t>(sealed.size());
  for (int64_t ctx = 1; ctx <= 4; ++ctx) {
    ASSERT_TRUE(dedup.WriteChunk({ctx, 0, 0}, sealed.data(), bytes));
  }
  FsckReport report = RunFsck(&dedup);
  EXPECT_TRUE(report.Healthy()) << report.ToJson();
  EXPECT_EQ(report.nodes.size(), 3u);
  // One unique chunk, R=2 home copies across the nodes.
  EXPECT_EQ(report.chunks_scanned, 2);
  EXPECT_EQ(dedup.Stats().unique_chunks, 1);
}

}  // namespace
}  // namespace hcache
