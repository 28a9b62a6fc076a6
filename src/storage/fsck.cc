#include "src/storage/fsck.h"

#include <cstdio>
#include <filesystem>
#include <sstream>

#include "src/common/logging.h"
#include "src/storage/codec.h"
#include "src/storage/dedup_backend.h"
#include "src/storage/distributed_backend.h"
#include "src/storage/file_backend.h"
#include "src/storage/integrity.h"

namespace hcache {
namespace {

namespace fs = std::filesystem;

// Classifies one chunk's stored bytes. VerifyChunkBytes alone folds every
// magic-bearing failure into kCorrupt; fsck splits out the torn-write case (header
// intact and trustworthy, payload tail missing) by re-parsing the header alone.
FsckClass ClassifyChunk(const uint8_t* data, int64_t bytes, std::string* detail) {
  switch (VerifyChunkBytes(data, bytes)) {
    case ChunkVerdict::kOkVerified:
      return FsckClass::kClean;
    case ChunkVerdict::kOkUnverified:
      detail->assign("no chunk magic (opaque)");
      return FsckClass::kUnverified;
    case ChunkVerdict::kCorrupt:
      break;
  }
  // Magic is present (else the verdict would be kOkUnverified).
  if (bytes < static_cast<int64_t>(sizeof(ChunkHeader))) {
    detail->assign("truncated inside the header");
    return FsckClass::kPartial;
  }
  // Only trust the header's row/col claim if the header's own CRC holds — a flipped
  // bit in `rows` must not masquerade as truncation.
  ChunkInfo info;
  if (!ParseChunkHeader(data, bytes, &info)) {
    detail->assign("header CRC mismatch or unknown version");
    return FsckClass::kCorrupt;
  }
  const int64_t expected = EncodedChunkBytes(info.codec, info.rows, info.cols);
  if (bytes < expected) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "truncated: %lld of %lld bytes",
                  static_cast<long long>(bytes), static_cast<long long>(expected));
    detail->assign(buf);
    return FsckClass::kPartial;
  }
  detail->assign("payload CRC or size mismatch");
  return FsckClass::kCorrupt;
}

void AppendJsonFinding(std::ostringstream& os, const FsckFinding& f, bool first) {
  if (!first) {
    os << ',';
  }
  os << "{\"context\":" << f.key.context_id << ",\"layer\":" << f.key.layer
     << ",\"chunk\":" << f.key.chunk_index << ",\"bytes\":" << f.bytes << ",\"class\":\""
     << FsckClassName(f.klass) << "\",\"repaired\":" << (f.repaired ? "true" : "false");
  if (f.node >= 0) {
    os << ",\"node\":" << f.node;
  }
  os << ",\"detail\":\"";
  for (const char c : f.detail) {  // detail strings are ASCII we wrote ourselves
    if (c == '"' || c == '\\') {
      os << '\\';
    }
    os << c;
  }
  os << "\"}";
}

}  // namespace

const char* FsckClassName(FsckClass c) {
  switch (c) {
    case FsckClass::kClean:
      return "clean";
    case FsckClass::kUnverified:
      return "unverified";
    case FsckClass::kPartial:
      return "partial";
    case FsckClass::kCorrupt:
      return "corrupt";
    case FsckClass::kUnderReplicated:
      return "under-replicated";
    case FsckClass::kDedupOrphan:
      return "dedup-orphan";
    case FsckClass::kDedupMissing:
      return "dedup-missing";
    case FsckClass::kDedupDrift:
      return "dedup-drift";
  }
  return "unknown";
}

namespace {

// Walks one physical store, classifying every chunk it enumerates. `node` tags the
// findings (and accumulates a per-node corrupt count) for distributed scans; -1 for
// a plain single-store scan.
void ScanStore(StorageBackend* store, bool repair, int node, FsckReport* report,
               FsckNodeReport* node_report) {
  // Torn segment tails first: quarantining a chunk below appends to its segment,
  // which would cut the tail before it was counted.
  if (auto* file = dynamic_cast<FileBackend*>(store)) {
    for (const FileBackend::TornTail& tail : file->TornTails(/*truncate=*/repair)) {
      ++(tail.damaged ? report->corrupt : report->partial);
      if (node_report != nullptr) {
        ++node_report->corrupt;
      }
      char detail[64];
      std::snprintf(detail, sizeof(detail), " at offset %lld (%lld bytes)",
                    static_cast<long long>(tail.offset), static_cast<long long>(tail.bytes));
      report->findings.push_back(FsckFinding{
          ChunkKey{}, tail.bytes, tail.damaged ? FsckClass::kCorrupt : FsckClass::kPartial,
          tail.truncated,
          (tail.damaged ? "damaged segment: " : "torn segment tail: ") + tail.path + detail,
          node});
      report->repaired += tail.truncated ? 1 : 0;
    }
  }
  std::vector<uint8_t> buf;
  for (const auto& [key, size] : store->ListChunks()) {
    ++report->chunks_scanned;
    FsckClass klass = FsckClass::kCorrupt;
    std::string detail;
    if (size <= 0) {
      detail = "unreadable: empty or stat failed";
    } else {
      buf.resize(static_cast<size_t>(size));
      if (store->ReadChunkUnverified(key, buf.data(), size) != size) {
        detail = "unreadable: short read";
      } else {
        report->bytes_scanned += size;
        klass = ClassifyChunk(buf.data(), size, &detail);
      }
    }
    switch (klass) {
      case FsckClass::kClean:
        ++report->clean;
        continue;
      case FsckClass::kUnverified:
        ++report->unverified;
        continue;  // healthy-but-unchecked: counted, not listed
      case FsckClass::kPartial:
        ++report->partial;
        break;
      default:
        klass = FsckClass::kCorrupt;
        ++report->corrupt;
        break;
    }
    if (node_report != nullptr) {
      ++node_report->corrupt;
    }
    FsckFinding finding{key, size, klass, false, detail, node};
    if (repair && store->DeleteChunk(key)) {
      finding.repaired = true;
      ++report->repaired;
    }
    report->findings.push_back(std::move(finding));
  }
}

// The distributed deep scan: per-node physical classification, then a logical
// replication audit. With repair on, a damaged copy is quarantined from its node
// store first, so the RepairChunk that follows re-sources it from a clean replica.
void ScanDistributed(DistributedColdBackend* dist, const FsckOptions& options,
                     FsckReport* report) {
  const auto infos = dist->NodeTable();
  report->nodes.reserve(infos.size());
  for (const auto& info : infos) {
    FsckNodeReport nr;
    nr.node = info.id;
    nr.up = info.up;
    nr.draining = info.draining;
    nr.removed = info.removed;
    report->nodes.push_back(nr);
  }
  for (size_t i = 0; i < infos.size(); ++i) {
    if (infos[i].removed) {
      continue;  // retired by Drain: nothing resident, nothing to audit
    }
    // fsck is an offline tool: a node the serving plane marked down still has a
    // readable store, and auditing it now is exactly when it matters.
    ScanStore(dist->node_store(infos[i].id), options.repair, infos[i].id, report,
              &report->nodes[i]);
  }
  for (const auto& [key, size] : dist->ListChunks()) {
    const auto st = dist->CheckReplication(key);
    const int replicas = static_cast<int>(st.home.size());
    if (st.missing_copies == 0 && st.corrupt_copies == 0) {
      continue;
    }
    ++report->under_replicated;
    char detail[96];
    std::snprintf(detail, sizeof(detail), "%d of %d home copies healthy (%d missing, %d corrupt)",
                  st.healthy_copies, replicas, st.missing_copies, st.corrupt_copies);
    FsckFinding finding{key, size, FsckClass::kUnderReplicated, false, detail, -1};
    if (options.repair && dist->RepairChunk(key)) {
      finding.repaired = true;
      ++report->repaired;
      --report->under_replicated;
    }
    report->findings.push_back(std::move(finding));
  }
  // Refresh per-node occupancy after any repair traffic.
  const auto after = dist->NodeTable();
  for (size_t i = 0; i < after.size() && i < report->nodes.size(); ++i) {
    report->nodes[i].chunks = after[i].chunks;
    report->nodes[i].bytes = after[i].bytes;
  }
}

// The dedup deep scan: classify the PHYSICAL plane (each unique chunk once —
// distributed-aware when dedup wraps the replicated cold plane), then audit the
// refcount invariant and surface its findings in fsck terms. The order matters
// under repair: a corrupt physical chunk the scan quarantines becomes a
// missing-physical in the audit, which then drops the dead logical referents so
// the read path reports an ordinary miss (recompute fallback) instead of -2.
void ScanDedup(DedupBackend* dedup, const FsckOptions& options, FsckReport* report) {
  if (auto* dist = dynamic_cast<DistributedColdBackend*>(dedup->base())) {
    ScanDistributed(dist, options, report);
  } else {
    ScanStore(dedup->base(), options.repair, /*node=*/-1, report, nullptr);
  }
  const DedupAuditReport audit = dedup->AuditIndex(options.repair);
  report->dedup_orphans += audit.orphan_physical;
  report->dedup_missing += audit.missing_physical;
  report->dedup_drift += audit.refcount_drift;
  for (const DedupAuditFinding& f : audit.findings) {
    FsckFinding finding;
    finding.key = f.physical_key;
    finding.bytes = f.bytes;
    finding.repaired = f.repaired;
    char detail[96];
    switch (f.kind) {
      case DedupAuditFinding::Kind::kOrphanPhysical:
        finding.klass = FsckClass::kDedupOrphan;
        finding.detail = "physical chunk with zero logical referents";
        break;
      case DedupAuditFinding::Kind::kMissingPhysical:
        finding.klass = FsckClass::kDedupMissing;
        std::snprintf(detail, sizeof(detail),
                      "physical chunk gone; %lld logical referents dropped to miss",
                      static_cast<long long>(f.refs_indexed));
        finding.detail = detail;
        break;
      case DedupAuditFinding::Kind::kRefcountDrift:
        finding.klass = FsckClass::kDedupDrift;
        std::snprintf(detail, sizeof(detail), "index refcount %lld, recounted %lld",
                      static_cast<long long>(f.refs_indexed),
                      static_cast<long long>(f.refs_recounted));
        finding.detail = detail;
        break;
    }
    if (finding.repaired) {
      ++report->repaired;
    }
    report->findings.push_back(std::move(finding));
  }
}

}  // namespace

FsckReport RunFsck(StorageBackend* backend, const FsckOptions& options) {
  CHECK(backend != nullptr);
  FsckReport report;
  if (auto* dedup = dynamic_cast<DedupBackend*>(backend)) {
    ScanDedup(dedup, options, &report);
  } else if (auto* dist = dynamic_cast<DistributedColdBackend*>(backend)) {
    ScanDistributed(dist, options, &report);
  } else {
    ScanStore(backend, options.repair, /*node=*/-1, &report, nullptr);
  }
  // Orphan sweep: `*.tmp` under the scan dirs is always residue of a compaction that
  // died — the rename that would have replaced its segment never happened.
  for (const std::string& dir : options.scan_dirs) {
    std::error_code ec;
    for (fs::recursive_directory_iterator it(dir, ec), end; !ec && it != end;
         it.increment(ec)) {
      if (!it->is_regular_file(ec) || it->path().extension() != ".tmp") {
        continue;
      }
      ++report.orphaned_temp_files;
      FsckFinding finding;
      finding.bytes = static_cast<int64_t>(it->file_size(ec));
      finding.klass = FsckClass::kPartial;
      finding.detail = "orphaned temp file: " + it->path().string();
      if (options.repair && fs::remove(it->path(), ec) && !ec) {
        finding.repaired = true;
        ++report.repaired;
      }
      report.findings.push_back(std::move(finding));
    }
  }
  return report;
}

std::string FsckReport::ToJson() const {
  std::ostringstream os;
  os << "{\"chunks_scanned\":" << chunks_scanned << ",\"bytes_scanned\":" << bytes_scanned
     << ",\"clean\":" << clean << ",\"unverified\":" << unverified
     << ",\"partial\":" << partial << ",\"corrupt\":" << corrupt
     << ",\"orphaned_temp_files\":" << orphaned_temp_files
     << ",\"under_replicated\":" << under_replicated
     << ",\"dedup_orphans\":" << dedup_orphans << ",\"dedup_missing\":" << dedup_missing
     << ",\"dedup_drift\":" << dedup_drift << ",\"repaired\":" << repaired
     << ",\"healthy\":" << (Healthy() ? "true" : "false");
  if (!nodes.empty()) {
    os << ",\"nodes\":[";
    for (size_t i = 0; i < nodes.size(); ++i) {
      const FsckNodeReport& n = nodes[i];
      os << (i == 0 ? "" : ",") << "{\"node\":" << n.node << ",\"up\":"
         << (n.up ? "true" : "false") << ",\"draining\":" << (n.draining ? "true" : "false")
         << ",\"removed\":" << (n.removed ? "true" : "false") << ",\"chunks\":" << n.chunks
         << ",\"bytes\":" << n.bytes << ",\"corrupt\":" << n.corrupt << '}';
    }
    os << ']';
  }
  os << ",\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    AppendJsonFinding(os, findings[i], i == 0);
  }
  os << "]}";
  return os.str();
}

}  // namespace hcache
