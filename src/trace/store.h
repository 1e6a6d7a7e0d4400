// EBST: a chunked, columnar, little-endian binary store for the per-IO trace
// dataset, with an optional full-scale metrics section so a replay run can be
// re-driven from disk bit-identically (src/replay/store_source.h).
//
// File layout (all integers little-endian; varint = LEB128, zigzag for
// signed; see src/trace/format.h for the wire primitives):
//
//   +-----------------------------------------------------------------+
//   | Header (48 B): magic "EBST", version (2), flags, chunk_target,  |
//   |   sampling_rate f64, window_seconds f64, step_seconds f64,      |
//   |   window_steps u32, header CRC32                                |
//   +-----------------------------------------------------------------+
//   | Chunk 0..N-1: [record_count u32][payload_size u32][CRC32 u32]   |
//   |   record_count <= chunk_target <= kStoreMaxChunkRecords         |
//   |   payload := one column block per schema column, in order:      |
//   |     step, vd, timestamp, op, size, offset, user, vm, qp, wt,    |
//   |     cn, segment, bs, sn, latency[5], fault retries/flags        |
//   |   block := [encoding u8][len varint][bytes]                     |
//   +-----------------------------------------------------------------+
//   | Metrics section (optional):                                     |
//   |   [window_steps varint][step_seconds f64]                       |
//   |   [qp count][qp RwSeries...]                                    |
//   |   [source count][source RwSeries...]    the segment map's       |
//   |   [entry count][entries...]             sources and entries     |
//   |   [offered-VD count][offered RwSeries...][VD truth][fault stats]|
//   |   entry := [id delta varint][source varint][read_weight f64]    |
//   |            [write_weight f64]                                   |
//   +-----------------------------------------------------------------+
//   | Footer: record_count, chunk index (offset, records), metrics    |
//   |   range — the seek map for chunk-streaming readers              |
//   +-----------------------------------------------------------------+
//   | Trailer (24 B): footer offset/size, footer CRC32, magic "TSBE"  |
//   +-----------------------------------------------------------------+
//
// Encoding choices: integer columns are zigzag-varint deltas against the
// previous record of the *same VD* within the chunk (a VD's user/vm/cn never
// change and its qp/segment/offset/size are heavily clustered, so most deltas
// are 0 or tiny); bs/sn predict against the previous record of the same
// *segment* (a segment lives on exactly one block server / storage node, so
// those deltas are almost always zero); timestamps delta against the previous
// record globally (the stream is time-sorted). Each column block has
// several candidate encodings — delta plain/RLE, raw values with prediction
// disabled (wins on i.i.d. columns like latencies, where deltas double the
// entropy range), and for aligned columns a shifted form that drops the
// trailing zero bits shared by every value (512-aligned offsets, 4K-multiple
// sizes). All of them are sized in one pass without being built, and only
// the smallest (the first, on a tie, in that order) is written — or a
// two-byte all-zero marker when the column is entirely zero. Prediction
// state resets at every chunk boundary, so any chunk can be decoded on its
// own through the footer's seek index.
//
// Parallel codec: every chunk, and every run of consecutive metric series,
// is a piece that encodes and decodes on its own. The batch writer
// (WriteDatasetToStore, WriteWorkloadToStore), ReadAll and ReadMetricsInto
// run the pieces on the calling thread plus DefaultGenerateWorkers() helpers
// (src/util/parallel.h), a bounded window of them in flight, while the
// calling thread reads and writes the file in file order. The bytes written,
// and the first error in file order on a read, are those of a serial codec.
// Append and ReadChunk stay one chunk at a time.
//
// The metrics section stores the storage domain the way SegmentSeriesMap
// holds it: the map's source series (one delivered series per VD for a
// generated run), then its entry table, sorted by segment id. An RwSeries is
// four blocks of exact f64 bit-pattern deltas at either precision, and the
// weights are raw f64, so a decoded map reads every cell bit for bit as the
// written one did. The decoder rejects an entry whose id does not ascend,
// whose source index is out of range or whose weight is not finite and
// non-negative (kDecodeError) before AssignEntries sees it. A version-1 file
// (one series per segment) is kBadVersion; there is no read path for it.
//
// Precision: kExact stores timestamps/latencies as IEEE754 bit patterns —
// read-back is bit-identical to the in-memory dataset. kExport quantizes
// timestamps to microseconds and latency components to centi-microseconds,
// the exact fidelity of the CSV exporters (%.6f / %.2f), for roughly another
// 2x size reduction; a chunk whose values do not fit the fixed-point grid
// falls back to the exact encoding column by column.
//
// Every section is CRC-32-protected (the metrics section's CRC is its
// pieces' CRCs joined in order with Crc32Combine, which is the CRC of the
// whole section): a truncated file, a flipped bit, or a malformed varint
// surfaces as a typed TraceStoreError — never UB, never silently wrong data
// (the corruption suite in tests/trace_store_test.cc sweeps every byte of a
// file under ASan/UBSan to pin this down).

#ifndef SRC_TRACE_STORE_H_
#define SRC_TRACE_STORE_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/trace/format.h"
#include "src/trace/records.h"
#include "src/workload/generator.h"

namespace ebs {

enum class StorePrecision {
  kExact,   // doubles as raw bit patterns; read-back == in-memory, bit for bit
  kExport,  // CSV-exporter fidelity (us timestamps, 0.01us latencies), smaller
};

struct TraceStoreOptions {
  StorePrecision precision = StorePrecision::kExact;
  // Records per chunk, the unit of memory: Append and ReadChunk hold one
  // chunk, the batch writer and ReadAll at most two per codec thread in
  // flight. The writer refuses (ok() is false) a value above
  // kStoreMaxChunkRecords.
  size_t chunk_records = 4096;
};

// Window geometry stamped into the header. window_seconds/sampling_rate
// mirror TraceDataset; step_seconds/window_steps let replay re-derive the
// per-second structure without a WorkloadConfig.
struct TraceStoreMeta {
  double sampling_rate = kTraceSamplingRate;
  double window_seconds = 0.0;
  double step_seconds = 1.0;
  uint32_t window_steps = 0;
};

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

// Streaming writer with the CSV exporters' checked-write contract: every
// method returns false once any write fails (sticky), and only a true return
// from Finish means the complete, CRC-consistent file reached the OS (ferror
// is checked mid-run and fclose's result catches data lost in the final
// flush, e.g. disk full).
class TraceStoreWriter {
 public:
  TraceStoreWriter(const std::string& path, const TraceStoreMeta& meta,
                   TraceStoreOptions options = {});
  ~TraceStoreWriter();

  TraceStoreWriter(const TraceStoreWriter&) = delete;
  TraceStoreWriter& operator=(const TraceStoreWriter&) = delete;

  // False after any failure (open included) or after Finish.
  bool ok() const { return ok_ && !finished_; }

  // Buffers one record; flushes a chunk every options.chunk_records. `step`
  // is the window step the record belongs to (ReplayEvent::step); steps must
  // be non-decreasing and < meta.window_steps.
  bool Append(const TraceRecord& record, uint32_t step);

  // Flushes the tail chunk, writes the footer + trailer, and closes the file.
  // The overload taking a WorkloadResult also embeds the full-scale metrics
  // section (metrics, offered load, ground truth, fault stats; result.traces
  // is ignored — the records came through Append). Single-shot.
  bool Finish();
  bool Finish(const WorkloadResult& result);

  uint64_t records_written() const { return records_written_; }

 private:
  // The batch conveniences append a whole dataset through AppendAll.
  friend bool WriteDatasetToStore(const std::string& path, const TraceDataset& traces,
                                  double step_seconds, uint32_t window_steps,
                                  TraceStoreOptions options);
  friend bool WriteWorkloadToStore(const std::string& path, const WorkloadResult& result,
                                   double step_seconds, TraceStoreOptions options);

  struct ChunkIndexEntry {
    uint64_t offset = 0;
    uint32_t records = 0;
  };

  bool WriteRaw(const void* data, size_t size);
  // Append for every record at once, with nothing pending: the steps are
  // checked as Append checks them, then every chunk is written.
  bool AppendAll(std::span<const TraceRecord> records, std::span<const uint32_t> steps);
  // Writes records[i] at steps[i] as consecutive chunks of at most
  // options.chunk_records records, encoded in parallel, written in order.
  bool WriteChunks(std::span<const TraceRecord> records, std::span<const uint32_t> steps);
  bool FinishImpl(const WorkloadResult* result);

  TraceStoreMeta meta_;
  TraceStoreOptions options_;
  std::FILE* file_ = nullptr;
  bool ok_ = false;
  bool finished_ = false;
  uint64_t offset_ = 0;
  uint64_t records_written_ = 0;
  uint32_t last_step_ = 0;
  std::vector<TraceRecord> pending_;
  std::vector<uint32_t> pending_steps_;
  std::vector<ChunkIndexEntry> index_;
};

// Batch conveniences. Steps are derived as floor(timestamp / step_seconds),
// clamped to the window and forced non-decreasing — for datasets produced by
// the generator (timestamps never cross their step boundary) this matches the
// replay engine's step attribution. WriteWorkloadToStore embeds the metrics
// section, making the file a complete replay input.
bool WriteDatasetToStore(const std::string& path, const TraceDataset& traces,
                         double step_seconds, uint32_t window_steps,
                         TraceStoreOptions options = {});
bool WriteWorkloadToStore(const std::string& path, const WorkloadResult& result,
                          double step_seconds, TraceStoreOptions options = {});

// ---------------------------------------------------------------------------
// Reader.
// ---------------------------------------------------------------------------

struct TraceStoreInfo {
  uint32_t version = 0;
  StorePrecision precision = StorePrecision::kExact;
  bool has_metrics = false;
  uint64_t record_count = 0;
  size_t chunk_count = 0;
  TraceStoreMeta meta;
  uint64_t file_bytes = 0;
};

struct StoreChunkInfo {
  uint64_t offset = 0;   // chunk header position in the file
  uint32_t records = 0;  // records in this chunk
};

// Validating reader. The constructor parses and CRC-checks the trailer,
// footer, and header; chunk payloads are CRC-checked as they are read. Every
// corruption mode — truncation, flipped bytes, over-long varints, dangling
// offsets — throws TraceStoreError with a specific StoreErrorCode. A header
// chunk_target outside [1, kStoreMaxChunkRecords] is kHeaderCorrupt, and a
// chunk index entry above chunk_target is kFooterCorrupt, so no chunk is
// sized from more than kStoreMaxChunkRecords records.
class TraceStoreReader {
 public:
  explicit TraceStoreReader(const std::string& path);
  ~TraceStoreReader();

  TraceStoreReader(const TraceStoreReader&) = delete;
  TraceStoreReader& operator=(const TraceStoreReader&) = delete;

  const TraceStoreInfo& info() const { return info_; }
  const std::vector<StoreChunkInfo>& chunks() const { return chunks_; }

  // Decodes chunk `index` (random access via the footer map). `steps`
  // receives the per-record window steps; pass nullptr to skip. Within a
  // chunk steps are validated non-decreasing and < window_steps.
  void ReadChunk(size_t index, std::vector<TraceRecord>* records,
                 std::vector<uint32_t>* steps = nullptr) const;

  // Full load: every chunk, in order, CRCs validated.
  TraceDataset ReadAll() const;

  // Decodes the metrics section into `result` (metrics, offered_vd, vd_truth,
  // faults; result->traces untouched). Throws kNoMetrics when absent.
  void ReadMetricsInto(WorkloadResult* result) const;

 private:
  struct FooterData {
    uint64_t metrics_offset = 0;  // 0 = no section
    uint64_t metrics_size = 0;
    uint32_t metrics_crc = 0;
  };

  void ReadAt(uint64_t offset, void* out, size_t size) const;
  uint64_t ChunkEndBoundary(size_t index) const;
  // Reads chunk `index`'s header and payload, checked against the footer
  // index but not yet against the CRC, which is returned.
  uint32_t ReadChunkBytes(size_t index, std::vector<uint8_t>* payload) const;

  std::FILE* file_ = nullptr;
  TraceStoreInfo info_;
  std::vector<StoreChunkInfo> chunks_;
  FooterData footer_;
};

// ---------------------------------------------------------------------------
// Dataset identity fingerprint.
// ---------------------------------------------------------------------------

// Order-sensitive FNV-1a over every record at export precision (microsecond
// timestamps, centi-microsecond latencies — the fidelity shared by the CSV
// exporters and the kExport store encoding). This is the identity contract
// between replay-from-generator and replay-from-store: both precisions of a
// store reproduce the generator stream's fingerprint exactly, and the golden
// corpus test pins the value for a fixed seed across format revisions.
uint64_t AggregateFingerprint(const TraceDataset& traces);

}  // namespace ebs

#endif  // SRC_TRACE_STORE_H_
