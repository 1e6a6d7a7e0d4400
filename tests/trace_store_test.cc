// EBST trace store test battery: wire-primitive units, round-trip property
// tests (empty / single-record chunks / extreme values / fault annotations),
// the metrics-section round trip, the checked-write contract (including
// /dev/full), a golden-corpus pin, the CSV size gate, and the corruption
// suite — truncation at every length and a byte-flip sweep over a full
// replayable file, asserting every mutation surfaces as a typed
// TraceStoreError (run under ASan/UBSan in CI).

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include <gtest/gtest.h>

#include "src/core/simulation.h"
#include "src/replay/engine.h"
#include "src/replay/store_source.h"
#include "src/trace/csv_export.h"
#include "src/trace/format.h"
#include "src/trace/store.h"
#include "src/workload/generator.h"
#include "tests/test_helpers.h"

namespace ebs {
namespace {

uint64_t Bits(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

// Per-process names: ctest runs every case of a suite as its own process, in
// parallel, and StoreCorruptionTest's suite setup in each of them writes the
// same base file.
std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + std::to_string(getpid()) + "_" + name;
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

uint64_t FileSize(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return 0;
  }
  std::fseek(file, 0, SEEK_END);
  const long size = std::ftell(file);
  std::fclose(file);
  return size < 0 ? 0 : static_cast<uint64_t>(size);
}

bool DevFullAvailable() {
  std::FILE* probe = std::fopen("/dev/full", "w");
  if (probe == nullptr) {
    return false;
  }
  std::fclose(probe);
  return true;
}

void ExpectRecordsBitIdentical(const std::vector<TraceRecord>& got,
                               const std::vector<TraceRecord>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    const TraceRecord& g = got[i];
    const TraceRecord& w = want[i];
    ASSERT_EQ(Bits(g.timestamp), Bits(w.timestamp)) << "record " << i;
    ASSERT_EQ(g.op, w.op) << "record " << i;
    ASSERT_EQ(g.size_bytes, w.size_bytes) << "record " << i;
    ASSERT_EQ(g.offset, w.offset) << "record " << i;
    ASSERT_EQ(g.user.value(), w.user.value()) << "record " << i;
    ASSERT_EQ(g.vm.value(), w.vm.value()) << "record " << i;
    ASSERT_EQ(g.vd.value(), w.vd.value()) << "record " << i;
    ASSERT_EQ(g.qp.value(), w.qp.value()) << "record " << i;
    ASSERT_EQ(g.wt.value(), w.wt.value()) << "record " << i;
    ASSERT_EQ(g.cn.value(), w.cn.value()) << "record " << i;
    ASSERT_EQ(g.segment.value(), w.segment.value()) << "record " << i;
    ASSERT_EQ(g.bs.value(), w.bs.value()) << "record " << i;
    ASSERT_EQ(g.sn.value(), w.sn.value()) << "record " << i;
    for (int c = 0; c < kStackComponentCount; ++c) {
      ASSERT_EQ(Bits(g.latency.component_us[c]), Bits(w.latency.component_us[c]))
          << "record " << i << " component " << c;
    }
    ASSERT_EQ(g.fault_retries, w.fault_retries) << "record " << i;
    ASSERT_EQ(g.fault_timed_out, w.fault_timed_out) << "record " << i;
    ASSERT_EQ(g.fault_failed_over, w.fault_failed_over) << "record " << i;
  }
}

void ExpectRwSeriesEqual(const RwSeries& a, const RwSeries& b, const char* what) {
  ASSERT_EQ(a.read_bytes.size(), b.read_bytes.size()) << what;
  for (size_t t = 0; t < a.read_bytes.size(); ++t) {
    ASSERT_EQ(Bits(a.read_bytes[t]), Bits(b.read_bytes[t])) << what << " step " << t;
    ASSERT_EQ(Bits(a.write_bytes[t]), Bits(b.write_bytes[t])) << what << " step " << t;
    ASSERT_EQ(Bits(a.read_ops[t]), Bits(b.read_ops[t])) << what << " step " << t;
    ASSERT_EQ(Bits(a.write_ops[t]), Bits(b.write_ops[t])) << what << " step " << t;
  }
}

// ---------------------------------------------------------------------------
// Wire primitives.
// ---------------------------------------------------------------------------

TEST(StoreFormatTest, VarintRoundTripsAndRejectsOverlongEncodings) {
  const uint64_t values[] = {0,
                             1,
                             127,
                             128,
                             300,
                             (1ull << 35) - 7,
                             std::numeric_limits<uint64_t>::max()};
  for (const uint64_t v : values) {
    std::vector<uint8_t> buf;
    PutVarint(&buf, v);
    ByteReader reader(buf.data(), buf.size());
    uint64_t got = 0;
    ASSERT_TRUE(reader.GetVarint(&got));
    EXPECT_EQ(got, v);
    EXPECT_TRUE(reader.exhausted());
  }

  // 0 encoded with a redundant 10th continuation byte: over-long, rejected.
  const uint8_t overlong[] = {0x80, 0x80, 0x80, 0x80, 0x80,
                              0x80, 0x80, 0x80, 0x80, 0x00};
  ByteReader reader(overlong, sizeof(overlong));
  uint64_t out = 0;
  EXPECT_FALSE(reader.GetVarint(&out));

  // A 10th byte carrying more than the top bit of the u64 would overflow.
  const uint8_t overflowing[] = {0xFF, 0xFF, 0xFF, 0xFF, 0xFF,
                                 0xFF, 0xFF, 0xFF, 0xFF, 0x02};
  ByteReader reader2(overflowing, sizeof(overflowing));
  EXPECT_FALSE(reader2.GetVarint(&out));

  // Truncated mid-varint.
  const uint8_t truncated[] = {0xFF, 0xFF};
  ByteReader reader3(truncated, sizeof(truncated));
  EXPECT_FALSE(reader3.GetVarint(&out));
}

TEST(StoreFormatTest, ZigzagRoundTripsAtExtremes) {
  const int64_t values[] = {0, 1, -1, 2, -2, 1234567, -1234567,
                            std::numeric_limits<int64_t>::max(),
                            std::numeric_limits<int64_t>::min()};
  for (const int64_t v : values) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
    std::vector<uint8_t> buf;
    PutZigzag(&buf, v);
    ByteReader reader(buf.data(), buf.size());
    int64_t got = 0;
    ASSERT_TRUE(reader.GetZigzag(&got));
    EXPECT_EQ(got, v);
  }
}

TEST(StoreFormatTest, Crc32MatchesKnownVector) {
  const char* check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check), 9), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

// CRC-32 one bit at a time, straight from the reflected polynomial.
uint32_t BitwiseCrc32(const uint8_t* data, size_t size) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    crc ^= data[i];
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xEDB88320u : 0u);
    }
  }
  return crc ^ 0xFFFFFFFFu;
}

TEST(StoreFormatTest, Crc32MatchesBitwiseReference) {
  std::vector<uint8_t> buffer(size_t{1} << 20);
  uint64_t x = 0x9E3779B97F4A7C15ull;  // xorshift64
  for (uint8_t& byte : buffer) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    byte = static_cast<uint8_t>(x >> 56);
  }
  // Every length around the 8-byte stride, at every alignment.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      ASSERT_EQ(Crc32(buffer.data() + offset, length),
                BitwiseCrc32(buffer.data() + offset, length))
          << "offset " << offset << " length " << length;
    }
  }
  EXPECT_EQ(Crc32(buffer), BitwiseCrc32(buffer.data(), buffer.size()));
  // Extending a CRC piece by piece gives the CRC of the whole.
  for (const size_t split : {size_t{0}, size_t{1}, size_t{4099}, buffer.size()}) {
    EXPECT_EQ(Crc32Extend(Crc32(buffer.data(), split), buffer.data() + split,
                          buffer.size() - split),
              Crc32(buffer))
        << "split " << split;
  }
}

TEST(StoreFormatTest, Crc32CombineJoinsPiecesOfAnySplit) {
  std::vector<uint8_t> buffer(4096);
  uint64_t x = 0x9E3779B97F4A7C15ull;  // xorshift64
  const auto next = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  for (uint8_t& byte : buffer) {
    byte = static_cast<uint8_t>(next() >> 56);
  }
  const auto joined = [&](const uint8_t* data, size_t split, size_t length) {
    return Crc32Combine(Crc32(data, split), Crc32(data + split, length - split),
                        length - split);
  };
  // Every split of every length around the 8-byte slicing step, empty
  // pieces included.
  for (size_t length = 0; length <= 24; ++length) {
    for (size_t split = 0; split <= length; ++split) {
      ASSERT_EQ(joined(buffer.data() + 1, split, length), Crc32(buffer.data() + 1, length))
          << "length " << length << " split " << split;
    }
  }
  // Random splits of longer pieces at every alignment.
  for (int trial = 0; trial < 500; ++trial) {
    const size_t offset = next() % 8;
    const size_t length = next() % (buffer.size() - offset + 1);
    const size_t split = next() % (length + 1);
    ASSERT_EQ(joined(buffer.data() + offset, split, length),
              Crc32(buffer.data() + offset, length))
        << "offset " << offset << " length " << length << " split " << split;
  }
  // A running CRC joined piece by piece, as the writer joins the metrics
  // section's pieces.
  uint32_t crc = 0;
  size_t at = 0;
  for (const size_t size : {size_t{0}, size_t{7}, size_t{8}, size_t{9}, size_t{1000}, size_t{0},
                            size_t{3}}) {
    crc = Crc32Combine(crc, Crc32(buffer.data() + at, size), size);
    at += size;
  }
  EXPECT_EQ(crc, Crc32(buffer.data(), at));
}

TEST(StoreFormatTest, QuantizeScaledGuardsNonRepresentableValues) {
  int64_t q = 0;
  EXPECT_TRUE(QuantizeScaled(1.5, kMicrosPerSecond, &q));
  EXPECT_EQ(q, 1500000);
  EXPECT_EQ(DequantizeScaled(q, kMicrosPerSecond), 1.5);
  EXPECT_FALSE(QuantizeScaled(std::nan(""), kMicrosPerSecond, &q));
  EXPECT_FALSE(QuantizeScaled(std::numeric_limits<double>::infinity(),
                              kMicrosPerSecond, &q));
  EXPECT_FALSE(QuantizeScaled(1e300, kMicrosPerSecond, &q));
}

// ---------------------------------------------------------------------------
// Round-trip property tests on a generated workload.
// ---------------------------------------------------------------------------

class TraceStoreFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    FleetConfig fleet_config;
    fleet_config.seed = 21;
    fleet_config.user_count = 8;
    fleet_ = new Fleet(BuildFleet(fleet_config));
    WorkloadConfig config;
    config.seed = 22;
    config.window_steps = 40;
    result_ = new WorkloadResult(WorkloadGenerator(*fleet_, config).Generate());
  }
  static void TearDownTestSuite() {
    delete result_;
    delete fleet_;
    result_ = nullptr;
    fleet_ = nullptr;
  }

  static Fleet* fleet_;
  static WorkloadResult* result_;
};

Fleet* TraceStoreFixture::fleet_ = nullptr;
WorkloadResult* TraceStoreFixture::result_ = nullptr;

TEST_F(TraceStoreFixture, ExactRoundTripIsBitIdentical) {
  const std::string path = TempPath("rt_exact.ebst");
  ASSERT_TRUE(WriteDatasetToStore(path, result_->traces, 1.0, 40,
                                  {.precision = StorePrecision::kExact}));
  const TraceStoreReader reader(path);
  EXPECT_EQ(reader.info().precision, StorePrecision::kExact);
  EXPECT_EQ(reader.info().record_count, result_->traces.records.size());
  EXPECT_FALSE(reader.info().has_metrics);
  const TraceDataset decoded = reader.ReadAll();
  std::remove(path.c_str());
  EXPECT_EQ(Bits(decoded.sampling_rate), Bits(result_->traces.sampling_rate));
  EXPECT_EQ(Bits(decoded.window_seconds), Bits(result_->traces.window_seconds));
  ExpectRecordsBitIdentical(decoded.records, result_->traces.records);
}

TEST_F(TraceStoreFixture, ExportRoundTripKeepsCsvFidelityAndFingerprint) {
  const std::string path = TempPath("rt_export.ebst");
  ASSERT_TRUE(WriteDatasetToStore(path, result_->traces, 1.0, 40,
                                  {.precision = StorePrecision::kExport}));
  const TraceStoreReader reader(path);
  EXPECT_EQ(reader.info().precision, StorePrecision::kExport);
  const TraceDataset decoded = reader.ReadAll();
  std::remove(path.c_str());

  // The identity contract: export precision preserves the fingerprint (it is
  // defined at exactly this fidelity) ...
  EXPECT_EQ(AggregateFingerprint(decoded), AggregateFingerprint(result_->traces));

  // ... and every decoded value is the original rounded to the CSV grid.
  ASSERT_EQ(decoded.records.size(), result_->traces.records.size());
  for (size_t i = 0; i < decoded.records.size(); ++i) {
    const TraceRecord& g = decoded.records[i];
    const TraceRecord& w = result_->traces.records[i];
    EXPECT_EQ(g.timestamp,
              static_cast<double>(std::llround(w.timestamp * kMicrosPerSecond)) /
                  kMicrosPerSecond)
        << "record " << i;
    EXPECT_EQ(g.offset, w.offset) << "record " << i;
    EXPECT_EQ(g.size_bytes, w.size_bytes) << "record " << i;
    for (int c = 0; c < kStackComponentCount; ++c) {
      EXPECT_EQ(g.latency.component_us[c],
                static_cast<double>(
                    std::llround(w.latency.component_us[c] * kCentiPerMicro)) /
                    kCentiPerMicro)
          << "record " << i << " component " << c;
    }
  }
}

TEST_F(TraceStoreFixture, EmptyDatasetRoundTrips) {
  const std::string path = TempPath("rt_empty.ebst");
  TraceDataset empty;
  ASSERT_TRUE(WriteDatasetToStore(path, empty, 1.0, 0));
  const TraceStoreReader reader(path);
  EXPECT_EQ(reader.info().record_count, 0u);
  EXPECT_EQ(reader.info().chunk_count, 0u);
  EXPECT_TRUE(reader.ReadAll().records.empty());
  WorkloadResult result;
  EXPECT_THROW(reader.ReadMetricsInto(&result), TraceStoreError);
  std::remove(path.c_str());
}

TEST_F(TraceStoreFixture, SingleRecordChunksRoundTrip) {
  const std::string path = TempPath("rt_single.ebst");
  ASSERT_TRUE(WriteDatasetToStore(
      path, result_->traces, 1.0, 40,
      {.precision = StorePrecision::kExact, .chunk_records = 1}));
  const TraceStoreReader reader(path);
  ASSERT_EQ(reader.info().chunk_count, result_->traces.records.size());
  // Random access decodes any chunk independently.
  std::vector<TraceRecord> records;
  std::vector<uint32_t> steps;
  reader.ReadChunk(reader.chunks().size() / 2, &records, &steps);
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(steps.size(), 1u);
  const TraceDataset decoded = reader.ReadAll();
  std::remove(path.c_str());
  ExpectRecordsBitIdentical(decoded.records, result_->traces.records);
}

TEST_F(TraceStoreFixture, MetricsSectionRoundTripsExactly) {
  const std::string path = TempPath("rt_metrics.ebst");
  ASSERT_TRUE(WriteWorkloadToStore(path, *result_, 1.0,
                                   {.precision = StorePrecision::kExact}));
  const TraceStoreReader reader(path);
  ASSERT_TRUE(reader.info().has_metrics);

  WorkloadResult got;
  reader.ReadMetricsInto(&got);
  std::remove(path.c_str());

  ASSERT_EQ(got.metrics.window_steps, result_->metrics.window_steps);
  EXPECT_EQ(got.metrics.step_seconds, result_->metrics.step_seconds);
  ASSERT_EQ(got.metrics.qp_series.size(), result_->metrics.qp_series.size());
  for (size_t q = 0; q < got.metrics.qp_series.size(); ++q) {
    ExpectRwSeriesEqual(got.metrics.qp_series[q], result_->metrics.qp_series[q], "qp");
  }
  // The map comes back as it was held, source for source and entry for
  // entry: decode builds no per-segment series.
  const SegmentSeriesMap& segments = got.metrics.segment_series;
  ASSERT_EQ(segments.sources().size(), result_->metrics.segment_series.sources().size());
  ASSERT_EQ(segments.entries().size(), result_->metrics.segment_series.entries().size());
  for (size_t i = 0; i < segments.entries().size(); ++i) {
    const SegmentEntry& g = segments.entries()[i];
    const SegmentEntry& w = result_->metrics.segment_series.entries()[i];
    EXPECT_EQ(g.id, w.id) << "entry " << i;
    EXPECT_EQ(g.source, w.source) << "entry " << i;
    EXPECT_EQ(Bits(g.read_weight), Bits(w.read_weight)) << "entry " << i;
    EXPECT_EQ(Bits(g.write_weight), Bits(w.write_weight)) << "entry " << i;
  }
  ASSERT_EQ(segments.size(), result_->metrics.segment_series.size());
  result_->metrics.segment_series.ForEachSorted([&got](uint32_t seg, const RwSeries& series) {
    const std::optional<SegmentView> round_tripped = got.metrics.segment_series.Find(seg);
    ASSERT_TRUE(round_tripped.has_value()) << "segment " << seg;
    ExpectRwSeriesEqual(round_tripped->Materialize(), series, "segment");
  });
  ASSERT_EQ(got.offered_vd.size(), result_->offered_vd.size());
  for (size_t v = 0; v < got.offered_vd.size(); ++v) {
    ExpectRwSeriesEqual(got.offered_vd[v], result_->offered_vd[v], "offered_vd");
  }
  ASSERT_EQ(got.vd_truth.size(), result_->vd_truth.size());
  for (size_t v = 0; v < got.vd_truth.size(); ++v) {
    const VdGroundTruth& g = got.vd_truth[v];
    const VdGroundTruth& w = result_->vd_truth[v];
    EXPECT_EQ(g.read_active, w.read_active) << "vd " << v;
    EXPECT_EQ(g.write_active, w.write_active) << "vd " << v;
    EXPECT_EQ(Bits(g.mean_read_bps), Bits(w.mean_read_bps)) << "vd " << v;
    EXPECT_EQ(Bits(g.mean_write_bps), Bits(w.mean_write_bps)) << "vd " << v;
    EXPECT_EQ(g.hot_offset, w.hot_offset) << "vd " << v;
    EXPECT_EQ(g.hot_bytes, w.hot_bytes) << "vd " << v;
    EXPECT_EQ(Bits(g.hot_prob_read), Bits(w.hot_prob_read)) << "vd " << v;
    EXPECT_EQ(Bits(g.hot_prob_write), Bits(w.hot_prob_write)) << "vd " << v;
  }
  EXPECT_EQ(got.faults.issued, result_->faults.issued);
  EXPECT_EQ(got.faults.completed, result_->faults.completed);
  EXPECT_EQ(got.faults.timed_out, result_->faults.timed_out);
  EXPECT_EQ(got.faults.retries, result_->faults.retries);
  EXPECT_EQ(got.faults.failovers, result_->faults.failovers);
  EXPECT_EQ(got.faults.slowed, result_->faults.slowed);
  EXPECT_EQ(got.faults.hiccuped, result_->faults.hiccuped);
  EXPECT_EQ(got.faults.degraded_steps, result_->faults.degraded_steps);
}

// The writer's bytes, pinned: a multi-chunk store with a metrics section at
// both precisions. Each block's encoding is the first smallest of its
// candidates in a fixed order (delta plain, delta RLE, raw plain, raw RLE,
// shift plain, shift RLE), so these digests also pin the tie-breaks. FNV-1a
// rather than Crc32, so the pin does not depend on the store's own code.
TEST_F(TraceStoreFixture, WrittenBytesArePinnedAtBothPrecisions) {
  const struct {
    StorePrecision precision;
    uint64_t fnv;
  } cases[] = {{StorePrecision::kExact, 0xbac6771cccb2688bull},
               {StorePrecision::kExport, 0x37c7e66857ce2639ull}};
  for (const auto& c : cases) {
    const std::string path = TempPath("pinned_bytes.ebst");
    ASSERT_TRUE(WriteWorkloadToStore(path, *result_, 1.0,
                                     {.precision = c.precision, .chunk_records = 64}));
    const std::vector<uint8_t> bytes = ReadFileBytes(path);
    std::remove(path.c_str());
    uint64_t hash = 0xCBF29CE484222325ull;
    for (const uint8_t byte : bytes) {
      hash = (hash ^ byte) * 0x100000001B3ull;
    }
    EXPECT_EQ(hash, c.fnv) << "precision " << static_cast<int>(c.precision) << ", "
                           << bytes.size() << " bytes";
  }
}

// Append flushes one chunk at a time through the chunk writer that
// WriteWorkloadToStore hands the whole dataset to, where the chunks encode
// in parallel; the files are the same bytes.
TEST_F(TraceStoreFixture, AppendedStoreIsByteIdenticalToTheBatchWriter) {
  for (const StorePrecision precision : {StorePrecision::kExact, StorePrecision::kExport}) {
    const TraceStoreOptions options{.precision = precision, .chunk_records = 64};
    const std::string batch = TempPath("append_batch.ebst");
    ASSERT_TRUE(WriteWorkloadToStore(batch, *result_, 1.0, options));
    TraceStoreMeta meta;
    meta.sampling_rate = result_->traces.sampling_rate;
    meta.window_seconds = result_->traces.window_seconds;
    meta.step_seconds = 1.0;
    meta.window_steps = static_cast<uint32_t>(result_->metrics.window_steps);
    const std::string appended = TempPath("append_one.ebst");
    TraceStoreWriter writer(appended, meta, options);
    uint32_t step = 0;
    for (const TraceRecord& record : result_->traces.records) {
      // The batch writer's step: floor(timestamp), inside the window, never
      // regressing.
      const double raw = std::floor(std::max(record.timestamp, 0.0));
      step = std::max(step, raw >= meta.window_steps ? meta.window_steps - 1
                                                     : static_cast<uint32_t>(raw));
      ASSERT_TRUE(writer.Append(record, step));
    }
    ASSERT_TRUE(writer.Finish(*result_));
    EXPECT_GT(writer.records_written(), 4u * options.chunk_records);
    EXPECT_TRUE(ReadFileBytes(appended) == ReadFileBytes(batch))
        << "precision " << static_cast<int>(precision);
    std::remove(batch.c_str());
    std::remove(appended.c_str());
  }
}

// Extreme and adversarial values, hand-built: UINT64_MAX offsets, UINT32_MAX
// sizes, non-finite / denormal / negative doubles (which defeat the
// fixed-point grid and must fall back to the exact encoding even at export
// precision), and saturated fault annotations.
TEST(TraceStoreExtremesTest, ExtremeValuesRoundTripAtBothPrecisions) {
  std::vector<TraceRecord> records;
  const double doubles[] = {0.0,
                            -0.0,
                            1.5,
                            -273.25,
                            5e-324,  // smallest denormal
                            1e300,
                            std::numeric_limits<double>::infinity(),
                            -std::numeric_limits<double>::infinity(),
                            std::nan("")};
  const uint64_t offsets[] = {0, 511, 512, 4096, 1ull << 40,
                              std::numeric_limits<uint64_t>::max()};
  for (size_t i = 0; i < 24; ++i) {
    TraceRecord r;
    r.timestamp = doubles[i % (sizeof(doubles) / sizeof(doubles[0]))];
    r.op = i % 3 == 0 ? OpType::kWrite : OpType::kRead;
    r.size_bytes = i % 4 == 0 ? std::numeric_limits<uint32_t>::max()
                              : static_cast<uint32_t>(4096 * i);
    r.offset = offsets[i % (sizeof(offsets) / sizeof(offsets[0]))];
    r.user = UserId(static_cast<uint32_t>(i % 2));
    r.vm = VmId(static_cast<uint32_t>(i % 3));
    r.vd = VdId(static_cast<uint32_t>(i % 5));
    r.qp = QpId(static_cast<uint32_t>(i % 7));
    r.wt = WorkerThreadId(static_cast<uint32_t>(i % 4));
    r.cn = ComputeNodeId(std::numeric_limits<uint32_t>::max());
    r.segment = SegmentId(static_cast<uint32_t>(i * 1000));
    r.bs = BlockServerId(static_cast<uint32_t>(i % 6));
    r.sn = StorageNodeId(static_cast<uint32_t>(i % 6));
    for (int c = 0; c < kStackComponentCount; ++c) {
      r.latency.component_us[c] =
          doubles[(i + static_cast<size_t>(c)) % (sizeof(doubles) / sizeof(doubles[0]))];
    }
    r.fault_retries = i % 2 == 0 ? 255 : static_cast<uint8_t>(i);
    r.fault_timed_out = i % 3 == 0;
    r.fault_failed_over = i % 5 == 0;
    records.push_back(r);
  }

  for (const auto precision : {StorePrecision::kExact, StorePrecision::kExport}) {
    const std::string path = TempPath("rt_extreme.ebst");
    TraceStoreMeta meta;
    meta.window_steps = 4;
    meta.window_seconds = 4.0;
    TraceStoreWriter writer(path, meta, {.precision = precision, .chunk_records = 7});
    for (size_t i = 0; i < records.size(); ++i) {
      ASSERT_TRUE(writer.Append(records[i], static_cast<uint32_t>(i / 8)));
    }
    ASSERT_TRUE(writer.Finish());

    const TraceStoreReader reader(path);
    const TraceDataset decoded = reader.ReadAll();
    std::remove(path.c_str());
    // Non-finite and out-of-grid values force the per-column exact fallback,
    // so even the export store reproduces these records bit for bit.
    ExpectRecordsBitIdentical(decoded.records, records);
  }
}

// ---------------------------------------------------------------------------
// Writer contract.
// ---------------------------------------------------------------------------

TEST_F(TraceStoreFixture, UnopenablePathReturnsFalse) {
  EXPECT_FALSE(WriteDatasetToStore("/nonexistent-dir/t.ebst", result_->traces, 1.0, 40));
  TraceStoreMeta meta;
  meta.window_steps = 40;
  TraceStoreWriter writer("/nonexistent-dir/t.ebst", meta);
  EXPECT_FALSE(writer.ok());
  EXPECT_FALSE(writer.Append(result_->traces.records[0], 0));
  EXPECT_FALSE(writer.Finish());
}

TEST_F(TraceStoreFixture, DiskFullFailureIsNotSilent) {
  // /dev/full absorbs buffered writes and loses them at flush time — the
  // writer must report that, not pretend the store reached disk.
  if (!DevFullAvailable()) {
    GTEST_SKIP() << "/dev/full not available";
  }
  TraceStoreMeta meta;
  meta.window_steps = 40;
  TraceStoreWriter writer("/dev/full", meta);
  bool ok = true;
  for (const TraceRecord& record : result_->traces.records) {
    ok = writer.Append(record, 0) && ok;
  }
  ok = writer.Finish() && ok;
  EXPECT_FALSE(ok);
  EXPECT_FALSE(WriteDatasetToStore("/dev/full", result_->traces, 1.0, 40));
  EXPECT_FALSE(WriteWorkloadToStore("/dev/full", *result_, 1.0));
}

TEST_F(TraceStoreFixture, AppendRejectsOutOfWindowAndRegressingSteps) {
  const std::string path = TempPath("rt_steps.ebst");
  TraceStoreMeta meta;
  meta.window_steps = 2;
  {
    TraceStoreWriter writer(path, meta);
    EXPECT_FALSE(writer.Append(result_->traces.records[0], 2));  // >= window_steps
    EXPECT_FALSE(writer.ok());  // sticky
    EXPECT_FALSE(writer.Finish());
  }
  {
    TraceStoreWriter writer(path, meta);
    EXPECT_TRUE(writer.Append(result_->traces.records[0], 1));
    EXPECT_FALSE(writer.Append(result_->traces.records[1], 0));  // regression
    EXPECT_FALSE(writer.Finish());
  }
  std::remove(path.c_str());
}

TEST_F(TraceStoreFixture, WriterRefusesChunksAboveTheRecordBound) {
  // No reader accepts a chunk_target above kStoreMaxChunkRecords, and one of
  // 2^32 or more used to be truncated into the u32 header field.
  const std::string path = TempPath("rt_chunk_bound.ebst");
  for (const size_t chunk_records : {size_t{kStoreMaxChunkRecords} + 1, (size_t{1} << 32) + 7}) {
    TraceStoreMeta meta;
    meta.window_steps = 40;
    TraceStoreWriter writer(path, meta, {.chunk_records = chunk_records});
    EXPECT_FALSE(writer.ok()) << chunk_records;
    EXPECT_FALSE(writer.Append(result_->traces.records[0], 0)) << chunk_records;
    EXPECT_FALSE(writer.Finish()) << chunk_records;
    EXPECT_FALSE(WriteDatasetToStore(path, result_->traces, 1.0, 40,
                                     {.chunk_records = chunk_records}))
        << chunk_records;
  }
  ASSERT_TRUE(WriteDatasetToStore(path, result_->traces, 1.0, 40,
                                  {.chunk_records = kStoreMaxChunkRecords}));
  const TraceStoreReader reader(path);
  const TraceDataset decoded = reader.ReadAll();
  std::remove(path.c_str());
  ExpectRecordsBitIdentical(decoded.records, result_->traces.records);
}

// ---------------------------------------------------------------------------
// Corruption battery. Every mutation of a valid file must surface as a typed
// TraceStoreError — never UB, never silently wrong data.
// ---------------------------------------------------------------------------

class StoreCorruptionTest : public ::testing::Test {
 protected:
  // A complete replayable store (chunks + metrics section) from a miniature
  // run, so the sweeps cover every section of the format.
  static void SetUpTestSuite() {
    SimulationConfig config = DcPreset(1);
    config.fleet.user_count = 1;
    config.workload.window_steps = 10;
    const EbsSimulation sim(config);
    const std::string path = TempPath("corruption_base.ebst");
    ASSERT_TRUE(WriteWorkloadToStore(path, sim.workload(), 1.0,
                                     {.precision = StorePrecision::kExport,
                                      .chunk_records = 64}));
    base_ = new std::vector<uint8_t>(ReadFileBytes(path));
    std::remove(path.c_str());
    ASSERT_GT(base_->size(), kStoreHeaderBytes + kStoreTrailerBytes);
  }
  static void TearDownTestSuite() {
    delete base_;
    base_ = nullptr;
  }

  // Full read path: open + decode every chunk + decode the metrics section.
  static void ReadEverything(const std::string& path) {
    const TraceStoreReader reader(path);
    reader.ReadAll();
    if (reader.info().has_metrics) {
      WorkloadResult result;
      reader.ReadMetricsInto(&result);
    }
  }

  static void PutU32At(std::vector<uint8_t>* bytes, size_t at, uint32_t value) {
    for (size_t i = 0; i < 4; ++i) {
      (*bytes)[at + i] = static_cast<uint8_t>(value >> (8 * i));
    }
  }

  static void FixHeaderCrc(std::vector<uint8_t>* bytes) {
    PutU32At(bytes, kStoreHeaderBytes - 4, Crc32(bytes->data(), kStoreHeaderBytes - 4));
  }

  // Where the chunks (the first one's payload too), the footer and the
  // metrics section of a store sit, read back through its trailer and footer.
  struct Layout {
    size_t chunk_payload = 0;
    size_t chunk_payload_size = 0;
    std::vector<size_t> chunks;  // each chunk's header
    size_t footer = 0;
    size_t footer_size = 0;
    size_t metrics = 0;
    size_t metrics_size = 0;
  };

  static Layout LayoutOf(const std::vector<uint8_t>& bytes) {
    Layout layout;
    ByteReader chunk_header(bytes.data() + kStoreHeaderBytes, kStoreChunkHeaderBytes);
    uint32_t records = 0;
    uint32_t payload_size = 0;
    EXPECT_TRUE(chunk_header.GetU32(&records) && chunk_header.GetU32(&payload_size));
    layout.chunk_payload = kStoreHeaderBytes + kStoreChunkHeaderBytes;
    layout.chunk_payload_size = payload_size;

    ByteReader trailer(bytes.data() + bytes.size() - kStoreTrailerBytes, kStoreTrailerBytes);
    uint64_t footer = 0;
    uint64_t footer_size = 0;
    EXPECT_TRUE(trailer.GetU64(&footer) && trailer.GetU64(&footer_size));
    layout.footer = static_cast<size_t>(footer);
    layout.footer_size = static_cast<size_t>(footer_size);

    ByteReader index(bytes.data() + layout.footer, layout.footer_size);
    uint64_t record_count = 0;
    uint64_t chunk_count = 0;
    EXPECT_TRUE(index.GetVarint(&record_count) && index.GetVarint(&chunk_count));
    uint64_t chunk = 0;
    for (uint64_t i = 0; i < chunk_count; ++i) {  // (offset delta, records) pairs
      uint64_t delta = 0;
      uint64_t records_in_chunk = 0;
      EXPECT_TRUE(index.GetVarint(&delta) && index.GetVarint(&records_in_chunk));
      chunk += delta;
      layout.chunks.push_back(static_cast<size_t>(chunk));
    }
    uint64_t metrics = 0;
    uint64_t metrics_size = 0;
    EXPECT_TRUE(index.GetVarint(&metrics) && index.GetVarint(&metrics_size));
    layout.metrics = static_cast<size_t>(metrics);
    layout.metrics_size = static_cast<size_t>(metrics_size);
    return layout;
  }

  // The header of a hand-built store: a 10-step window, no flags.
  static std::vector<uint8_t> Header(uint32_t chunk_target = 4096) {
    std::vector<uint8_t> bytes;
    PutU32(&bytes, kStoreMagic);
    PutU32(&bytes, kStoreVersion);
    PutU32(&bytes, 0);  // flags
    PutU32(&bytes, chunk_target);
    PutF64(&bytes, kTraceSamplingRate);
    PutF64(&bytes, 10.0);  // window_seconds
    PutF64(&bytes, 1.0);   // step_seconds
    PutU32(&bytes, 10);    // window_steps
    PutU32(&bytes, Crc32(bytes));
    return bytes;
  }

  // Appends `footer`, then the trailer that seals it.
  static void AppendFooterAndTrailer(std::vector<uint8_t>* bytes,
                                     const std::vector<uint8_t>& footer) {
    const uint64_t footer_offset = bytes->size();
    bytes->insert(bytes->end(), footer.begin(), footer.end());
    PutU64(bytes, footer_offset);
    PutU64(bytes, footer.size());
    PutU32(bytes, Crc32(footer));
    PutU32(bytes, kStoreTrailerMagic);
  }

  // A store with no chunks whose metrics section is `section` (for a 10-step
  // window), every CRC valid.
  static std::vector<uint8_t> StoreWithMetricsSection(const std::vector<uint8_t>& section) {
    std::vector<uint8_t> bytes = Header();
    bytes.insert(bytes.end(), section.begin(), section.end());
    std::vector<uint8_t> footer;
    PutVarint(&footer, 0);  // records
    PutVarint(&footer, 0);  // chunks
    PutVarint(&footer, kStoreHeaderBytes);
    PutVarint(&footer, section.size());
    PutU32(&footer, Crc32(section));
    AppendFooterAndTrailer(&bytes, footer);
    return bytes;
  }

  // One row of a metrics section's segment entry table as it travels: the id
  // as a delta from the previous id (the first is absolute).
  struct WireEntry {
    uint64_t id_delta = 0;
    uint64_t source = 0;
    double read_weight = 1.0;
    double write_weight = 1.0;
  };

  // A metrics section for a one-VD, one-QP fleet over a 10-step window: an
  // all-zero qp series, one all-zero source series, `entries`, an all-zero
  // offered-VD series, a zeroed truth record and zeroed fault stats.
  static std::vector<uint8_t> SectionWithEntries(const std::vector<WireEntry>& entries) {
    const auto zero_series = [](std::vector<uint8_t>* out) {
      out->insert(out->end(), 8, 0);  // four all-zero blocks: [tag 0][length 0]
    };
    std::vector<uint8_t> section;
    PutVarint(&section, 10);  // window_steps and step_seconds match the header
    PutF64(&section, 1.0);
    PutVarint(&section, 1);  // qp series
    zero_series(&section);
    PutVarint(&section, 1);  // source series
    zero_series(&section);
    PutVarint(&section, entries.size());
    for (const WireEntry& entry : entries) {
      PutVarint(&section, entry.id_delta);
      PutVarint(&section, entry.source);
      PutF64(&section, entry.read_weight);
      PutF64(&section, entry.write_weight);
    }
    PutVarint(&section, 1);  // offered-VD series
    zero_series(&section);
    PutVarint(&section, 1);  // ground truth: flags, two f64, two varints, two f64
    section.push_back(0);
    PutF64(&section, 0.0);
    PutF64(&section, 0.0);
    PutVarint(&section, 0);
    PutVarint(&section, 0);
    PutF64(&section, 0.0);
    PutF64(&section, 0.0);
    for (int i = 0; i < 8; ++i) {
      PutVarint(&section, 0);  // fault stats
    }
    return section;
  }

  // `bytes` with the payload_size of the chunk at `chunk` (by default the
  // first, which follows the header) shrunk by one and the chunk CRC resealed
  // over the shorter payload: the CRC gate passes, and the column decoder
  // meets a block that overruns the payload.
  static std::vector<uint8_t> ShrinkFirstChunkPayload(std::vector<uint8_t> bytes,
                                                      size_t chunk = kStoreHeaderBytes) {
    ByteReader header(bytes.data() + chunk, kStoreChunkHeaderBytes);
    uint32_t records = 0;
    uint32_t payload_size = 0;
    EXPECT_TRUE(header.GetU32(&records) && header.GetU32(&payload_size));
    EXPECT_GT(payload_size, 0u);
    PutU32At(&bytes, chunk + 4, payload_size - 1);
    PutU32At(&bytes, chunk + 8,
             Crc32(bytes.data() + chunk + kStoreChunkHeaderBytes, payload_size - 1));
    return bytes;
  }

  // Where each series of a store's metrics section starts (the qp, source
  // and offered-VD series, in file order), whether its first block carries a
  // payload, and where the first segment entry's read weight sits.
  struct MetricsLayout {
    std::vector<size_t> series;
    std::vector<bool> payload;
    size_t first_offered = 0;  // index in `series` of the first offered-VD series
    size_t first_entry_weight = 0;
  };

  static MetricsLayout MetricsLayoutOf(const std::vector<uint8_t>& bytes) {
    const Layout layout = LayoutOf(bytes);
    ByteReader reader(bytes.data() + layout.metrics, layout.metrics_size);
    MetricsLayout metrics;
    uint64_t steps = 0;
    double step_seconds = 0.0;
    EXPECT_TRUE(reader.GetVarint(&steps) && reader.GetF64(&step_seconds));
    const auto series_list = [&] {
      uint64_t count = 0;
      EXPECT_TRUE(reader.GetVarint(&count));
      for (uint64_t i = 0; i < count; ++i) {
        metrics.series.push_back(static_cast<size_t>(reader.pos - bytes.data()));
        for (int block = 0; block < 4; ++block) {
          uint8_t tag = 0;
          uint64_t size = 0;
          ByteReader payload;
          EXPECT_TRUE(reader.GetByte(&tag) && reader.GetVarint(&size) &&
                      reader.GetSpan(static_cast<size_t>(size), &payload));
          if (block == 0) {
            metrics.payload.push_back(size > 0);
          }
        }
      }
    };
    series_list();  // qp
    series_list();  // sources
    uint64_t entries = 0;
    EXPECT_TRUE(reader.GetVarint(&entries));
    EXPECT_GT(entries, 0u);
    for (uint64_t i = 0; i < entries; ++i) {
      uint64_t skipped = 0;
      double weight = 0.0;
      EXPECT_TRUE(reader.GetVarint(&skipped) && reader.GetVarint(&skipped));
      if (i == 0) {
        metrics.first_entry_weight = static_cast<size_t>(reader.pos - bytes.data());
      }
      EXPECT_TRUE(reader.GetF64(&weight) && reader.GetF64(&weight));
    }
    metrics.first_offered = metrics.series.size();
    series_list();  // offered-VD
    return metrics;
  }

  // Recomputes the metrics section's CRC in the footer, and the footer's in
  // the trailer.
  static void ResealMetrics(std::vector<uint8_t>* bytes) {
    const Layout layout = LayoutOf(*bytes);
    PutU32At(bytes, layout.footer + layout.footer_size - 4,
             Crc32(bytes->data() + layout.metrics, layout.metrics_size));
    PutU32At(bytes, bytes->size() - kStoreTrailerBytes + 16,
             Crc32(bytes->data() + layout.footer, layout.footer_size));
  }

  // The error a full read of `bytes` ends with: its code and its message.
  static std::pair<StoreErrorCode, std::string> ErrorOf(const std::vector<uint8_t>& bytes) {
    const std::string path = TempPath("corruption_order.ebst");
    WriteFileBytes(path, bytes);
    try {
      ReadEverything(path);
    } catch (const TraceStoreError& error) {
      std::remove(path.c_str());
      return {error.code(), error.what()};
    }
    std::remove(path.c_str());
    ADD_FAILURE() << "no error thrown";
    return {StoreErrorCode::kIoError, ""};
  }

  static StoreErrorCode CodeOf(const std::string& path) {
    try {
      ReadEverything(path);
    } catch (const TraceStoreError& error) {
      return error.code();
    }
    ADD_FAILURE() << "no error thrown";
    return StoreErrorCode::kIoError;
  }

  static std::vector<uint8_t>* base_;
};

std::vector<uint8_t>* StoreCorruptionTest::base_ = nullptr;

TEST_F(StoreCorruptionTest, BaseFileIsValid) {
  const std::string path = TempPath("corruption_ok.ebst");
  WriteFileBytes(path, *base_);
  EXPECT_NO_THROW(ReadEverything(path));
  std::remove(path.c_str());
}

TEST_F(StoreCorruptionTest, TruncationAtEveryLengthIsDetected) {
  const std::string path = TempPath("corruption_trunc.ebst");
  for (size_t length = 0; length < base_->size(); ++length) {
    WriteFileBytes(path,
                   std::vector<uint8_t>(base_->begin(),
                                        base_->begin() + static_cast<ptrdiff_t>(length)));
    EXPECT_THROW(ReadEverything(path), TraceStoreError) << "length " << length;
  }
  std::remove(path.c_str());
}

TEST_F(StoreCorruptionTest, ByteFlipSweepAlwaysThrowsTypedError) {
  // Every byte of the file is covered by some CRC or validated bound, so any
  // single-byte flip must surface as a TraceStoreError. Under ASan/UBSan
  // (scripts/ci_smoke.sh) this also pins "corrupt input never reads out of
  // bounds".
  const std::string path = TempPath("corruption_flip.ebst");
  std::vector<uint8_t> mutated(*base_);
  for (size_t i = 0; i < mutated.size(); ++i) {
    mutated[i] ^= 0xFF;
    WriteFileBytes(path, mutated);
    EXPECT_THROW(ReadEverything(path), TraceStoreError) << "byte " << i;
    mutated[i] ^= 0xFF;  // restore
  }
  std::remove(path.c_str());
}

TEST_F(StoreCorruptionTest, ResealedByteFlipsReachTheDecoders) {
  // The sweep above stops at the CRC gates. Here every flip in the first
  // chunk payload and in the metrics section has its covering CRCs
  // recomputed, so the column and series decoders see the corrupt bytes
  // themselves: each full read must either return or throw TraceStoreError.
  const Layout layout = LayoutOf(*base_);
  ASSERT_GT(layout.chunk_payload_size, 0u);
  ASSERT_GT(layout.metrics_size, 0u);
  const std::string path = TempPath("corruption_resealed.ebst");
  size_t decode_errors = 0;
  const auto sweep = [&](size_t begin, size_t size, auto reseal) {
    std::vector<uint8_t> bytes(*base_);
    for (size_t i = begin; i < begin + size; ++i) {
      bytes[i] ^= 0xFF;
      reseal(&bytes);
      WriteFileBytes(path, bytes);
      try {
        ReadEverything(path);
      } catch (const TraceStoreError& error) {
        // A CRC gate firing would mean the reseal missed, not a decoder check.
        EXPECT_NE(error.code(), StoreErrorCode::kChunkCorrupt) << "byte " << i;
        decode_errors += error.code() == StoreErrorCode::kDecodeError ? 1 : 0;
      } catch (const std::exception& error) {
        ADD_FAILURE() << "byte " << i << ": untyped " << error.what();
      }
      bytes[i] ^= 0xFF;
    }
  };
  sweep(layout.chunk_payload, layout.chunk_payload_size, [&](std::vector<uint8_t>* bytes) {
    PutU32At(bytes, kStoreHeaderBytes + 8,
             Crc32(bytes->data() + layout.chunk_payload, layout.chunk_payload_size));
  });
  sweep(layout.metrics, layout.metrics_size, [&](std::vector<uint8_t>* bytes) {
    PutU32At(bytes, layout.footer + layout.footer_size - 4,
             Crc32(bytes->data() + layout.metrics, layout.metrics_size));
    PutU32At(bytes, bytes->size() - kStoreTrailerBytes + 16,
             Crc32(bytes->data() + layout.footer, layout.footer_size));
  });
  std::remove(path.c_str());
  EXPECT_GT(decode_errors, 0u);
}

TEST_F(StoreCorruptionTest, FirstChunkErrorInFileOrderWins) {
  // Chunks are read in order on the calling thread but CRC-checked and
  // decoded on workers, so a later chunk can fail first. The error reported
  // is still the first in file order: chunk 1's decode error, never chunk
  // 3's CRC mismatch or header mismatch. The base run's records, in 4-record
  // chunks:
  const std::string path = TempPath("corruption_chunks.ebst");
  WriteFileBytes(path, *base_);
  const TraceDataset dataset = TraceStoreReader(path).ReadAll();
  ASSERT_TRUE(WriteDatasetToStore(path, dataset, 1.0, 10,
                                  {.precision = StorePrecision::kExport, .chunk_records = 4}));
  const std::vector<uint8_t> chunked = ReadFileBytes(path);
  std::remove(path.c_str());
  const Layout layout = LayoutOf(chunked);
  ASSERT_GE(layout.chunks.size(), 4u);
  const size_t third = layout.chunks[3];
  const auto crc_mismatch = [&](std::vector<uint8_t> bytes) {
    bytes[third + kStoreChunkHeaderBytes] ^= 0xFF;  // payload flipped, CRC not resealed
    return bytes;
  };
  const auto header_mismatch = [&](std::vector<uint8_t> bytes) {
    ByteReader header(bytes.data() + third, kStoreChunkHeaderBytes);
    uint32_t records = 0;
    EXPECT_TRUE(header.GetU32(&records));
    PutU32At(&bytes, third, records + 1);  // disagrees with the footer index
    return bytes;
  };
  const std::vector<uint8_t> decode_error = ShrinkFirstChunkPayload(chunked, layout.chunks[1]);
  const auto lone = ErrorOf(decode_error);
  ASSERT_EQ(lone.first, StoreErrorCode::kDecodeError) << lone.second;
  const auto lone_crc = ErrorOf(crc_mismatch(chunked));
  EXPECT_EQ(lone_crc.first, StoreErrorCode::kChunkCorrupt);
  const auto lone_header = ErrorOf(header_mismatch(chunked));
  EXPECT_EQ(lone_header.first, StoreErrorCode::kChunkCorrupt);
  EXPECT_NE(lone_crc.second, lone_header.second);

  EXPECT_EQ(ErrorOf(crc_mismatch(decode_error)), lone);
  EXPECT_EQ(ErrorOf(header_mismatch(decode_error)), lone);
}

TEST_F(StoreCorruptionTest, FirstMetricsErrorInFileOrderWins) {
  // Metric series decode on workers, in pieces of consecutive series, and
  // the walk over the section's counts, entries and truth records runs ahead
  // of them on the calling thread. Every error still ranks by file order.
  // Each mutation below is resealed, so the CRC gate passes and the decoders
  // meet it. An 8-user run has series enough for several pieces.
  SimulationConfig config = DcPreset(1);
  config.fleet.user_count = 8;
  config.workload.window_steps = 10;
  const EbsSimulation sim(config);
  const std::string path = TempPath("corruption_series.ebst");
  ASSERT_TRUE(WriteWorkloadToStore(path, sim.workload(), 1.0));
  const std::vector<uint8_t> store = ReadFileBytes(path);
  std::remove(path.c_str());
  const MetricsLayout metrics = MetricsLayoutOf(store);
  std::vector<size_t> with_payload;  // qp and source series whose first block has a payload
  for (size_t i = 0; i < metrics.first_offered; ++i) {
    if (metrics.payload[i]) {
      with_payload.push_back(metrics.series[i]);
    }
  }
  ASSERT_GE(with_payload.size(), 2u);
  ASSERT_GE(metrics.first_offered, 100u);
  ASSERT_LT(metrics.first_offered, metrics.series.size());
  // A tag no series block uses, and the all-zero tag over a payload, which
  // leaves trailing bytes: two different messages.
  const auto bad_tag = [](std::vector<uint8_t>* bytes, size_t series) { (*bytes)[series] = 0x7F; };
  const auto zero_tag = [](std::vector<uint8_t>* bytes, size_t series) { (*bytes)[series] = 0; };
  const auto error_of = [](std::vector<uint8_t> bytes) {
    ResealMetrics(&bytes);
    return ErrorOf(bytes);
  };
  const size_t first = with_payload.front();
  std::vector<uint8_t> zero_first = store;
  zero_tag(&zero_first, first);
  std::vector<uint8_t> tag_first = store;
  bad_tag(&tag_first, first);
  const auto lone_zero = error_of(zero_first);
  const auto lone_tag = error_of(tag_first);
  ASSERT_EQ(lone_zero.first, StoreErrorCode::kDecodeError) << lone_zero.second;
  ASSERT_EQ(lone_tag.first, StoreErrorCode::kDecodeError) << lone_tag.second;
  ASSERT_NE(lone_zero.second, lone_tag.second);

  // Two corrupt series, the next one with a payload and the last one before
  // the entries: the earlier one's error, whichever kind.
  for (const size_t later : {with_payload[1], with_payload.back()}) {
    std::vector<uint8_t> both = zero_first;
    bad_tag(&both, later);
    EXPECT_EQ(error_of(both), lone_zero) << "series at " << later;
    both = tag_first;
    zero_tag(&both, later);
    EXPECT_EQ(error_of(both), lone_tag) << "series at " << later;
  }

  // A NaN segment weight is found by the walk, after the qp and source
  // series and before the offered-VD series: it loses to a series error
  // before it and wins over one after it.
  std::vector<uint8_t> nan_weight = store;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  uint64_t nan_bits = 0;
  std::memcpy(&nan_bits, &nan, sizeof(nan_bits));
  for (size_t i = 0; i < 8; ++i) {
    nan_weight[metrics.first_entry_weight + i] = static_cast<uint8_t>(nan_bits >> (8 * i));
  }
  const auto lone_weight = error_of(nan_weight);
  ASSERT_EQ(lone_weight.first, StoreErrorCode::kDecodeError);
  std::vector<uint8_t> both = nan_weight;
  bad_tag(&both, with_payload.back());
  EXPECT_EQ(error_of(both), lone_tag);
  both = nan_weight;
  bad_tag(&both, metrics.series[metrics.first_offered]);
  EXPECT_EQ(error_of(both), lone_weight);
}

TEST_F(StoreCorruptionTest, OversizedMetricsCountsAreDecodeErrors) {
  // CRC-valid sections whose qp, source, entry, offered-VD or ground-truth
  // count is 2^39 - 1. A count is bounded by the bytes left in the section,
  // so it is rejected before anything is sized for it (reserving the qp
  // count used to throw std::bad_alloc).
  constexpr uint64_t kHugeCount = (uint64_t{1} << 39) - 1;
  const std::string path = TempPath("corruption_counts.ebst");
  for (int zero_counts = 0; zero_counts < 5; ++zero_counts) {
    std::vector<uint8_t> section;
    PutVarint(&section, 10);  // window_steps and step_seconds match the header
    PutF64(&section, 1.0);
    for (int i = 0; i < zero_counts; ++i) {
      PutVarint(&section, 0);
    }
    PutVarint(&section, kHugeCount);
    WriteFileBytes(path, StoreWithMetricsSection(section));
    EXPECT_EQ(CodeOf(path), StoreErrorCode::kDecodeError) << zero_counts << " counts before";
    if (zero_counts == 0) {
      // The qp case is also a fuzz_store corpus input.
      const std::string corpus =
          std::string(EBS_TEST_DATA_DIR) + "/fuzz/store/metrics_qp_count_overflow.ebst";
      EXPECT_TRUE(ReadFileBytes(corpus) == StoreWithMetricsSection(section));
      EXPECT_EQ(CodeOf(corpus), StoreErrorCode::kDecodeError);
    }
  }
  std::remove(path.c_str());
}

TEST_F(StoreCorruptionTest, SegmentIdNearTwoToThe32DecodesAndFailsReplay) {
  // A CRC-valid metrics section for a one-VD, one-QP fleet whose only segment
  // is id 0xFFFFFFF0. Decoding once sized an id-indexed slot table from it
  // (16 GiB); the segment map now keeps sorted entries, so the metrics decode
  // returns normally and store replay rejects the id against the fleet.
  constexpr uint32_t kHugeId = 0xFFFFFFF0u;
  const Fleet fleet = MakeTinyFleet({{{1}}});
  ASSERT_EQ(fleet.qps.size(), 1u);
  ASSERT_EQ(fleet.vds.size(), 1u);
  const std::string corpus =
      std::string(EBS_TEST_DATA_DIR) + "/fuzz/store/metrics_segment_id_near_2p32.ebst";
  ASSERT_TRUE(ReadFileBytes(corpus) ==
              StoreWithMetricsSection(SectionWithEntries({{.id_delta = kHugeId}})));

  const TraceStoreReader reader(corpus);
  WorkloadResult decoded;
  reader.ReadMetricsInto(&decoded);
  ASSERT_EQ(decoded.metrics.segment_series.size(), 1u);
  EXPECT_EQ(decoded.metrics.segment_series[0].id, kHugeId);

  ReplayEngine engine(fleet, std::make_unique<StoreReplaySource>(fleet, corpus));
  try {
    engine.Run();
    ADD_FAILURE() << "store replay accepted a segment id beyond the fleet";
  } catch (const TraceStoreError& error) {
    EXPECT_EQ(error.code(), StoreErrorCode::kMismatch) << error.what();
  }
}

TEST_F(StoreCorruptionTest, MalformedSegmentEntriesAreDecodeErrors) {
  // Each CRC-valid section names one source; every bad entry is caught
  // before AssignEntries could throw std::invalid_argument.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const struct {
    const char* what;
    std::vector<WireEntry> entries;
  } cases[] = {
      {"source at the source count", {{.id_delta = 3, .source = 1}}},
      {"NaN read weight", {{.id_delta = 3, .read_weight = nan}}},
      {"+inf write weight", {{.id_delta = 3, .write_weight = inf}}},
      {"negative weight", {{.id_delta = 3, .read_weight = -0.5}}},
      {"repeated id", {{.id_delta = 3}, {.id_delta = 0}}},
      {"descending id", {{.id_delta = 3}, {.id_delta = 0xFFFFFFFFu}}},  // 3 - 1 mod 2^32
      {"id delta beyond 32 bits", {{.id_delta = uint64_t{1} << 32}}},
  };
  const std::string path = TempPath("corruption_entries.ebst");
  for (const auto& c : cases) {
    WriteFileBytes(path, StoreWithMetricsSection(SectionWithEntries(c.entries)));
    EXPECT_EQ(CodeOf(path), StoreErrorCode::kDecodeError) << c.what;
  }

  // The same table with valid entries decodes: two segments sharing the one
  // source, a zero write weight and a -0.0 read weight included.
  WriteFileBytes(path, StoreWithMetricsSection(SectionWithEntries(
                           {{.id_delta = 3, .write_weight = 0.0},
                            {.id_delta = 2, .read_weight = -0.0, .write_weight = 0.25}})));
  const TraceStoreReader reader(path);
  WorkloadResult decoded;
  reader.ReadMetricsInto(&decoded);
  std::remove(path.c_str());
  const SegmentSeriesMap& segments = decoded.metrics.segment_series;
  ASSERT_EQ(segments.sources().size(), 1u);
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_EQ(segments[0].id, 3u);
  EXPECT_EQ(segments[1].id, 5u);
  EXPECT_EQ(segments[1].write_weight, 0.25);
}

TEST_F(StoreCorruptionTest, ChunkRecordCountBombIsAFooterError) {
  // A CRC-valid store whose only chunk claims 2^32 - 1 records over 22
  // all-zero column blocks. It used to open, and then ReadAll and ReadChunk
  // sized ~2^32 records (std::bad_alloc). A chunk may not hold more records
  // than the header's chunk_target, so the file is rejected at open.
  constexpr uint32_t kClaimed = 0xFFFFFFFFu;
  std::vector<uint8_t> bytes = Header();
  const std::vector<uint8_t> payload(22 * 2, 0);  // [tag 0][length 0] per column
  PutU32(&bytes, kClaimed);
  PutU32(&bytes, static_cast<uint32_t>(payload.size()));
  PutU32(&bytes, Crc32(payload));
  bytes.insert(bytes.end(), payload.begin(), payload.end());
  std::vector<uint8_t> footer;
  PutVarint(&footer, kClaimed);  // records
  PutVarint(&footer, 1);         // chunks: (offset delta, records)
  PutVarint(&footer, kStoreHeaderBytes);
  PutVarint(&footer, kClaimed);
  PutVarint(&footer, 0);  // no metrics section
  PutVarint(&footer, 0);
  PutU32(&footer, 0);
  AppendFooterAndTrailer(&bytes, footer);

  const std::string corpus =
      std::string(EBS_TEST_DATA_DIR) + "/fuzz/store/chunk_record_count_bomb.ebst";
  ASSERT_EQ(bytes.size(), 146u);
  ASSERT_TRUE(ReadFileBytes(corpus) == bytes);
  EXPECT_EQ(CodeOf(corpus), StoreErrorCode::kFooterCorrupt);
}

TEST_F(StoreCorruptionTest, ForgedRecordTotalDoesNotSizeReadAll) {
  // A CRC-valid footer listing 30,000 chunks of 65,536 records each, at
  // overlapping offsets into zero filler (a chunk count is only bounded by
  // the file size over 12). Every entry is within chunk_target, yet ReadAll
  // used to reserve their ~2^31 records before reading a chunk
  // (std::bad_alloc). The first chunk header now fails the read.
  constexpr uint32_t kChunks = 30000;
  std::vector<uint8_t> bytes = Header(kStoreMaxChunkRecords);
  bytes.resize(bytes.size() + size_t{12} * kChunks);
  std::vector<uint8_t> footer;
  PutVarint(&footer, uint64_t{kChunks} * kStoreMaxChunkRecords);  // records
  PutVarint(&footer, kChunks);
  for (uint32_t i = 0; i < kChunks; ++i) {  // (offset delta, records)
    PutVarint(&footer, i == 0 ? kStoreHeaderBytes : 1);
    PutVarint(&footer, kStoreMaxChunkRecords);
  }
  PutVarint(&footer, 0);  // no metrics section
  PutVarint(&footer, 0);
  PutU32(&footer, 0);
  AppendFooterAndTrailer(&bytes, footer);
  const std::string path = TempPath("corruption_total.ebst");
  WriteFileBytes(path, bytes);
  EXPECT_EQ(CodeOf(path), StoreErrorCode::kChunkCorrupt);
  std::remove(path.c_str());
}

TEST_F(StoreCorruptionTest, CommittedStoresSpeakThisVersion) {
  // A format change must re-record the committed stores: an input rejected
  // for its version or magic no longer reaches the code it targets.
  const std::filesystem::path data(EBS_TEST_DATA_DIR);
  std::vector<std::filesystem::path> stores = {data / "golden_small.ebst"};
  for (const auto& entry : std::filesystem::directory_iterator(data / "fuzz" / "store")) {
    stores.push_back(entry.path());
  }
  EXPECT_GE(stores.size(), 5u);
  for (const std::filesystem::path& store : stores) {
    try {
      ReadEverything(store.string());
    } catch (const TraceStoreError& error) {
      EXPECT_NE(error.code(), StoreErrorCode::kBadVersion) << store;
      EXPECT_NE(error.code(), StoreErrorCode::kBadMagic) << store;
    }
  }
}

TEST_F(StoreCorruptionTest, SpecificCorruptionsReportSpecificCodes) {
  const std::string path = TempPath("corruption_code.ebst");

  {  // Header magic, with the header CRC fixed up to isolate the magic check.
    std::vector<uint8_t> bytes(*base_);
    bytes[0] = 'X';
    FixHeaderCrc(&bytes);
    WriteFileBytes(path, bytes);
    EXPECT_EQ(CodeOf(path), StoreErrorCode::kBadMagic);
  }
  {  // Unsupported versions. Version 1 wrote one series per segment, and
     // there is no read path for it.
    for (const uint32_t version : {1u, 99u}) {
      std::vector<uint8_t> bytes(*base_);
      PutU32At(&bytes, 4, version);
      FixHeaderCrc(&bytes);
      WriteFileBytes(path, bytes);
      EXPECT_EQ(CodeOf(path), StoreErrorCode::kBadVersion) << version;
    }
  }
  {  // chunk_target outside [1, kStoreMaxChunkRecords].
    for (const uint32_t chunk_target : {0u, kStoreMaxChunkRecords + 1}) {
      std::vector<uint8_t> bytes(*base_);
      PutU32At(&bytes, 12, chunk_target);
      FixHeaderCrc(&bytes);
      WriteFileBytes(path, bytes);
      EXPECT_EQ(CodeOf(path), StoreErrorCode::kHeaderCorrupt) << chunk_target;
    }
  }
  {  // Unknown header flag bit.
    std::vector<uint8_t> bytes(*base_);
    bytes[8] |= 0x80;
    FixHeaderCrc(&bytes);
    WriteFileBytes(path, bytes);
    EXPECT_EQ(CodeOf(path), StoreErrorCode::kHeaderCorrupt);
  }
  {  // Header CRC itself.
    std::vector<uint8_t> bytes(*base_);
    bytes[44] ^= 0xFF;
    WriteFileBytes(path, bytes);
    EXPECT_EQ(CodeOf(path), StoreErrorCode::kHeaderCorrupt);
  }
  {  // Trailer magic.
    std::vector<uint8_t> bytes(*base_);
    bytes[bytes.size() - 1] ^= 0xFF;
    WriteFileBytes(path, bytes);
    EXPECT_EQ(CodeOf(path), StoreErrorCode::kBadMagic);
  }
  {  // Chunk payload: CRC catches it, random access included.
    std::vector<uint8_t> bytes(*base_);
    bytes[kStoreHeaderBytes + kStoreChunkHeaderBytes + 5] ^= 0xFF;
    WriteFileBytes(path, bytes);
    const TraceStoreReader reader(path);  // header/footer untouched: opens fine
    std::vector<TraceRecord> records;
    try {
      reader.ReadChunk(0, &records);
      ADD_FAILURE() << "corrupt chunk decoded";
    } catch (const TraceStoreError& error) {
      EXPECT_EQ(error.code(), StoreErrorCode::kChunkCorrupt);
    }
  }
  {  // File too short to even hold header + trailer.
    WriteFileBytes(path, std::vector<uint8_t>(base_->begin(), base_->begin() + 10));
    EXPECT_EQ(CodeOf(path), StoreErrorCode::kTruncated);
  }
  {  // Footer byte flip: the trailer's stored CRC no longer matches.
    std::vector<uint8_t> bytes(*base_);
    uint64_t footer_offset = 0;  // first trailer field, little-endian u64
    const size_t trailer_at = bytes.size() - kStoreTrailerBytes;
    for (size_t i = 0; i < 8; ++i) {
      footer_offset |= static_cast<uint64_t>(bytes[trailer_at + i]) << (8 * i);
    }
    ASSERT_LT(footer_offset, bytes.size());
    bytes[footer_offset] ^= 0xFF;
    WriteFileBytes(path, bytes);
    EXPECT_EQ(CodeOf(path), StoreErrorCode::kFooterCorrupt);
  }
  {  // Payload truncated by one byte with the chunk CRC recomputed to match:
     // the CRC gate passes, so the column decoder itself must catch the
     // overrun and report kDecodeError (not kChunkCorrupt).
    WriteFileBytes(path, ShrinkFirstChunkPayload(*base_));
    EXPECT_EQ(CodeOf(path), StoreErrorCode::kDecodeError);
    // The golden store shrunk the same way is a fuzz_store corpus input.
    const std::string corpus =
        std::string(EBS_TEST_DATA_DIR) + "/fuzz/store/chunk_crc_valid_decode_error.ebst";
    EXPECT_TRUE(ReadFileBytes(corpus) ==
                ShrinkFirstChunkPayload(
                    ReadFileBytes(std::string(EBS_TEST_DATA_DIR) + "/golden_small.ebst")));
    EXPECT_EQ(CodeOf(corpus), StoreErrorCode::kDecodeError);
  }
  {  // Missing file.
    EXPECT_EQ(CodeOf(TempPath("no_such_store.ebst")), StoreErrorCode::kIoError);
  }
  {  // Chunk index out of range is a plain out_of_range, not UB.
    WriteFileBytes(path, *base_);
    const TraceStoreReader reader(path);
    std::vector<TraceRecord> records;
    EXPECT_THROW(reader.ReadChunk(reader.chunks().size(), &records), std::out_of_range);
  }
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Golden corpus: a committed store decodes identically forever.
// ---------------------------------------------------------------------------

// tests/data/golden_small.ebst was written by:
//   ./build/tools/store_tool record tests/data/golden_small.ebst
//       --seed 7 --users 1 --steps 30  (one command line)
// (fleet seed 7, workload seed 7*31+7 = 224, 1 user, 30-step window, export
// precision, metrics section included). The fingerprint below is the
// AggregateFingerprint of the recorded dataset; any format or generator
// change that breaks old files breaks this test.
TEST(TraceStoreGoldenTest, CommittedCorpusDecodesWithPinnedFingerprint) {
  const std::string path = std::string(EBS_TEST_DATA_DIR) + "/golden_small.ebst";
  constexpr uint64_t kGoldenFingerprint = 0xa907dacd812a060full;
  constexpr uint64_t kGoldenRecords = 347;

  const TraceStoreReader reader(path);
  EXPECT_EQ(reader.info().version, kStoreVersion);
  EXPECT_EQ(reader.info().precision, StorePrecision::kExport);
  EXPECT_TRUE(reader.info().has_metrics);
  EXPECT_EQ(reader.info().record_count, kGoldenRecords);
  EXPECT_EQ(reader.info().meta.window_steps, 30u);
  EXPECT_EQ(reader.info().meta.step_seconds, 1.0);

  const TraceDataset decoded = reader.ReadAll();
  ASSERT_EQ(decoded.records.size(), kGoldenRecords);
  EXPECT_EQ(AggregateFingerprint(decoded), kGoldenFingerprint);

  // The metrics section must still parse too — the file is a full replay
  // input, not just a trace dump.
  WorkloadResult result;
  reader.ReadMetricsInto(&result);
  EXPECT_EQ(result.metrics.window_steps, 30u);
}

// The writer still produces the committed corpus byte for byte from the
// inputs `store_tool record --seed 7 --users 1 --steps 30` uses.
TEST(TraceStoreGoldenTest, WriterReproducesCommittedCorpusByteForByte) {
  SimulationConfig config = DcPreset(1);
  config.fleet.seed = 7;
  config.workload.seed = 7 * 31 + 7;
  config.fleet.user_count = 1;
  config.workload.window_steps = 30;
  const EbsSimulation sim(config);
  const std::string path = TempPath("golden_rewrite.ebst");
  ASSERT_TRUE(WriteWorkloadToStore(path, sim.workload(), config.workload.step_seconds,
                                   {.precision = StorePrecision::kExport}));
  const std::vector<uint8_t> written = ReadFileBytes(path);
  std::remove(path.c_str());
  const std::vector<uint8_t> golden =
      ReadFileBytes(std::string(EBS_TEST_DATA_DIR) + "/golden_small.ebst");
  ASSERT_EQ(golden.size(), 10743u);
  ASSERT_EQ(written.size(), golden.size());
  EXPECT_TRUE(written == golden);
}

// ---------------------------------------------------------------------------
// The size gate: the reason the binary format exists.
// ---------------------------------------------------------------------------

TEST(TraceStoreSizeTest, ExportStoreIsAtLeastFourTimesSmallerThanCsv) {
  SimulationConfig config = DcPreset(1);
  config.fleet.user_count = 40;
  config.workload.window_steps = 120;
  const EbsSimulation sim(config);

  const std::string csv_path = TempPath("size_gate.csv");
  const std::string export_path = TempPath("size_gate.ebst");
  const std::string exact_path = TempPath("size_gate_exact.ebst");
  ASSERT_TRUE(WriteTracesCsv(sim.traces(), csv_path));
  ASSERT_TRUE(WriteDatasetToStore(export_path, sim.traces(),
                                  config.workload.step_seconds,
                                  static_cast<uint32_t>(config.workload.window_steps),
                                  {.precision = StorePrecision::kExport}));
  ASSERT_TRUE(WriteDatasetToStore(exact_path, sim.traces(),
                                  config.workload.step_seconds,
                                  static_cast<uint32_t>(config.workload.window_steps),
                                  {.precision = StorePrecision::kExact}));
  const double csv_bytes = static_cast<double>(FileSize(csv_path));
  const double export_bytes = static_cast<double>(FileSize(export_path));
  const double exact_bytes = static_cast<double>(FileSize(exact_path));
  std::remove(csv_path.c_str());
  std::remove(export_path.c_str());
  std::remove(exact_path.c_str());

  ASSERT_GT(export_bytes, 0.0);
  ASSERT_GT(exact_bytes, 0.0);
  EXPECT_GE(csv_bytes / export_bytes, 4.0)
      << "export store " << export_bytes << " B vs CSV " << csv_bytes << " B";
  // The exact encoding carries five full-entropy f64 latency components per
  // record; a looser floor documents that it still beats the CSV.
  EXPECT_GE(csv_bytes / exact_bytes, 1.4)
      << "exact store " << exact_bytes << " B vs CSV " << csv_bytes << " B";
}

}  // namespace
}  // namespace ebs
