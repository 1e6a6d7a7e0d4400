#include "src/trace/store.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <exception>
#include <functional>
#include <limits>
#include <utility>

#include "src/util/parallel.h"

namespace ebs {

namespace {

// ---------------------------------------------------------------------------
// Column schema.
// ---------------------------------------------------------------------------

// Column blocks appear in a chunk payload in exactly this order. `vd` comes
// right after `step` because every later integer column is delta-predicted
// against the previous record of the same VD.
enum Column : size_t {
  kColStep = 0,
  kColVd,
  kColTimestamp,
  kColOp,
  kColSize,
  kColOffset,
  kColUser,
  kColVm,
  kColQp,
  kColWt,
  kColCn,
  kColSegment,
  kColBs,
  kColSn,
  kColLat0,  // five consecutive latency components
  kColLat1,
  kColLat2,
  kColLat3,
  kColLat4,
  kColFaultRetries,
  kColFaultTimedOut,
  kColFaultFailedOver,
  kColumnCount,
};

enum ColumnEncoding : uint8_t {
  kEncAllZero = 0,       // empty payload: every value is zero
  kEncPlain = 1,         // zigzag varint deltas, one per record
  kEncRle = 2,           // (run-count varint, zigzag delta) pairs
  kEncBitmap = 3,        // packed bits, LSB-first
  kEncExactPlain = 4,    // f64 bit-pattern deltas, plain
  kEncExactRle = 5,      // f64 bit-pattern deltas, RLE
  kEncQuantPlain = 6,    // fixed-point deltas, plain
  kEncQuantRle = 7,      // fixed-point deltas, RLE
  kEncShiftPlain = 8,    // [shift u8] + deltas of value>>shift (aligned columns)
  kEncShiftRle = 9,
  kEncRawPlain = 10,     // zigzag varint values, prediction disabled
  kEncRawRle = 11,
  kEncQuantRawPlain = 12,  // fixed-point values, prediction disabled
  kEncQuantRawRle = 13,
};

[[noreturn]] void DecodeFail(const std::string& what) {
  throw TraceStoreError(StoreErrorCode::kDecodeError, what);
}

// ---------------------------------------------------------------------------
// Prediction state. All arithmetic wraps through uint64_t, so any value —
// including UINT64_MAX offsets and arbitrary double bit patterns — survives
// the delta round trip exactly.
// ---------------------------------------------------------------------------

// Dense slot index over one chunk's keys (VD or segment ids): records with
// equal keys share a slot. Built once per chunk and key, then shared by every
// column predicted against that key.
struct KeySlots {
  std::vector<uint32_t> slot;  // per record
  size_t count = 0;            // distinct keys
};

// Slots are numbered in first-seen order through an open-addressing table of
// (key << 32 | slot + 1) entries, 0 = empty, at most half full. n fits u32
// (the chunk header's record count), so slot + 1 does too.
template <typename Key>
KeySlots SlotsOf(size_t n, Key key) {
  size_t capacity = 16;
  while (capacity < 2 * n) {
    capacity *= 2;
  }
  const int shift = 64 - std::countr_zero(capacity);
  std::vector<uint64_t> table(capacity, 0);
  KeySlots slots;
  slots.slot.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = key(i);
    size_t h = static_cast<size_t>((k * 0x9E3779B97F4A7C15ull) >> shift);
    while (table[h] != 0 && (table[h] >> 32) != k) {
      h = (h + 1) & (capacity - 1);
    }
    if (table[h] == 0) {
      table[h] = k << 32 | ++slots.count;
    }
    slots.slot[i] = static_cast<uint32_t>(table[h]) - 1;
  }
  return slots;
}

// Predicts each record from the previous record of the same key. `state` is
// working storage shared by the predictors of one chunk (one column runs at
// a time).
class KeyedPrediction {
 public:
  KeyedPrediction(const KeySlots& slots, std::vector<uint64_t>* state)
      : slots_(slots), state_(state) {}
  void Reset() {
    state_->assign(slots_.count, 0);
    last_ = state_->data();
  }
  uint64_t& operator()(size_t i) { return last_[slots_.slot[i]]; }

 private:
  const KeySlots& slots_;
  std::vector<uint64_t>* state_;
  uint64_t* last_ = nullptr;
};

// Predicts each value from the previous one (steps, VD ids, the time-sorted
// timestamps, metric series).
struct GlobalPrediction {
  uint64_t last = 0;
  void Reset() { last = 0; }
  uint64_t& operator()(size_t) { return last; }
};

// ---------------------------------------------------------------------------
// Zigzag-list sizes and emission.
// ---------------------------------------------------------------------------

size_t VarintSize(uint64_t v) { return (static_cast<size_t>(std::bit_width(v | 1)) + 6) / 7; }

size_t ZigzagSize(int64_t x) { return VarintSize(ZigzagEncode(x)); }

uint8_t* PutVarintAt(uint8_t* p, uint64_t v) {
  while (v >= 0x80) {
    *p++ = static_cast<uint8_t>(v) | 0x80;
    v >>= 7;
  }
  *p++ = static_cast<uint8_t>(v);
  return p;
}

// Plain and RLE ((run-count varint, zigzag value) pairs) byte counts of one
// zigzag list, fed value by value — the list itself is never built.
class ListSize {
 public:
  void Add(int64_t x) {
    plain_ += ZigzagSize(x);
    if (run_ > 0 && x == value_) {
      ++run_;
      return;
    }
    rle_ += RunBytes();
    value_ = x;
    run_ = 1;
  }
  size_t plain() const { return plain_; }
  size_t rle() const { return rle_ + RunBytes(); }

 private:
  size_t RunBytes() const { return run_ > 0 ? VarintSize(run_) + ZigzagSize(value_) : 0; }

  size_t plain_ = 0;
  size_t rle_ = 0;
  size_t run_ = 0;
  int64_t value_ = 0;
};

// Writes next(0), ..., next(n - 1) at `p`, which has room for exactly its
// sized bytes, as a zigzag list in plain or RLE layout.
template <typename Next>
void WriteList(uint8_t* p, size_t n, bool rle, Next next) {
  if (!rle) {
    for (size_t i = 0; i < n; ++i) {
      p = PutVarintAt(p, ZigzagEncode(next(i)));
    }
    return;
  }
  size_t run = 0;
  int64_t value = 0;
  const auto flush = [&] {
    p = PutVarintAt(p, run);
    p = PutVarintAt(p, ZigzagEncode(value));
  };
  for (size_t i = 0; i < n; ++i) {
    const int64_t x = next(i);
    if (run > 0 && x == value) {
      ++run;
      continue;
    }
    if (run > 0) {
      flush();
    }
    value = x;
    run = 1;
  }
  if (run > 0) {
    flush();
  }
}

// ---------------------------------------------------------------------------
// Block encode/decode.
// ---------------------------------------------------------------------------

void AppendAllZero(std::vector<uint8_t>* out) {
  out->push_back(kEncAllZero);
  out->push_back(0);  // empty payload
}

// Plain tags of a block type's candidate lists (each RLE tag is plain + 1);
// 0 = no such candidate.
struct BlockTags {
  uint8_t delta = 0;  // deltas against the prediction
  uint8_t raw = 0;    // the values themselves, prediction disabled
  uint8_t shift = 0;  // [shift u8] + deltas of value >> shift
};

constexpr BlockTags kIntTags{kEncPlain, kEncRawPlain, kEncShiftPlain};
constexpr BlockTags kQuantTags{kEncQuantPlain, kEncQuantRawPlain, 0};
constexpr BlockTags kExactTags{kEncExactPlain, 0, 0};

// Encodes value(0), ..., value(n - 1) as one block: the all-zero marker, or
// the smallest candidate list. Every candidate is sized in one pass without
// being built, and only the winner is written, straight into `out`. The
// candidates are tried in the order delta, raw, shift — plain before RLE —
// and the first smallest wins; that order is part of the file format's
// bytes.
template <typename Value, typename Predict>
void AppendZigzagBlock(std::vector<uint8_t>* out, size_t n, Value value, BlockTags tags,
                       Predict& predict) {
  uint64_t low_bits = 0;
  for (size_t i = 0; i < n; ++i) {
    low_bits |= value(i);
  }
  if (low_bits == 0) {
    AppendAllZero(out);
    return;
  }
  // Values sharing trailing zero bits (aligned offsets, power-of-two sizes).
  const int shift = tags.shift != 0 ? std::countr_zero(low_bits) : 0;
  ListSize delta;
  ListSize raw;
  ListSize shifted;
  predict.Reset();
  for (size_t i = 0; i < n; ++i) {
    const uint64_t v = value(i);
    uint64_t& prev = predict(i);
    delta.Add(static_cast<int64_t>(v - prev));
    if (tags.raw != 0) {
      raw.Add(static_cast<int64_t>(v));
    }
    if (shift != 0) {
      shifted.Add(static_cast<int64_t>((v >> shift) - (prev >> shift)));
    }
    prev = v;
  }

  enum class List { kDelta, kRaw, kShift };
  struct Choice {
    List list;
    bool rle;
    size_t size;
  };
  Choice best{List::kDelta, false, delta.plain()};
  const auto consider = [&best](List list, const ListSize& sizes, size_t prefix) {
    if (prefix + sizes.plain() < best.size) {
      best = {list, false, prefix + sizes.plain()};
    }
    if (prefix + sizes.rle() < best.size) {
      best = {list, true, prefix + sizes.rle()};
    }
  };
  consider(List::kDelta, delta, 0);
  if (tags.raw != 0) {
    consider(List::kRaw, raw, 0);
  }
  if (shift != 0) {
    consider(List::kShift, shifted, 1);  // the shift amount byte
  }

  const uint8_t plain_tag = best.list == List::kDelta ? tags.delta
                            : best.list == List::kRaw ? tags.raw
                                                      : tags.shift;
  const size_t at = out->size();
  out->resize(at + 1 + VarintSize(best.size) + best.size);
  (*out)[at] = static_cast<uint8_t>(plain_tag + (best.rle ? 1 : 0));
  uint8_t* p = PutVarintAt(out->data() + at + 1, best.size);
  if (best.list == List::kRaw) {
    WriteList(p, n, best.rle, [&](size_t i) { return static_cast<int64_t>(value(i)); });
    return;
  }
  const int by = best.list == List::kShift ? shift : 0;  // a delta list is unshifted
  if (by != 0) {
    *p++ = static_cast<uint8_t>(by);
  }
  predict.Reset();
  WriteList(p, n, best.rle, [&](size_t i) {
    const uint64_t v = value(i);
    uint64_t& prev = predict(i);
    const auto x = static_cast<int64_t>((v >> by) - (prev >> by));
    prev = v;
    return x;
  });
}

// bit(i) for i in [0, n) as packed bits, LSB-first, or the all-zero marker.
template <typename Bit>
void AppendBitmapBlock(std::vector<uint8_t>* out, size_t n, Bit bit) {
  const size_t bytes = (n + 7) / 8;
  const size_t at = out->size();
  out->resize(at + 1 + VarintSize(bytes) + bytes);
  (*out)[at] = kEncBitmap;
  uint8_t* bits = PutVarintAt(out->data() + at + 1, bytes);
  bool any = false;
  for (size_t i = 0; i < n; ++i) {
    if (bit(i)) {
      bits[i / 8] |= static_cast<uint8_t>(1u << (i % 8));
      any = true;
    }
  }
  if (!any) {
    out->resize(at);
    AppendAllZero(out);
  }
}

struct DecodedBlock {
  uint8_t encoding = kEncAllZero;
  ByteReader payload;
};

DecodedBlock NextBlock(ByteReader* reader, const char* column) {
  DecodedBlock block;
  uint64_t size = 0;
  if (!reader->GetByte(&block.encoding) || !reader->GetVarint(&size) ||
      !reader->GetSpan(static_cast<size_t>(size), &block.payload)) {
    DecodeFail(std::string("column block overruns chunk payload: ") + column);
  }
  return block;
}

// Decodes `n` zigzag values in plain or RLE layout from `payload`, handing
// each to next(i, x) — the caller integrates it straight into its
// destination. The caller checks payload.exhausted() afterwards (shift blocks
// carry a prefix byte, so the list is not always the whole payload).
template <typename Next>
void ReadList(ByteReader* payload, size_t n, bool rle, const char* column, Next next) {
  if (!rle) {
    for (size_t i = 0; i < n; ++i) {
      int64_t x = 0;
      if (!payload->GetZigzag(&x)) {
        DecodeFail(std::string("varint overrun in column: ") + column);
      }
      next(i, x);
    }
    return;
  }
  for (size_t i = 0; i < n;) {
    uint64_t run = 0;
    int64_t value = 0;
    if (!payload->GetVarint(&run) || !payload->GetZigzag(&value)) {
      DecodeFail(std::string("RLE overrun in column: ") + column);
    }
    if (run == 0 || run > n - i) {
      DecodeFail(std::string("RLE run count out of range in column: ") + column);
    }
    for (const size_t end = i + static_cast<size_t>(run); i < end; ++i) {
      next(i, value);
    }
  }
}

void ExpectExhausted(const ByteReader& payload, const char* column) {
  if (!payload.exhausted()) {
    DecodeFail(std::string("trailing bytes in column: ") + column);
  }
}

// Decodes a bitmap block into out[0, n) as 0/1.
void DecodeBitmapBlock(ByteReader* reader, size_t n, const char* column, uint64_t* out) {
  const DecodedBlock block = NextBlock(reader, column);
  if (block.encoding == kEncAllZero) {
    if (!block.payload.exhausted()) {
      DecodeFail(std::string("all-zero block with payload: ") + column);
    }
    std::fill_n(out, n, 0);
    return;
  }
  if (block.encoding != kEncBitmap || block.payload.remaining() != (n + 7) / 8) {
    DecodeFail(std::string("malformed bitmap column: ") + column);
  }
  for (size_t i = 0; i < n; ++i) {
    out[i] = (block.payload.pos[i / 8] >> (i % 8)) & 1u;
  }
}

// ---------------------------------------------------------------------------
// Double column helpers (exact bit patterns vs fixed-point quantization).
// ---------------------------------------------------------------------------

uint64_t BitsOf(double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

double DoubleOf(uint64_t bits) {
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// Decodes a double block (tags of kExactTags or kQuantTags) into out[0, n).
template <typename Predict>
void DecodeDoubleBlock(ByteReader* reader, size_t n, Predict& predict, double scale,
                       const char* column, double* out) {
  DecodedBlock block = NextBlock(reader, column);
  predict.Reset();
  switch (block.encoding) {
    case kEncAllZero:  // bits 0 and grid 0 both decode to 0.0
      std::fill_n(out, n, 0.0);
      break;
    case kEncExactPlain:
    case kEncExactRle:
      ReadList(&block.payload, n, block.encoding == kEncExactRle, column,
               [&](size_t i, int64_t x) {
                 out[i] = DoubleOf(predict(i) += static_cast<uint64_t>(x));
               });
      break;
    case kEncQuantPlain:
    case kEncQuantRle:
      ReadList(&block.payload, n, block.encoding == kEncQuantRle, column,
               [&](size_t i, int64_t x) {
                 const uint64_t grid = predict(i) += static_cast<uint64_t>(x);
                 out[i] = DequantizeScaled(static_cast<int64_t>(grid), scale);
               });
      break;
    case kEncQuantRawPlain:
    case kEncQuantRawRle:
      ReadList(&block.payload, n, block.encoding == kEncQuantRawRle, column,
               [&](size_t i, int64_t x) { out[i] = DequantizeScaled(x, scale); });
      break;
    default:
      DecodeFail(std::string("unexpected encoding tag in column: ") + column);
  }
  ExpectExhausted(block.payload, column);
}

// Decodes an integer block (tags of kIntTags) into out[0, n), each value
// checked against `max_value`.
template <typename Predict>
void DecodeIntBlock(ByteReader* reader, size_t n, Predict& predict, uint64_t max_value,
                    const char* column, uint64_t* out) {
  DecodedBlock block = NextBlock(reader, column);
  const auto put = [&](size_t i, uint64_t v) {
    if (v > max_value) {
      DecodeFail(std::string("value out of range in column: ") + column);
    }
    out[i] = v;
  };
  predict.Reset();
  switch (block.encoding) {
    case kEncAllZero:
      std::fill_n(out, n, 0);
      break;
    case kEncPlain:
    case kEncRle:
      ReadList(&block.payload, n, block.encoding == kEncRle, column,
               [&](size_t i, int64_t x) { put(i, predict(i) += static_cast<uint64_t>(x)); });
      break;
    case kEncShiftPlain:
    case kEncShiftRle: {
      uint8_t shift = 0;
      if (!block.payload.GetByte(&shift) || shift == 0 || shift >= 64) {
        DecodeFail(std::string("bad shift amount in column: ") + column);
      }
      ReadList(&block.payload, n, block.encoding == kEncShiftRle, column,
               [&](size_t i, int64_t x) {
                 const uint64_t v = predict(i) += static_cast<uint64_t>(x);
                 if ((v >> (64 - shift)) != 0) {
                   DecodeFail(std::string("shifted value overflows in column: ") + column);
                 }
                 put(i, v << shift);
               });
      break;
    }
    case kEncRawPlain:
    case kEncRawRle:
      ReadList(&block.payload, n, block.encoding == kEncRawRle, column,
               [&](size_t i, int64_t x) { put(i, static_cast<uint64_t>(x)); });
      break;
    default:
      DecodeFail(std::string("unexpected encoding tag in column: ") + column);
  }
  ExpectExhausted(block.payload, column);
}

// ---------------------------------------------------------------------------
// Chunk payload encode/decode.
// ---------------------------------------------------------------------------

// Encodes one chunk's payload into *out_bytes, which is cleared first.
void EncodeChunkPayload(std::span<const TraceRecord> records, std::span<const uint32_t> steps,
                        StorePrecision precision, std::vector<uint8_t>* out_bytes) {
  const size_t n = records.size();
  std::vector<uint8_t>& out = *out_bytes;
  out.clear();
  std::vector<uint64_t> column(n);
  const auto value = [&column](size_t i) { return column[i]; };

  GlobalPrediction global;
  const KeySlots vd_slots = SlotsOf(n, [&](size_t i) { return records[i].vd.value(); });
  // bs and sn are functions of the segment (a segment lives on one block
  // server on one storage node), so predicting them keyed by segment makes
  // their deltas almost always zero.
  const KeySlots seg_slots =
      SlotsOf(n, [&](size_t i) { return records[i].segment.value(); });
  std::vector<uint64_t> state;
  KeyedPrediction by_vd(vd_slots, &state);
  KeyedPrediction by_seg(seg_slots, &state);

  const auto ints = [&](auto get, auto& predict) {
    for (size_t i = 0; i < n; ++i) {
      column[i] = static_cast<uint64_t>(get(records[i]));
    }
    AppendZigzagBlock(&out, n, value, kIntTags, predict);
  };
  // kExport columns that fit the fixed-point grid get delta AND raw
  // (no-delta) candidates on the grid — raw wins on i.i.d. columns like
  // latency components, where deltas double the entropy range. Everything
  // else falls back to exact bit-pattern deltas.
  const auto doubles = [&](auto get, double scale, auto& predict) {
    bool quant = precision == StorePrecision::kExport;
    for (size_t i = 0; i < n && quant; ++i) {
      int64_t q = 0;
      quant = QuantizeScaled(get(records[i]), scale, &q);
      column[i] = static_cast<uint64_t>(q);
    }
    if (!quant) {
      for (size_t i = 0; i < n; ++i) {
        column[i] = BitsOf(get(records[i]));
      }
    }
    AppendZigzagBlock(&out, n, value, quant ? kQuantTags : kExactTags, predict);
  };
  const auto bits = [&](auto get) {
    AppendBitmapBlock(&out, n, [&](size_t i) { return get(records[i]); });
  };

  column.assign(steps.begin(), steps.end());
  AppendZigzagBlock(&out, n, value, kIntTags, global);
  ints([](const TraceRecord& r) { return r.vd.value(); }, global);
  doubles([](const TraceRecord& r) { return r.timestamp; }, kMicrosPerSecond, global);
  bits([](const TraceRecord& r) { return r.op == OpType::kWrite; });
  ints([](const TraceRecord& r) { return r.size_bytes; }, by_vd);
  ints([](const TraceRecord& r) { return r.offset; }, by_vd);
  ints([](const TraceRecord& r) { return r.user.value(); }, by_vd);
  ints([](const TraceRecord& r) { return r.vm.value(); }, by_vd);
  ints([](const TraceRecord& r) { return r.qp.value(); }, by_vd);
  ints([](const TraceRecord& r) { return r.wt.value(); }, by_vd);
  ints([](const TraceRecord& r) { return r.cn.value(); }, by_vd);
  ints([](const TraceRecord& r) { return r.segment.value(); }, by_vd);
  ints([](const TraceRecord& r) { return r.bs.value(); }, by_seg);
  ints([](const TraceRecord& r) { return r.sn.value(); }, by_seg);
  for (int c = 0; c < kStackComponentCount; ++c) {
    doubles([c](const TraceRecord& r) { return r.latency.component_us[c]; }, kCentiPerMicro,
            by_vd);
  }
  ints([](const TraceRecord& r) { return r.fault_retries; }, by_vd);
  bits([](const TraceRecord& r) { return r.fault_timed_out; });
  bits([](const TraceRecord& r) { return r.fault_failed_over; });
}

// Decodes a chunk payload into `out` (n records) and, when not null, `steps`.
// Each column is decoded into one reused column array, then stored into its
// record field.
void DecodeChunkPayload(ByteReader reader, size_t n, uint32_t window_steps, TraceRecord* out,
                        uint32_t* steps) {
  constexpr uint64_t kU32Max = std::numeric_limits<uint32_t>::max();
  std::vector<uint64_t> column(n);
  std::vector<double> reals(n);
  GlobalPrediction global;
  DecodeIntBlock(&reader, n, global, window_steps == 0 ? 0 : window_steps - 1, "step",
                 column.data());
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && column[i] < column[i - 1]) {
      DecodeFail("step column not non-decreasing");
    }
    if (steps != nullptr) {
      steps[i] = static_cast<uint32_t>(column[i]);
    }
  }
  const auto ints = [&](auto& predict, uint64_t max_value, const char* name, auto set) {
    DecodeIntBlock(&reader, n, predict, max_value, name, column.data());
    for (size_t i = 0; i < n; ++i) {
      set(out[i], column[i]);
    }
  };
  const auto bits = [&](const char* name, auto set) {
    DecodeBitmapBlock(&reader, n, name, column.data());
    for (size_t i = 0; i < n; ++i) {
      set(out[i], column[i] != 0);
    }
  };
  const auto id = [](uint64_t v) { return static_cast<uint32_t>(v); };  // range-checked
  ints(global, kU32Max, "vd", [&](TraceRecord& r, uint64_t v) { r.vd = VdId(id(v)); });

  const KeySlots vd_slots = SlotsOf(n, [&](size_t i) { return out[i].vd.value(); });
  std::vector<uint64_t> state;
  KeyedPrediction by_vd(vd_slots, &state);
  DecodeDoubleBlock(&reader, n, global, kMicrosPerSecond, "timestamp", reals.data());
  for (size_t i = 0; i < n; ++i) {
    out[i].timestamp = reals[i];
  }
  bits("op", [](TraceRecord& r, bool write) { r.op = write ? OpType::kWrite : OpType::kRead; });
  ints(by_vd, kU32Max, "size", [&](TraceRecord& r, uint64_t v) { r.size_bytes = id(v); });
  ints(by_vd, std::numeric_limits<uint64_t>::max(), "offset",
       [](TraceRecord& r, uint64_t v) { r.offset = v; });
  ints(by_vd, kU32Max, "user", [&](TraceRecord& r, uint64_t v) { r.user = UserId(id(v)); });
  ints(by_vd, kU32Max, "vm", [&](TraceRecord& r, uint64_t v) { r.vm = VmId(id(v)); });
  ints(by_vd, kU32Max, "qp", [&](TraceRecord& r, uint64_t v) { r.qp = QpId(id(v)); });
  ints(by_vd, kU32Max, "wt", [&](TraceRecord& r, uint64_t v) { r.wt = WorkerThreadId(id(v)); });
  ints(by_vd, kU32Max, "cn", [&](TraceRecord& r, uint64_t v) { r.cn = ComputeNodeId(id(v)); });
  ints(by_vd, kU32Max, "segment",
       [&](TraceRecord& r, uint64_t v) { r.segment = SegmentId(id(v)); });

  const KeySlots seg_slots = SlotsOf(n, [&](size_t i) { return out[i].segment.value(); });
  KeyedPrediction by_seg(seg_slots, &state);
  ints(by_seg, kU32Max, "bs", [&](TraceRecord& r, uint64_t v) { r.bs = BlockServerId(id(v)); });
  ints(by_seg, kU32Max, "sn", [&](TraceRecord& r, uint64_t v) { r.sn = StorageNodeId(id(v)); });

  for (int c = 0; c < kStackComponentCount; ++c) {
    DecodeDoubleBlock(&reader, n, by_vd, kCentiPerMicro, "latency", reals.data());
    for (size_t i = 0; i < n; ++i) {
      out[i].latency.component_us[c] = reals[i];
    }
  }
  ints(by_vd, std::numeric_limits<uint8_t>::max(), "retries",
       [](TraceRecord& r, uint64_t v) { r.fault_retries = static_cast<uint8_t>(v); });
  bits("timed_out", [](TraceRecord& r, bool b) { r.fault_timed_out = b; });
  bits("failed_over", [](TraceRecord& r, bool b) { r.fault_failed_over = b; });
  if (!reader.exhausted()) {
    DecodeFail("trailing bytes after last column");
  }
}

// CRC-checks a chunk payload, then decodes its `count` records onto the end
// of *records (and of *steps, when not null). Neither is sized before the
// CRC passed, and a chunk that fails to decode leaves both as they were.
void DecodeChunk(const std::vector<uint8_t>& payload, uint32_t crc, uint32_t count,
                 uint32_t window_steps, std::vector<TraceRecord>* records,
                 std::vector<uint32_t>* steps) {
  if (Crc32(payload) != crc) {
    throw TraceStoreError(StoreErrorCode::kChunkCorrupt, "chunk CRC mismatch");
  }
  const size_t base = records->size();
  const size_t step_base = steps != nullptr ? steps->size() : 0;
  records->resize(base + count);
  if (steps != nullptr) {
    steps->resize(step_base + count);
  }
  try {
    DecodeChunkPayload(ByteReader(payload.data(), payload.size()), count, window_steps,
                       records->data() + base,
                       steps != nullptr ? steps->data() + step_base : nullptr);
  } catch (...) {
    records->resize(base);
    if (steps != nullptr) {
      steps->resize(step_base);
    }
    throw;
  }
}

// ---------------------------------------------------------------------------
// Parallel pieces.
// ---------------------------------------------------------------------------

// The codec's pieces (a trace chunk, a run of metric series, a slice of the
// metrics CRC) encode and decode independently. A PieceLoop runs them on the calling
// thread plus DefaultGenerateWorkers() helpers, with at most `per_thread`
// pieces per thread in flight, while the calling thread reads and writes the
// file in order: ParallelFor's feed and done stages.
struct PieceLoop {
  explicit PieceLoop(size_t per_thread)
      : helpers(DefaultGenerateWorkers()), window(per_thread * (helpers + 1)) {}

  void Run(size_t n, const std::function<void(size_t)>& feed,
           const std::function<void(size_t)>& work,
           const std::function<void(size_t)>& done) const {
    ParallelFor(n, helpers, window, feed, work, done);
  }

  size_t helpers;
  size_t window;  // piece i's state lives in slot i % window
};

// A decoded 4,096-record chunk is ~0.4 MB. Metric series (~20 KB each)
// travel in groups of kSeriesPerPiece consecutive series, so a piece is
// worth handing to a thread.
constexpr size_t kChunksPerThread = 2;
constexpr size_t kSeriesPerThread = 4;
constexpr size_t kSeriesPerPiece = 16;

// n items cut into pieces of `per_piece`: how many pieces, and piece i's
// (first item, item count).
size_t PieceCount(size_t n, size_t per_piece) { return (n + per_piece - 1) / per_piece; }

std::pair<size_t, size_t> PieceRange(size_t i, size_t per_piece, size_t n) {
  const size_t first = i * per_piece;
  return {first, std::min(per_piece, n - first)};
}

// The metrics CRC is checked in slices of this size, one piece each.
constexpr size_t kCrcSliceBytes = size_t{1} << 20;

// ---------------------------------------------------------------------------
// Metrics section encode/decode.
// ---------------------------------------------------------------------------

// A metric series travels as exact f64 bit-pattern deltas against the
// previous step.
void AppendRwSeries(std::vector<uint8_t>* out, const RwSeries& series) {
  for (const TimeSeries* s :
       {&series.read_bytes, &series.write_bytes, &series.read_ops, &series.write_ops}) {
    GlobalPrediction global;
    AppendZigzagBlock(out, s->size(), [s](size_t i) { return BitsOf((*s)[i]); }, kExactTags,
                      global);
  }
}

// Decodes the four series blocks into `series`, already zero-filled and
// sized to the window.
void DecodeRwSeries(ByteReader* reader, RwSeries* series) {
  for (TimeSeries* s :
       {&series->read_bytes, &series->write_bytes, &series->read_ops, &series->write_ops}) {
    DecodedBlock block = NextBlock(reader, "series");
    double* values = s->mutable_values().data();
    uint64_t prev = 0;
    if (block.encoding == kEncExactPlain || block.encoding == kEncExactRle) {
      ReadList(&block.payload, s->size(), block.encoding == kEncExactRle, "series",
               [&](size_t i, int64_t x) {
                 prev += static_cast<uint64_t>(x);
                 values[i] = DoubleOf(prev);
               });
    } else if (block.encoding != kEncAllZero) {  // all zero: the series stays 0.0
      DecodeFail("unexpected encoding tag in column: series");
    }
    ExpectExhausted(block.payload, "series");
  }
}

// Reads an item count and rejects one the rest of the section cannot hold
// at `min_item_bytes` per item, before anything is reserved for it.
uint64_t GetCount(ByteReader* reader, size_t min_item_bytes, const char* what) {
  uint64_t count = 0;
  if (!reader->GetVarint(&count)) {
    DecodeFail(std::string("metrics ") + what + " count overrun");
  }
  if (count > reader->remaining() / min_item_bytes) {
    DecodeFail(std::string("metrics ") + what + " count exceeds the section");
  }
  return count;
}

// Smallest encodings: an RwSeries is four blocks of at least [tag][len]; a
// segment entry is two varints and two f64; a truth record is flags, four
// f64 and two varints.
constexpr size_t kMinRwSeriesBytes = 4 * 2;
constexpr size_t kMinEntryBytes = 2 * 1 + 2 * 8;
constexpr size_t kMinTruthBytes = 1 + 4 * 8 + 2 * 1;

// Encodes the metrics section, handing it to emit(bytes, crc) in file order.
// Each series is a piece, encoded and CRC'd on a worker; the few small
// structures between the series lists are encoded on the calling thread.
template <typename Emit>
void EncodeMetricsSection(const WorkloadResult& result, Emit emit) {
  std::vector<uint8_t> out;
  const auto flush = [&] {
    emit(out, Crc32(out));
    out.clear();
  };
  const PieceLoop loop(kSeriesPerThread);
  std::vector<std::vector<uint8_t>> pieces(loop.window);
  std::vector<uint32_t> crcs(loop.window);
  const auto series_list = [&](const std::vector<RwSeries>& list) {
    PutVarint(&out, list.size());
    flush();
    loop.Run(
        PieceCount(list.size(), kSeriesPerPiece), nullptr,
        [&](size_t i) {
          std::vector<uint8_t>& piece = pieces[i % loop.window];
          piece.clear();
          const auto [first, count] = PieceRange(i, kSeriesPerPiece, list.size());
          for (size_t s = first; s < first + count; ++s) {
            AppendRwSeries(&piece, list[s]);
          }
          crcs[i % loop.window] = Crc32(piece);
        },
        [&](size_t i) { emit(pieces[i % loop.window], crcs[i % loop.window]); });
  };
  const MetricDataset& metrics = result.metrics;
  PutVarint(&out, metrics.window_steps);
  PutF64(&out, metrics.step_seconds);
  series_list(metrics.qp_series);

  // The storage domain as SegmentSeriesMap holds it: the source series, then
  // the entries in ascending id order, each id a delta from the previous one.
  const SegmentSeriesMap& segments = metrics.segment_series;
  series_list(segments.sources());
  PutVarint(&out, segments.entries().size());
  uint32_t prev_id = 0;
  for (const SegmentEntry& entry : segments.entries()) {
    PutVarint(&out, entry.id - prev_id);
    PutVarint(&out, entry.source);
    PutF64(&out, entry.read_weight);
    PutF64(&out, entry.write_weight);
    prev_id = entry.id;
  }

  series_list(result.offered_vd);

  PutVarint(&out, result.vd_truth.size());
  for (const VdGroundTruth& truth : result.vd_truth) {
    const uint8_t flags = static_cast<uint8_t>((truth.read_active ? 1 : 0) |
                                               (truth.write_active ? 2 : 0));
    out.push_back(flags);
    PutF64(&out, truth.mean_read_bps);
    PutF64(&out, truth.mean_write_bps);
    PutVarint(&out, truth.hot_offset);
    PutVarint(&out, truth.hot_bytes);
    PutF64(&out, truth.hot_prob_read);
    PutF64(&out, truth.hot_prob_write);
  }

  PutVarint(&out, result.faults.issued);
  PutVarint(&out, result.faults.completed);
  PutVarint(&out, result.faults.timed_out);
  PutVarint(&out, result.faults.retries);
  PutVarint(&out, result.faults.failovers);
  PutVarint(&out, result.faults.slowed);
  PutVarint(&out, result.faults.hiccuped);
  PutVarint(&out, result.faults.degraded_steps);
  flush();
}

// Where one series starts in the section, and the series it decodes into.
struct SeriesPiece {
  RwSeries* series = nullptr;
  const uint8_t* begin = nullptr;
};

// The serial part of the metrics decode, in file order: every count, entry,
// truth record and the fault stats are decoded, and each series is only
// located (its four [tag][len] blocks are skipped with NextBlock's checks)
// and left empty in its list, which is sized only after its count passed
// GetCount.
void WalkMetricsSection(ByteReader* reader, double step_seconds, WorkloadResult* result,
                        std::vector<SeriesPiece>* pieces) {
  const auto series_list = [&](std::vector<RwSeries>& list) {
    for (RwSeries& series : list) {
      pieces->push_back({&series, reader->pos});
      for (int block = 0; block < 4; ++block) {
        NextBlock(reader, "series");
      }
    }
  };
  MetricDataset& metrics = result->metrics;
  metrics.qp_series.assign(static_cast<size_t>(GetCount(reader, kMinRwSeriesBytes, "qp")),
                           RwSeries());
  series_list(metrics.qp_series);

  // The storage domain, rebuilt as the generator builds it. Every entry is
  // checked here, so AssignEntries never throws: ids strictly ascending,
  // sources in range, weights finite and non-negative.
  const uint64_t source_count = GetCount(reader, kMinRwSeriesBytes, "source");
  series_list(
      metrics.segment_series.ResetSources(static_cast<size_t>(source_count), 0, step_seconds));
  std::vector<SegmentEntry> entries(
      static_cast<size_t>(GetCount(reader, kMinEntryBytes, "entry")));
  for (size_t i = 0; i < entries.size(); ++i) {
    SegmentEntry& entry = entries[i];
    uint64_t id_delta = 0;
    uint64_t source = 0;
    if (!reader->GetVarint(&id_delta) || !reader->GetVarint(&source) ||
        !reader->GetF64(&entry.read_weight) || !reader->GetF64(&entry.write_weight)) {
      DecodeFail("metrics segment entry overrun");
    }
    if (id_delta > std::numeric_limits<uint32_t>::max()) {
      DecodeFail("metrics segment id overrun");
    }
    // Ids are deltas modulo 2^32 from the previous id; the first is absolute.
    entry.id = static_cast<uint32_t>(id_delta) + (i > 0 ? entries[i - 1].id : 0);
    if (i > 0 && entry.id <= entries[i - 1].id) {
      DecodeFail("metrics segment ids not strictly ascending");
    }
    if (source >= source_count) {
      DecodeFail("metrics segment entry names a source beyond the section's sources");
    }
    entry.source = static_cast<uint32_t>(source);
    for (const double weight : {entry.read_weight, entry.write_weight}) {
      if (!std::isfinite(weight) || weight < 0.0) {
        DecodeFail("metrics segment weight not finite and non-negative");
      }
    }
  }
  metrics.segment_series.AssignEntries(std::move(entries));

  result->offered_vd.assign(
      static_cast<size_t>(GetCount(reader, kMinRwSeriesBytes, "offered-vd")), RwSeries());
  series_list(result->offered_vd);

  const uint64_t truth_count = GetCount(reader, kMinTruthBytes, "truth");
  result->vd_truth.clear();
  result->vd_truth.reserve(static_cast<size_t>(truth_count));
  for (uint64_t i = 0; i < truth_count; ++i) {
    VdGroundTruth truth;
    uint8_t flags = 0;
    uint64_t hot_offset = 0;
    uint64_t hot_bytes = 0;
    if (!reader->GetByte(&flags) || !reader->GetF64(&truth.mean_read_bps) ||
        !reader->GetF64(&truth.mean_write_bps) || !reader->GetVarint(&hot_offset) ||
        !reader->GetVarint(&hot_bytes) || !reader->GetF64(&truth.hot_prob_read) ||
        !reader->GetF64(&truth.hot_prob_write)) {
      DecodeFail("metrics truth record overrun");
    }
    truth.read_active = (flags & 1) != 0;
    truth.write_active = (flags & 2) != 0;
    truth.hot_offset = hot_offset;
    truth.hot_bytes = hot_bytes;
    result->vd_truth.push_back(truth);
  }

  FaultStats& faults = result->faults;
  if (!reader->GetVarint(&faults.issued) || !reader->GetVarint(&faults.completed) ||
      !reader->GetVarint(&faults.timed_out) || !reader->GetVarint(&faults.retries) ||
      !reader->GetVarint(&faults.failovers) || !reader->GetVarint(&faults.slowed) ||
      !reader->GetVarint(&faults.hiccuped) || !reader->GetVarint(&faults.degraded_steps)) {
    DecodeFail("metrics fault stats overrun");
  }
  if (!reader->exhausted()) {
    DecodeFail("trailing bytes after metrics section");
  }
}

void DecodeMetricsSection(ByteReader reader, const TraceStoreMeta& meta,
                          WorkloadResult* result) {
  uint64_t window_steps = 0;
  double step_seconds = 0.0;
  if (!reader.GetVarint(&window_steps) || !reader.GetF64(&step_seconds)) {
    DecodeFail("metrics section header overrun");
  }
  if (window_steps != meta.window_steps || step_seconds != meta.step_seconds) {
    DecodeFail("metrics section window disagrees with the file header");
  }
  const size_t steps = static_cast<size_t>(window_steps);
  result->metrics.window_steps = steps;
  result->metrics.step_seconds = step_seconds;

  // A walk error is rethrown only after every series before it decoded, so
  // the first error in file order wins, as in a serial decode. A series the
  // walk could not skip is still a piece: decoding it fails at the same
  // block, or at an earlier one.
  std::vector<SeriesPiece> pieces;
  std::exception_ptr walk_error;
  try {
    WalkMetricsSection(&reader, step_seconds, result, &pieces);
  } catch (const TraceStoreError&) {
    walk_error = std::current_exception();
  }
  // Each series is allocated and first touched by the worker that decodes it.
  const uint8_t* const end = reader.end;
  PieceLoop(kSeriesPerThread)
      .Run(
          PieceCount(pieces.size(), kSeriesPerPiece), nullptr,
          [&](size_t i) {
            const auto [first, count] = PieceRange(i, kSeriesPerPiece, pieces.size());
            for (size_t s = first; s < first + count; ++s) {
              const SeriesPiece& piece = pieces[s];
              *piece.series = RwSeries(steps, step_seconds);
              ByteReader series(piece.begin, static_cast<size_t>(end - piece.begin));
              DecodeRwSeries(&series, piece.series);
            }
          },
          nullptr);
  if (walk_error) {
    std::rethrow_exception(walk_error);
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceStoreWriter.
// ---------------------------------------------------------------------------

TraceStoreWriter::TraceStoreWriter(const std::string& path, const TraceStoreMeta& meta,
                                   TraceStoreOptions options)
    : meta_(meta), options_(options) {
  if (options_.chunk_records == 0) {
    options_.chunk_records = 1;
  }
  if (options_.chunk_records > kStoreMaxChunkRecords) {
    return;  // refused: no reader accepts a chunk_target above the bound
  }
  file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    return;
  }
  ok_ = true;
  std::vector<uint8_t> header;
  PutU32(&header, kStoreMagic);
  PutU32(&header, kStoreVersion);
  uint32_t flags = 0;
  if (options_.precision == StorePrecision::kExport) {
    flags |= kStoreFlagExportPrecision;
  }
  PutU32(&header, flags);
  PutU32(&header, static_cast<uint32_t>(options_.chunk_records));
  PutF64(&header, meta_.sampling_rate);
  PutF64(&header, meta_.window_seconds);
  PutF64(&header, meta_.step_seconds);
  PutU32(&header, meta_.window_steps);
  PutU32(&header, Crc32(header));
  WriteRaw(header.data(), header.size());
}

TraceStoreWriter::~TraceStoreWriter() {
  if (file_ != nullptr) {
    std::fclose(file_);  // ebs-lint: allow(unchecked-fclose) unfinished file: invalid by construction, no footer
  }
}

bool TraceStoreWriter::WriteRaw(const void* data, size_t size) {
  if (!ok_) {
    return false;
  }
  if (std::fwrite(data, 1, size, file_) != size || std::ferror(file_) != 0) {
    ok_ = false;
    return false;
  }
  offset_ += size;
  return true;
}

bool TraceStoreWriter::Append(const TraceRecord& record, uint32_t step) {
  if (!ok()) {
    return false;
  }
  if (step >= meta_.window_steps || (records_written_ > 0 && step < last_step_)) {
    ok_ = false;  // caller contract: steps non-decreasing and inside the window
    return false;
  }
  last_step_ = step;
  pending_.push_back(record);
  pending_steps_.push_back(step);
  ++records_written_;
  if (pending_.size() < options_.chunk_records) {
    return true;
  }
  const bool wrote = WriteChunks(pending_, pending_steps_);
  pending_.clear();
  pending_steps_.clear();
  return wrote;
}

bool TraceStoreWriter::AppendAll(std::span<const TraceRecord> records,
                                 std::span<const uint32_t> steps) {
  if (!ok()) {
    return false;
  }
  for (size_t i = 0; i < steps.size(); ++i) {
    if (steps[i] >= meta_.window_steps || (i > 0 && steps[i] < steps[i - 1])) {
      ok_ = false;
      return false;
    }
  }
  records_written_ = records.size();
  last_step_ = steps.empty() ? 0 : steps.back();
  return WriteChunks(records, steps);
}

bool TraceStoreWriter::WriteChunks(std::span<const TraceRecord> records,
                                   std::span<const uint32_t> steps) {
  struct Chunk {
    std::vector<uint8_t> payload;
    uint32_t crc = 0;
  };
  const PieceLoop loop(kChunksPerThread);
  std::vector<Chunk> slots(loop.window);
  const size_t per_chunk = options_.chunk_records;
  loop.Run(
      PieceCount(records.size(), per_chunk), nullptr,
      [&](size_t i) {
        const auto [first, count] = PieceRange(i, per_chunk, records.size());
        Chunk& chunk = slots[i % loop.window];
        EncodeChunkPayload(records.subspan(first, count), steps.subspan(first, count),
                           options_.precision, &chunk.payload);
        chunk.crc = Crc32(chunk.payload);
      },
      [&](size_t i) {
        const auto count =
            static_cast<uint32_t>(PieceRange(i, per_chunk, records.size()).second);
        const Chunk& chunk = slots[i % loop.window];
        std::vector<uint8_t> header;
        PutU32(&header, count);
        PutU32(&header, static_cast<uint32_t>(chunk.payload.size()));
        PutU32(&header, chunk.crc);
        index_.push_back({offset_, count});
        WriteRaw(header.data(), header.size());
        WriteRaw(chunk.payload.data(), chunk.payload.size());
      });
  return ok_;
}

bool TraceStoreWriter::Finish() { return FinishImpl(nullptr); }

bool TraceStoreWriter::Finish(const WorkloadResult& result) { return FinishImpl(&result); }

bool TraceStoreWriter::FinishImpl(const WorkloadResult* result) {
  if (!ok()) {
    return false;
  }
  finished_ = true;
  WriteChunks(pending_, pending_steps_);

  uint64_t metrics_offset = 0;
  uint64_t metrics_size = 0;
  uint32_t metrics_crc = 0;
  if (result != nullptr && ok_) {
    metrics_offset = offset_;
    EncodeMetricsSection(*result, [&](const std::vector<uint8_t>& piece, uint32_t crc) {
      metrics_size += piece.size();
      metrics_crc = Crc32Combine(metrics_crc, crc, piece.size());
      WriteRaw(piece.data(), piece.size());
    });
  }

  std::vector<uint8_t> footer;
  PutVarint(&footer, records_written_);
  PutVarint(&footer, index_.size());
  uint64_t prev_offset = 0;
  for (const ChunkIndexEntry& entry : index_) {
    PutVarint(&footer, entry.offset - prev_offset);
    PutVarint(&footer, entry.records);
    prev_offset = entry.offset;
  }
  PutVarint(&footer, metrics_offset);
  PutVarint(&footer, metrics_size);
  PutU32(&footer, metrics_crc);

  const uint64_t footer_offset = offset_;
  WriteRaw(footer.data(), footer.size());

  std::vector<uint8_t> trailer;
  PutU64(&trailer, footer_offset);
  PutU64(&trailer, footer.size());
  PutU32(&trailer, Crc32(footer));
  PutU32(&trailer, kStoreTrailerMagic);
  WriteRaw(trailer.data(), trailer.size());

  // The CSV exporters' close contract: ferror catches mid-run write failures,
  // the fclose result catches data lost in the final flush (e.g. disk full).
  std::FILE* raw = file_;
  file_ = nullptr;
  const bool wrote_ok = ok_ && std::ferror(raw) == 0;
  const bool closed_ok = std::fclose(raw) == 0;
  ok_ = false;
  return wrote_ok && closed_ok;
}

namespace {

TraceStoreMeta MetaOf(const TraceDataset& traces, double step_seconds, uint32_t window_steps) {
  return {.sampling_rate = traces.sampling_rate,
          .window_seconds = traces.window_seconds,
          .step_seconds = step_seconds,
          .window_steps = window_steps};
}

// Every record's step, derived from its timestamp as the batch conveniences
// document.
std::vector<uint32_t> DerivedSteps(const TraceDataset& traces, double step_seconds,
                                   uint32_t window_steps) {
  std::vector<uint32_t> steps;
  steps.reserve(traces.records.size());
  uint32_t prev_step = 0;
  for (const TraceRecord& record : traces.records) {
    uint32_t step = 0;
    if (step_seconds > 0.0 && record.timestamp > 0.0) {
      const double raw = std::floor(record.timestamp / step_seconds);
      step = raw >= static_cast<double>(window_steps)
                 ? (window_steps == 0 ? 0 : window_steps - 1)
                 : static_cast<uint32_t>(raw);
    }
    step = std::max(step, prev_step);  // generator timestamps never regress a step
    prev_step = step;
    steps.push_back(step);
  }
  return steps;
}

}  // namespace

bool WriteDatasetToStore(const std::string& path, const TraceDataset& traces,
                         double step_seconds, uint32_t window_steps,
                         TraceStoreOptions options) {
  TraceStoreWriter writer(path, MetaOf(traces, step_seconds, window_steps), options);
  return writer.AppendAll(traces.records, DerivedSteps(traces, step_seconds, window_steps)) &&
         writer.Finish();
}

bool WriteWorkloadToStore(const std::string& path, const WorkloadResult& result,
                          double step_seconds, TraceStoreOptions options) {
  const auto window_steps = static_cast<uint32_t>(result.metrics.window_steps);
  TraceStoreWriter writer(path, MetaOf(result.traces, step_seconds, window_steps), options);
  return writer.AppendAll(result.traces.records,
                          DerivedSteps(result.traces, step_seconds, window_steps)) &&
         writer.Finish(result);
}

// ---------------------------------------------------------------------------
// TraceStoreReader.
// ---------------------------------------------------------------------------

TraceStoreReader::TraceStoreReader(const std::string& path) {
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) {
    throw TraceStoreError(StoreErrorCode::kIoError, "cannot open " + path);
  }
  try {
    if (std::fseek(file_, 0, SEEK_END) != 0) {
      throw TraceStoreError(StoreErrorCode::kIoError, "seek to end failed");
    }
    const long end = std::ftell(file_);
    if (end < 0) {
      throw TraceStoreError(StoreErrorCode::kIoError, "ftell failed");
    }
    info_.file_bytes = static_cast<uint64_t>(end);
    if (info_.file_bytes < kStoreHeaderBytes + kStoreTrailerBytes) {
      throw TraceStoreError(StoreErrorCode::kTruncated,
                            "file smaller than header + trailer");
    }

    // Trailer -> footer -> header, CRC-checking each hop.
    uint8_t trailer_bytes[kStoreTrailerBytes];
    ReadAt(info_.file_bytes - kStoreTrailerBytes, trailer_bytes, kStoreTrailerBytes);
    ByteReader trailer(trailer_bytes, kStoreTrailerBytes);
    uint64_t footer_offset = 0;
    uint64_t footer_size = 0;
    uint32_t footer_crc = 0;
    uint32_t trailer_magic = 0;
    trailer.GetU64(&footer_offset);
    trailer.GetU64(&footer_size);
    trailer.GetU32(&footer_crc);
    trailer.GetU32(&trailer_magic);
    if (trailer_magic != kStoreTrailerMagic) {
      throw TraceStoreError(StoreErrorCode::kBadMagic, "trailer magic mismatch");
    }
    if (footer_offset < kStoreHeaderBytes ||
        footer_size > info_.file_bytes - kStoreTrailerBytes ||
        footer_offset > info_.file_bytes - kStoreTrailerBytes - footer_size) {
      throw TraceStoreError(StoreErrorCode::kFooterCorrupt, "footer range out of bounds");
    }

    std::vector<uint8_t> footer_bytes(static_cast<size_t>(footer_size));
    ReadAt(footer_offset, footer_bytes.data(), footer_bytes.size());
    if (Crc32(footer_bytes) != footer_crc) {
      throw TraceStoreError(StoreErrorCode::kFooterCorrupt, "footer CRC mismatch");
    }

    uint8_t header_bytes[kStoreHeaderBytes];
    ReadAt(0, header_bytes, kStoreHeaderBytes);
    if (Crc32(header_bytes, kStoreHeaderBytes - 4) !=
        (static_cast<uint32_t>(header_bytes[44]) |
         static_cast<uint32_t>(header_bytes[45]) << 8 |
         static_cast<uint32_t>(header_bytes[46]) << 16 |
         static_cast<uint32_t>(header_bytes[47]) << 24)) {
      throw TraceStoreError(StoreErrorCode::kHeaderCorrupt, "header CRC mismatch");
    }
    ByteReader header(header_bytes, kStoreHeaderBytes);
    uint32_t magic = 0;
    uint32_t flags = 0;
    uint32_t chunk_target = 0;
    header.GetU32(&magic);
    header.GetU32(&info_.version);
    header.GetU32(&flags);
    header.GetU32(&chunk_target);
    header.GetF64(&info_.meta.sampling_rate);
    header.GetF64(&info_.meta.window_seconds);
    header.GetF64(&info_.meta.step_seconds);
    uint32_t window_steps = 0;
    header.GetU32(&window_steps);
    info_.meta.window_steps = window_steps;
    if (magic != kStoreMagic) {
      throw TraceStoreError(StoreErrorCode::kBadMagic, "header magic mismatch");
    }
    if (info_.version != kStoreVersion) {
      throw TraceStoreError(StoreErrorCode::kBadVersion,
                            "unsupported version " + std::to_string(info_.version));
    }
    if ((flags & ~(kStoreFlagExportPrecision | kStoreFlagHasMetrics)) != 0) {
      throw TraceStoreError(StoreErrorCode::kHeaderCorrupt, "unknown header flags");
    }
    if (chunk_target == 0 || chunk_target > kStoreMaxChunkRecords) {
      throw TraceStoreError(StoreErrorCode::kHeaderCorrupt, "chunk_target out of range");
    }
    info_.precision = (flags & kStoreFlagExportPrecision) != 0 ? StorePrecision::kExport
                                                               : StorePrecision::kExact;

    ByteReader footer(footer_bytes.data(), footer_bytes.size());
    uint64_t chunk_count = 0;
    if (!footer.GetVarint(&info_.record_count) || !footer.GetVarint(&chunk_count)) {
      throw TraceStoreError(StoreErrorCode::kFooterCorrupt, "footer counts overrun");
    }
    if (chunk_count > info_.file_bytes / kStoreChunkHeaderBytes) {
      throw TraceStoreError(StoreErrorCode::kFooterCorrupt, "implausible chunk count");
    }
    chunks_.reserve(static_cast<size_t>(chunk_count));
    uint64_t prev_offset = 0;
    uint64_t records_total = 0;
    for (uint64_t i = 0; i < chunk_count; ++i) {
      uint64_t offset_delta = 0;
      uint64_t records = 0;
      if (!footer.GetVarint(&offset_delta) || !footer.GetVarint(&records)) {
        throw TraceStoreError(StoreErrorCode::kFooterCorrupt, "chunk index overrun");
      }
      const uint64_t offset = prev_offset + offset_delta;
      if (records == 0 || records > chunk_target || offset < kStoreHeaderBytes ||
          (i > 0 && offset <= prev_offset) ||
          offset + kStoreChunkHeaderBytes > footer_offset) {
        throw TraceStoreError(StoreErrorCode::kFooterCorrupt, "chunk index entry invalid");
      }
      prev_offset = offset;
      records_total += records;
      chunks_.push_back({offset, static_cast<uint32_t>(records)});
    }
    if (records_total != info_.record_count) {
      throw TraceStoreError(StoreErrorCode::kFooterCorrupt,
                            "chunk index disagrees with record count");
    }
    if (info_.record_count > 0 && info_.meta.window_steps == 0) {
      throw TraceStoreError(StoreErrorCode::kHeaderCorrupt,
                            "records present but window_steps is zero");
    }
    if (!footer.GetVarint(&footer_.metrics_offset) ||
        !footer.GetVarint(&footer_.metrics_size) || !footer.GetU32(&footer_.metrics_crc) ||
        !footer.exhausted()) {
      throw TraceStoreError(StoreErrorCode::kFooterCorrupt, "footer metrics range overrun");
    }
    if (footer_.metrics_offset != 0) {
      if (footer_.metrics_offset < kStoreHeaderBytes ||
          footer_.metrics_size > footer_offset ||
          footer_.metrics_offset > footer_offset - footer_.metrics_size) {
        throw TraceStoreError(StoreErrorCode::kFooterCorrupt,
                              "metrics range out of bounds");
      }
      info_.has_metrics = true;
    }
    info_.chunk_count = chunks_.size();
  } catch (...) {
    std::fclose(file_);  // ebs-lint: allow(unchecked-fclose) read-only stream, open already failed
    file_ = nullptr;
    throw;
  }
}

TraceStoreReader::~TraceStoreReader() {
  if (file_ != nullptr) {
    std::fclose(file_);  // ebs-lint: allow(unchecked-fclose) read-only stream, nothing buffered to lose
  }
}

void TraceStoreReader::ReadAt(uint64_t offset, void* out, size_t size) const {
  if (offset > info_.file_bytes || size > info_.file_bytes - offset) {
    throw TraceStoreError(StoreErrorCode::kTruncated, "read past end of file");
  }
  if (std::fseek(file_, static_cast<long>(offset), SEEK_SET) != 0) {
    throw TraceStoreError(StoreErrorCode::kIoError, "seek failed");
  }
  if (std::fread(out, 1, size, file_) != size) {
    throw TraceStoreError(std::ferror(file_) != 0 ? StoreErrorCode::kIoError
                                                  : StoreErrorCode::kTruncated,
                          "short read");
  }
}

uint64_t TraceStoreReader::ChunkEndBoundary(size_t index) const {
  if (index + 1 < chunks_.size()) {
    return chunks_[index + 1].offset;
  }
  if (footer_.metrics_offset != 0) {
    return footer_.metrics_offset;
  }
  return info_.file_bytes;  // footer range is validated against the trailer
}

uint32_t TraceStoreReader::ReadChunkBytes(size_t index, std::vector<uint8_t>* payload) const {
  const StoreChunkInfo& entry = chunks_[index];
  uint8_t header_bytes[kStoreChunkHeaderBytes];
  ReadAt(entry.offset, header_bytes, kStoreChunkHeaderBytes);
  ByteReader header(header_bytes, kStoreChunkHeaderBytes);
  uint32_t record_count = 0;
  uint32_t payload_size = 0;
  uint32_t payload_crc = 0;
  header.GetU32(&record_count);
  header.GetU32(&payload_size);
  header.GetU32(&payload_crc);
  if (record_count != entry.records) {
    throw TraceStoreError(StoreErrorCode::kChunkCorrupt,
                          "chunk header disagrees with footer index");
  }
  const uint64_t payload_end = entry.offset + kStoreChunkHeaderBytes + payload_size;
  if (payload_end > ChunkEndBoundary(index)) {
    throw TraceStoreError(StoreErrorCode::kChunkCorrupt, "chunk payload overruns section");
  }
  payload->resize(payload_size);
  ReadAt(entry.offset + kStoreChunkHeaderBytes, payload->data(), payload->size());
  return payload_crc;
}

void TraceStoreReader::ReadChunk(size_t index, std::vector<TraceRecord>* records,
                                 std::vector<uint32_t>* steps) const {
  if (index >= chunks_.size()) {
    throw std::out_of_range("trace store: chunk index out of range");
  }
  std::vector<uint8_t> payload;
  const uint32_t crc = ReadChunkBytes(index, &payload);
  DecodeChunk(payload, crc, chunks_[index].records, info_.meta.window_steps, records, steps);
}

TraceDataset TraceStoreReader::ReadAll() const {
  TraceDataset dataset;
  dataset.window_seconds = info_.meta.window_seconds;
  dataset.sampling_rate = info_.meta.sampling_rate;
  // The footer's total is only a claim until the chunks decode, and its
  // entries may overlap: reserve at most one record per file byte, so a
  // forged total cannot size the dataset. Any real store stays under it.
  dataset.records.reserve(
      static_cast<size_t>(std::min(info_.record_count, info_.file_bytes)));
  // Chunk bytes are read here, in order; each chunk is CRC-checked and
  // decoded on a worker into its slot, then appended here, in order.
  struct Chunk {
    std::vector<uint8_t> payload;
    uint32_t crc = 0;
    std::vector<TraceRecord> records;
  };
  const PieceLoop loop(kChunksPerThread);
  std::vector<Chunk> slots(loop.window);
  loop.Run(
      chunks_.size(),
      [&](size_t i) {
        Chunk& chunk = slots[i % loop.window];
        chunk.crc = ReadChunkBytes(i, &chunk.payload);
      },
      [&](size_t i) {
        Chunk& chunk = slots[i % loop.window];
        chunk.records.clear();
        DecodeChunk(chunk.payload, chunk.crc, chunks_[i].records, info_.meta.window_steps,
                    &chunk.records, nullptr);
      },
      [&](size_t i) {
        const std::vector<TraceRecord>& records = slots[i % loop.window].records;
        dataset.records.insert(dataset.records.end(), records.begin(), records.end());
      });
  return dataset;
}

void TraceStoreReader::ReadMetricsInto(WorkloadResult* result) const {
  if (!info_.has_metrics) {
    throw TraceStoreError(StoreErrorCode::kNoMetrics,
                          "store was written without a metrics section");
  }
  // Not zero-filled first: the read overwrites every byte (DcPreset(1): 37 MB).
  const size_t size = static_cast<size_t>(footer_.metrics_size);
  const std::unique_ptr<uint8_t[]> section = std::make_unique_for_overwrite<uint8_t[]>(size);
  ReadAt(footer_.metrics_offset, section.get(), size);
  // The CRC, in slices on the workers, joined in order, is checked before
  // any byte is decoded.
  const PieceLoop loop(kChunksPerThread);
  std::vector<uint32_t> slice_crcs(loop.window);
  uint32_t crc = 0;
  loop.Run(
      PieceCount(size, kCrcSliceBytes), nullptr,
      [&](size_t i) {
        const auto [first, bytes] = PieceRange(i, kCrcSliceBytes, size);
        slice_crcs[i % loop.window] = Crc32(section.get() + first, bytes);
      },
      [&](size_t i) {
        crc = Crc32Combine(crc, slice_crcs[i % loop.window],
                           PieceRange(i, kCrcSliceBytes, size).second);
      });
  if (crc != footer_.metrics_crc) {
    throw TraceStoreError(StoreErrorCode::kChunkCorrupt, "metrics section CRC mismatch");
  }
  DecodeMetricsSection(ByteReader(section.get(), size), info_.meta, result);
}

// ---------------------------------------------------------------------------
// Fingerprint.
// ---------------------------------------------------------------------------

namespace {

inline uint64_t FnvMix(uint64_t hash, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (value >> (8 * i)) & 0xFFu;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

// A double at export precision: its fixed-point grid value when
// representable, its raw bit pattern (tagged) otherwise.
inline uint64_t ExportKey(double value, double scale) {
  int64_t q = 0;
  if (QuantizeScaled(value, scale, &q)) {
    return ZigzagEncode(q);
  }
  return BitsOf(value) | (1ull << 63);
}

}  // namespace

uint64_t AggregateFingerprint(const TraceDataset& traces) {
  uint64_t hash = 0xCBF29CE484222325ull;
  hash = FnvMix(hash, traces.records.size());
  for (const TraceRecord& r : traces.records) {
    hash = FnvMix(hash, ExportKey(r.timestamp, kMicrosPerSecond));
    hash = FnvMix(hash, static_cast<uint64_t>(r.op));
    hash = FnvMix(hash, r.size_bytes);
    hash = FnvMix(hash, r.offset);
    hash = FnvMix(hash, r.user.value());
    hash = FnvMix(hash, r.vm.value());
    hash = FnvMix(hash, r.vd.value());
    hash = FnvMix(hash, r.qp.value());
    hash = FnvMix(hash, r.wt.value());
    hash = FnvMix(hash, r.cn.value());
    hash = FnvMix(hash, r.segment.value());
    hash = FnvMix(hash, r.bs.value());
    hash = FnvMix(hash, r.sn.value());
    for (int c = 0; c < kStackComponentCount; ++c) {
      hash = FnvMix(hash, ExportKey(r.latency.component_us[c], kCentiPerMicro));
    }
    hash = FnvMix(hash, static_cast<uint64_t>(r.fault_retries) |
                            (r.fault_timed_out ? 1ull << 8 : 0) |
                            (r.fault_failed_over ? 1ull << 9 : 0));
  }
  return hash;
}

}  // namespace ebs
