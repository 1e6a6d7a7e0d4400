// Wire primitives of the EBST binary trace store (src/trace/store.h).
//
// Everything on disk is little-endian. Integers travel as LEB128 varints
// (unsigned) or zigzag varints (signed); doubles travel either as raw IEEE754
// bit patterns or as fixed-point quantities at the CSV exporters' precision
// (microseconds for timestamps, centi-microseconds for latency components).
// Every multi-byte section is covered by a CRC-32 (IEEE, reflected
// 0xEDB88320), so a flipped bit anywhere in a file surfaces as a typed
// TraceStoreError instead of silently wrong data or UB.
//
// All decode helpers bounds-check against an explicit end pointer and report
// failure by return value; they never read past `end` and never throw — the
// store reader turns their failures into TraceStoreError.

#ifndef SRC_TRACE_FORMAT_H_
#define SRC_TRACE_FORMAT_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

namespace ebs {

// ---------------------------------------------------------------------------
// Typed store errors.
// ---------------------------------------------------------------------------

enum class StoreErrorCode {
  kIoError = 0,      // open/read/seek failed at the OS level
  kTruncated,        // file shorter than a section it promises
  kBadMagic,         // header or trailer magic mismatch
  kBadVersion,       // format version this build does not speak
  kHeaderCorrupt,    // header CRC mismatch or nonsense field values
  kFooterCorrupt,    // footer CRC mismatch, bad offsets, or malformed index
  kChunkCorrupt,     // chunk CRC mismatch or header/payload inconsistency
  kDecodeError,      // varint overrun, bad column tag, count mismatch
  kNoMetrics,        // metrics section requested but absent
  kMismatch,         // store contents inconsistent with the caller's fleet
};

const char* StoreErrorCodeName(StoreErrorCode code);

class TraceStoreError : public std::runtime_error {
 public:
  TraceStoreError(StoreErrorCode code, const std::string& detail)
      : std::runtime_error(std::string("trace store: ") + StoreErrorCodeName(code) +
                           ": " + detail),
        code_(code) {}
  StoreErrorCode code() const { return code_; }

 private:
  StoreErrorCode code_;
};

// ---------------------------------------------------------------------------
// Format constants.
// ---------------------------------------------------------------------------

inline constexpr uint32_t kStoreMagic = 0x54534245;    // "EBST" little-endian
inline constexpr uint32_t kStoreTrailerMagic = 0x45425354;  // "TSBE"
inline constexpr uint32_t kStoreVersion = 2;

// Most records one chunk may hold. The header's chunk_target must lie in
// [1, kStoreMaxChunkRecords] and bounds every chunk in the footer index, so a
// reader never sizes a chunk from a larger count.
inline constexpr uint32_t kStoreMaxChunkRecords = 65536;

// Header flag bits.
inline constexpr uint32_t kStoreFlagExportPrecision = 1u << 0;
inline constexpr uint32_t kStoreFlagHasMetrics = 1u << 1;

// Fixed section sizes (see store.h for the full layout diagram).
inline constexpr size_t kStoreHeaderBytes = 48;
inline constexpr size_t kStoreChunkHeaderBytes = 12;
inline constexpr size_t kStoreTrailerBytes = 24;

// Longest legal LEB128 encoding of a uint64 (10 * 7 bits >= 64).
inline constexpr size_t kMaxVarintBytes = 10;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), computed
// slicing-by-8: eight bytes per step through eight lookup tables.
// ---------------------------------------------------------------------------

// Extends `crc`, the CRC of some bytes, over data[0, size):
// Crc32Extend(Crc32(a), b) == Crc32(a followed by b).
uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t size);
inline uint32_t Crc32(const uint8_t* data, size_t size) { return Crc32Extend(0, data, size); }
inline uint32_t Crc32(const std::vector<uint8_t>& data) {
  return Crc32(data.data(), data.size());
}

// zlib's crc32_combine: the CRC of a followed by b from the CRCs of both and
// b's length, Crc32Combine(Crc32(a), Crc32(b), |b|) == Crc32(a followed by
// b), in O(log |b|) steps. Pieces CRC'd apart, on other threads, join this
// way in file order.
uint32_t Crc32Combine(uint32_t crc1, uint32_t crc2, uint64_t len2);

// ---------------------------------------------------------------------------
// Little-endian fixed-width scalars.
// ---------------------------------------------------------------------------

inline void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

inline void PutU64(std::vector<uint8_t>* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

inline void PutF64(std::vector<uint8_t>* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

// ---------------------------------------------------------------------------
// Varints and zigzag.
// ---------------------------------------------------------------------------

inline void PutVarint(std::vector<uint8_t>* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}

inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

inline void PutZigzag(std::vector<uint8_t>* out, int64_t v) {
  PutVarint(out, ZigzagEncode(v));
}

// ---------------------------------------------------------------------------
// Bounds-checked decode cursor.
// ---------------------------------------------------------------------------

// A read cursor over one decoded byte range. Every getter advances on success
// and returns false (cursor unchanged or exhausted) on overrun — the caller
// converts that into kDecodeError/kTruncated with context.
struct ByteReader {
  const uint8_t* pos = nullptr;
  const uint8_t* end = nullptr;

  ByteReader() = default;
  ByteReader(const uint8_t* data, size_t size) : pos(data), end(data + size) {}

  size_t remaining() const { return static_cast<size_t>(end - pos); }
  bool exhausted() const { return pos >= end; }

  bool GetU32(uint32_t* out) {
    if (remaining() < 4) {
      return false;
    }
    *out = static_cast<uint32_t>(pos[0]) | static_cast<uint32_t>(pos[1]) << 8 |
           static_cast<uint32_t>(pos[2]) << 16 | static_cast<uint32_t>(pos[3]) << 24;
    pos += 4;
    return true;
  }

  bool GetU64(uint64_t* out) {
    uint32_t lo = 0;
    uint32_t hi = 0;
    if (!GetU32(&lo)) {
      return false;
    }
    if (!GetU32(&hi)) {
      pos -= 4;
      return false;
    }
    *out = static_cast<uint64_t>(hi) << 32 | lo;
    return true;
  }

  bool GetF64(double* out) {
    uint64_t bits = 0;
    if (!GetU64(&bits)) {
      return false;
    }
    std::memcpy(out, &bits, sizeof(*out));
    return true;
  }

  bool GetByte(uint8_t* out) {
    if (exhausted()) {
      return false;
    }
    *out = *pos++;
    return true;
  }

  // Rejects overruns AND over-long encodings: a varint must fit 10 bytes and
  // the 10th byte may only contribute the top bit of the u64.
  bool GetVarint(uint64_t* out) {
    if (pos != end && *pos < 0x80) {  // one byte: always minimal
      *out = *pos++;
      return true;
    }
    uint64_t value = 0;
    const uint8_t* p = pos;
    for (size_t i = 0; i < kMaxVarintBytes; ++i) {
      if (p == end) {
        return false;
      }
      const uint8_t byte = *p++;
      if (i == kMaxVarintBytes - 1 && (byte & 0xFE) != 0) {
        return false;  // overflows u64
      }
      if (i > 0 && byte == 0) {
        return false;  // over-long: a zero final byte is never minimal
      }
      value |= static_cast<uint64_t>(byte & 0x7F) << (7 * i);
      if ((byte & 0x80) == 0) {
        *out = value;
        pos = p;
        return true;
      }
    }
    return false;
  }

  bool GetZigzag(int64_t* out) {
    uint64_t raw = 0;
    if (!GetVarint(&raw)) {
      return false;
    }
    *out = ZigzagDecode(raw);
    return true;
  }

  // Carves the next `size` bytes off as a sub-reader.
  bool GetSpan(size_t size, ByteReader* out) {
    if (remaining() < size) {
      return false;
    }
    *out = ByteReader(pos, size);
    pos += size;
    return true;
  }
};

// ---------------------------------------------------------------------------
// Export-precision quantizers (compact columns).
// ---------------------------------------------------------------------------

// The compact encodings store timestamps as integer microseconds and latency
// components as integer centi-microseconds — exactly the precision the CSV
// exporters keep (%.6f / %.2f). Values outside the exactly-representable
// range (or non-finite) are not quantizable; the writer falls back to the
// lossless bit-pattern encoding for that column in that chunk.
inline constexpr double kMicrosPerSecond = 1e6;
inline constexpr double kCentiPerMicro = 100.0;
// |quantized| bound chosen so decode(encode(x)) re-encodes to the same
// integer: products this small round-trip through double exactly enough for
// llround to land back on the same grid point.
inline constexpr int64_t kMaxQuantized = int64_t{1} << 52;

bool QuantizeScaled(double value, double scale, int64_t* out);
inline double DequantizeScaled(int64_t value, double scale) {
  return static_cast<double>(value) / scale;
}

}  // namespace ebs

#endif  // SRC_TRACE_FORMAT_H_
