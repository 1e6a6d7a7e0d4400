#include "src/trace/format.h"

#include <array>
#include <cmath>

namespace ebs {

const char* StoreErrorCodeName(StoreErrorCode code) {
  switch (code) {
    case StoreErrorCode::kIoError:
      return "io error";
    case StoreErrorCode::kTruncated:
      return "truncated";
    case StoreErrorCode::kBadMagic:
      return "bad magic";
    case StoreErrorCode::kBadVersion:
      return "bad version";
    case StoreErrorCode::kHeaderCorrupt:
      return "header corrupt";
    case StoreErrorCode::kFooterCorrupt:
      return "footer corrupt";
    case StoreErrorCode::kChunkCorrupt:
      return "chunk corrupt";
    case StoreErrorCode::kDecodeError:
      return "decode error";
    case StoreErrorCode::kNoMetrics:
      return "no metrics section";
    case StoreErrorCode::kMismatch:
      return "store/fleet mismatch";
  }
  return "unknown";
}

namespace {

using CrcTables = std::array<std::array<uint32_t, 256>, 8>;

// Slicing-by-8 tables: t[0] is the classic byte-at-a-time table, and t[k][b]
// is the CRC contribution of byte b followed by k zero bytes.
constexpr CrcTables BuildCrcTables() {
  CrcTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0xEDB88320u : 0u);
    }
    t[0][i] = crc;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr CrcTables kCrcTables = BuildCrcTables();

// Words are assembled from bytes, so the CRC does not depend on host byte
// order.
inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Extend(uint32_t crc, const uint8_t* data, size_t size) {
  const CrcTables& t = kCrcTables;
  crc ^= 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = crc ^ LoadLe32(data);
    const uint32_t hi = LoadLe32(data + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
          t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    crc = (crc >> 8) ^ t[0][(crc ^ *data) & 0xFFu];
  }
  return crc ^ 0xFFFFFFFFu;
}

bool QuantizeScaled(double value, double scale, int64_t* out) {
  const double scaled = value * scale;
  if (!std::isfinite(scaled) || scaled > static_cast<double>(kMaxQuantized) ||
      scaled < -static_cast<double>(kMaxQuantized)) {
    return false;
  }
  *out = std::llround(scaled);
  return true;
}

}  // namespace ebs
