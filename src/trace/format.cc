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

namespace {

// Polynomials over GF(2) modulo the CRC polynomial, held reflected as the
// CRC holds them: bit 31 is x^0. Returns a * b; `a` must not be zero.
constexpr uint32_t MultiplyModP(uint32_t a, uint32_t b) {
  uint32_t product = 0;
  for (uint32_t m = 1u << 31;; m >>= 1) {
    if ((a & m) != 0) {
      product ^= b;
      if ((a & (m - 1)) == 0) {
        return product;
      }
    }
    b = (b & 1u) != 0 ? (b >> 1) ^ 0xEDB88320u : b >> 1;
  }
}

// kXPow2n[k] = x^(2^k) modulo the polynomial; x^(2^32) = x, so 32 entries
// cover every k.
constexpr std::array<uint32_t, 32> BuildXPow2n() {
  std::array<uint32_t, 32> table{};
  uint32_t p = 1u << 30;  // x^1
  table[0] = p;
  for (size_t k = 1; k < table.size(); ++k) {
    table[k] = p = MultiplyModP(p, p);
  }
  return table;
}

constexpr std::array<uint32_t, 32> kXPow2n = BuildXPow2n();

}  // namespace

uint32_t Crc32Combine(uint32_t crc1, uint32_t crc2, uint64_t len2) {
  // crc1 shifted over len2 zero bytes is crc1 * x^(8 * len2).
  uint32_t shift = 1u << 31;  // x^0
  for (size_t k = 3; len2 != 0; len2 >>= 1, ++k) {
    if ((len2 & 1u) != 0) {
      shift = MultiplyModP(kXPow2n[k & 31], shift);
    }
  }
  return MultiplyModP(shift, crc1) ^ crc2;
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
