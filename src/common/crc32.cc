#include "common/crc32.h"

namespace itag {

namespace {

/// Slice-by-8 tables: t[0] is the classic byte-at-a-time table, and t[k]
/// advances a byte's contribution across k more zero bytes, so eight table
/// lookups fold eight input bytes at once.
struct Crc32Tables {
  uint32_t t[8][256] = {};
  constexpr Crc32Tables() {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[0][i] = c;
    }
    for (uint32_t i = 0; i < 256; ++i) {
      for (int k = 1; k < 8; ++k) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
  }
};

constexpr Crc32Tables kTables;

/// The little-endian 32-bit word at `p`, assembled byte by byte (no
/// alignment or aliasing assumptions).
inline uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Extend(uint32_t crc, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  const auto& t = kTables.t;
  crc = ~crc;
  for (; n >= 8; p += 8, n -= 8) {
    const uint32_t lo = crc ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  return ~crc;
}

uint32_t Crc32(const void* data, size_t n) {
  return Crc32Extend(0, data, n);
}

}  // namespace itag
