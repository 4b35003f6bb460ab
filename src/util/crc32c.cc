#include "util/crc32c.h"

#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SCIBORQ_CRC32C_SSE42 1
#include <nmmintrin.h>
#endif

namespace sciborq {

namespace {

/// Reflected Castagnoli polynomial.
constexpr uint32_t kPoly = 0x82F63B78u;

/// 4 lookup tables (slicing-by-4): table[0] is the classic byte-at-a-time
/// table, table[k] advances a byte that sits k positions deeper in the word.
struct Tables {
  uint32_t t[4][256];
};

constexpr Tables BuildTables() {
  Tables tables{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) ? kPoly : 0u);
    }
    tables.t[0][i] = crc;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (int k = 1; k < 4; ++k) {
      tables.t[k][i] =
          (tables.t[k - 1][i] >> 8) ^ tables.t[0][tables.t[k - 1][i] & 0xffu];
    }
  }
  return tables;
}

constexpr Tables kTables = BuildTables();

#ifdef SCIBORQ_CRC32C_SSE42
/// The SSE4.2 `crc32` instruction computes exactly the reflected CRC-32C
/// register update, so this is the table loop with 8 bytes per step. The
/// unaligned 8-byte loads go through memcpy; x86 is little-endian, which is
/// the byte order the reflected CRC consumes.
__attribute__((target("sse4.2"))) uint32_t ExtendSse42(uint32_t crc,
                                                       const void* data,
                                                       size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  uint64_t state = ~crc;
  while (n >= 8) {
    uint64_t word;
    std::memcpy(&word, p, sizeof(word));
    state = _mm_crc32_u64(state, word);
    p += 8;
    n -= 8;
  }
  auto state32 = static_cast<uint32_t>(state);
  while (n-- > 0) state32 = _mm_crc32_u8(state32, *p++);
  return ~state32;
}
#endif

using ExtendFn = uint32_t (*)(uint32_t, const void*, size_t);

ExtendFn ResolveExtend() {
#ifdef SCIBORQ_CRC32C_SSE42
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return &ExtendSse42;
#endif
  return &Crc32cExtendPortable;
}

ExtendFn ActiveExtend() {
  static const ExtendFn fn = ResolveExtend();
  return fn;
}

}  // namespace

uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  crc = ~crc;
  while (n >= 4) {
    crc ^= static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
           (static_cast<uint32_t>(p[2]) << 16) |
           (static_cast<uint32_t>(p[3]) << 24);
    crc = kTables.t[3][crc & 0xffu] ^ kTables.t[2][(crc >> 8) & 0xffu] ^
          kTables.t[1][(crc >> 16) & 0xffu] ^ kTables.t[0][crc >> 24];
    p += 4;
    n -= 4;
  }
  while (n-- > 0) {
    crc = (crc >> 8) ^ kTables.t[0][(crc ^ *p++) & 0xffu];
  }
  return ~crc;
}

uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n) {
  return ActiveExtend()(crc, data, n);
}

uint32_t Crc32c(const void* data, size_t n) {
  return Crc32cExtend(0, data, n);
}

bool Crc32cUsesHardware() {
  return ActiveExtend() != &Crc32cExtendPortable;
}

}  // namespace sciborq
