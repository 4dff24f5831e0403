#include "src/common/crc32c.h"

#include <array>
#include <cstring>

#include "src/common/crc32c_internal.h"

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace ss {
namespace crc32c_internal {
namespace {

// Table generated at first use for the Castagnoli polynomial (reflected: 0x82f63b78).
const std::array<uint32_t, 256>& CrcTable() {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int k = 0; k < 8; ++k) {
        crc = (crc & 1) ? (crc >> 1) ^ 0x82f63b78u : crc >> 1;
      }
      t[i] = crc;
    }
    return t;
  }();
  return table;
}

}  // namespace

uint32_t Table(const uint8_t* data, size_t n, uint32_t crc) {
  const auto& table = CrcTable();
  crc = ~crc;
  for (size_t i = 0; i < n; ++i) {
    crc = table[(crc ^ data[i]) & 0xff] ^ (crc >> 8);
  }
  return ~crc;
}

#if defined(__x86_64__)
// Compiled for SSE4.2 on its own, so the rest of the program needs no -msse4.2.
__attribute__((target("sse4.2"))) uint32_t Hardware(const uint8_t* data, size_t n,
                                                     uint32_t crc) {
  uint64_t c = ~crc;
  for (; n >= 8; data += 8, n -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; n > 0; ++data, --n) {
    c32 = _mm_crc32_u8(c32, *data);
  }
  return ~c32;
}

bool HardwareAvailable() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sse4.2");
}
#else
uint32_t Hardware(const uint8_t* data, size_t n, uint32_t crc) { return Table(data, n, crc); }

bool HardwareAvailable() { return false; }
#endif

}  // namespace crc32c_internal

uint32_t Crc32c(const uint8_t* data, size_t n, uint32_t crc) {
  static const auto kernel =
      crc32c_internal::HardwareAvailable() ? &crc32c_internal::Hardware : &crc32c_internal::Table;
  return kernel(data, n, crc);
}

}  // namespace ss
