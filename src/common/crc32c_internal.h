// The two CRC32C kernels behind ss::Crc32c, exposed only so tests can check them
// against each other. Everything else calls Crc32c, which picks one at run time.

#ifndef SS_COMMON_CRC32C_INTERNAL_H_
#define SS_COMMON_CRC32C_INTERNAL_H_

#include <cstddef>
#include <cstdint>

namespace ss::crc32c_internal {

// Byte-at-a-time table kernel; runs on every CPU.
uint32_t Table(const uint8_t* data, size_t n, uint32_t crc);

// The SSE4.2 `crc32` instruction, 8 bytes at a time. Callable only when
// HardwareAvailable() is true.
uint32_t Hardware(const uint8_t* data, size_t n, uint32_t crc);

// Whether this CPU has the instruction (always false off x86).
bool HardwareAvailable();

}  // namespace ss::crc32c_internal

#endif  // SS_COMMON_CRC32C_INTERNAL_H_
