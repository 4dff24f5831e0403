// CRC32C (Castagnoli) checksum: the SSE4.2 instruction where the CPU has it, a table
// otherwise (picked once at run time; both give the same bits).
//
// All on-disk payloads are checksummed: the system treats data read from disk as
// untrusted (paper section 7, "Serialization"), so readers validate CRCs and surface
// kCorruption rather than ever acting on damaged bytes.

#ifndef SS_COMMON_CRC32C_H_
#define SS_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>

namespace ss {

// CRC of `data[0, n)` with the given running value. Chain calls to checksum
// discontiguous regions: Crc32c(b, m, Crc32c(a, n)).
uint32_t Crc32c(const uint8_t* data, size_t n, uint32_t crc = 0);

}  // namespace ss

#endif  // SS_COMMON_CRC32C_H_
