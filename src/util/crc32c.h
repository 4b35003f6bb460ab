#ifndef SCIBORQ_UTIL_CRC32C_H_
#define SCIBORQ_UTIL_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace sciborq {

/// CRC-32C (Castagnoli, polynomial 0x1EDC6F41, reflected) — the checksum
/// used by the storage formats (snapshot bodies, WAL record frames). Chosen
/// over plain CRC-32 for its better burst-error detection; the same choice
/// as LevelDB/RocksDB WALs.
///
/// Dispatch: on x86-64 hosts whose CPU reports SSE4.2 (checked once, at the
/// first call, with __builtin_cpu_supports), the checksum runs on the `crc32`
/// instruction, 8 bytes per step. Every other host uses the portable
/// slicing-by-4 table path. Both compute the same function, so a checksum
/// written by one path verifies under the other.
uint32_t Crc32c(const void* data, size_t n);
inline uint32_t Crc32c(std::string_view s) { return Crc32c(s.data(), s.size()); }

/// Extends a running CRC with more bytes: Crc32cExtend(Crc32c(a), b) ==
/// Crc32c(a+b).
uint32_t Crc32cExtend(uint32_t crc, const void* data, size_t n);

/// The portable slicing-by-4 path, whatever the host: the fallback the
/// dispatch uses without a CRC-32C instruction, and the oracle the tests
/// hold the instruction path to.
uint32_t Crc32cExtendPortable(uint32_t crc, const void* data, size_t n);

/// True when Crc32c/Crc32cExtend run on the CPU's CRC-32C instruction.
bool Crc32cUsesHardware();

}  // namespace sciborq

#endif  // SCIBORQ_UTIL_CRC32C_H_
