#ifndef DIME_COMMON_CHECKSUM_H_
#define DIME_COMMON_CHECKSUM_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

/// \file checksum.h
/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial) over byte ranges. The
/// snapshot store checksums every section payload and the footer with it;
/// a mismatch on load is reported as DATA_LOSS rather than handing the
/// engines silently corrupted arenas. Software slice-by-8 implementation
/// (~1 GB/s): the loader checksums the whole file on warm start, so CRC
/// throughput is a direct term in warm-start time.

namespace dime {

/// CRC-32 of `len` bytes starting at `data`, seeded with `seed` (pass the
/// previous call's return value to checksum a discontiguous range; the
/// default seed checksums a standalone range).
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

inline uint32_t Crc32(std::string_view bytes, uint32_t seed = 0) {
  return Crc32(bytes.data(), bytes.size(), seed);
}

}  // namespace dime

#endif  // DIME_COMMON_CHECKSUM_H_
