// CRC32 (CRC-32/ISO-HDLC: IEEE 802.3 polynomial, reflected) for on-disk
// integrity checks; docs/FORMATS.md defines it and what "seeded" means.
//
// It seals every page trailer of the page device (each write, each erasure
// and each verified read of a page), the superblock, WAL records, WAL
// archive segments, backup payloads and sealed text manifests.  A whole
// page is the common input, so the loop is slicing-by-8 (eight table
// lookups fold eight bytes per step); its values are those of the
// byte-at-a-time definition.

#ifndef BMEH_COMMON_CRC32_H_
#define BMEH_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace bmeh {

/// \brief CRC32 of `n` bytes at `data`, continuing from `seed`.
///
/// `seed` lets callers fold extra context (e.g. a record's page offset)
/// into the checksum so that stale bytes that happen to hold an old valid
/// record do not verify at a new position.
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

}  // namespace bmeh

#endif  // BMEH_COMMON_CRC32_H_
