// Seeded 64-bit page checksum codec.
//
// Four independent 64-bit lanes, one per 8-byte word slot of each 32-byte
// stripe, each running an xxh64-style round (acc += w * P2; acc = rotl(acc,
// 31) * P1) so a word's multiply stays off the lane's dependency chain. The
// lanes then fold in order through a splitmix finalizer; leftover words and
// the zero-padded tail chain through the same finalizer. Seed and length
// form the initial state, and each lane starts from a distinct state derived
// from it.
//
// Every lane round and every fold step is a bijection of the running state
// for a fixed input word, and each absorbs its word injectively, so changing
// any single word (a flipped bit, a torn 8-byte word) is *guaranteed* to
// change the digest. Two swapped words, the length and the seed change it
// with overwhelming probability. This is a corruption *detector* (like the
// CRCs storage stacks keep per block), not a cryptographic MAC — the
// adversary is a bit flip, not an attacker.

#ifndef ADIOS_SRC_INTEGRITY_PAGE_CHECKSUM_H_
#define ADIOS_SRC_INTEGRITY_PAGE_CHECKSUM_H_

#include <cstddef>
#include <cstdint>

namespace adios {

// Digest of `len` bytes at `data` under `seed`. Deterministic across runs
// and little-endian platforms (word loads via memcpy); the known-answer test
// in tests/integrity_test.cc pins its values.
uint64_t PageChecksum(const void* data, size_t len, uint64_t seed);

}  // namespace adios

#endif  // ADIOS_SRC_INTEGRITY_PAGE_CHECKSUM_H_
