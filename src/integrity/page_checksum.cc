#include "src/integrity/page_checksum.h"

#include <cstring>

namespace adios {
namespace {

// A stripe feeds four lanes one 8-byte word each: lane k reads word k.
constexpr size_t kStripe = 32;

// xxh64's primes; both odd, so multiplying by either is a bijection mod 2^64.
constexpr uint64_t kP1 = 0x9e3779b185ebca87ull;
constexpr uint64_t kP2 = 0xc2b2ae3d27d4eb4full;

// Finalizer from splitmix64: a bijection with full avalanche.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

inline uint64_t Load64(const unsigned char* p) {
  uint64_t w;
  std::memcpy(&w, p, 8);
  return w;
}

// One lane round: injective in `w` (kP2 is odd) and, for a fixed `w`, a
// bijection of `acc` (add, rotate, odd multiply).
inline uint64_t LaneRound(uint64_t acc, uint64_t w) {
  acc += w * kP2;
  acc = (acc << 31) | (acc >> 33);
  return acc * kP1;
}

}  // namespace

uint64_t PageChecksum(const void* data, size_t len, uint64_t seed) {
  // Fold the length in so a truncated page never collides with its prefix.
  const uint64_t h0 = Mix64(seed ^ (0x517cc1b727220a95ull + len));
  // Distinct lane seeds and the ordered fold below are what make moving a
  // word between lanes visible. Do not simplify either away: identical lane
  // seeds folded with XOR or add are symmetric in the lanes, so on a
  // one-stripe page swapping words 0 and 1 would collide every time (and on
  // any page, so would swapping those slots in every stripe).
  uint64_t v0 = Mix64(h0);
  uint64_t v1 = Mix64(h0 + 1);
  uint64_t v2 = Mix64(h0 + 2);
  uint64_t v3 = Mix64(h0 + 3);
  const auto* p = static_cast<const unsigned char*>(data);
  size_t i = 0;
  for (; i + kStripe <= len; i += kStripe) {
    v0 = LaneRound(v0, Load64(p + i));
    v1 = LaneRound(v1, Load64(p + i + 8));
    v2 = LaneRound(v2, Load64(p + i + 16));
    v3 = LaneRound(v3, Load64(p + i + 24));
  }
  uint64_t h = Mix64(h0 ^ v0);
  h = Mix64(h ^ v1);
  h = Mix64(h ^ v2);
  h = Mix64(h ^ v3);
  for (; i + 8 <= len; i += 8) {
    h = Mix64(h ^ Load64(p + i));
  }
  if (i < len) {
    uint64_t w = 0;
    std::memcpy(&w, p + i, len - i);
    h = Mix64(h ^ w);
  }
  return h;
}

}  // namespace adios
