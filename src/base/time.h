// Simulated time units and cycle/time conversions.
//
// The discrete-event engine keeps time in integer nanoseconds (SimTime).
// The paper reports most costs in CPU cycles of a 2.0 GHz Xeon Gold 6330;
// CycleClock converts between the two for a configurable nominal frequency.

#ifndef ADIOS_SRC_BASE_TIME_H_
#define ADIOS_SRC_BASE_TIME_H_

#include <cstdint>

namespace adios {

// Simulated time, in nanoseconds since the start of the simulation.
using SimTime = uint64_t;

// A span of simulated time, in nanoseconds.
using SimDuration = uint64_t;

inline constexpr SimDuration kNanosecond = 1;
inline constexpr SimDuration kMicrosecond = 1000;
inline constexpr SimDuration kMillisecond = 1000 * 1000;
inline constexpr SimDuration kSecond = 1000ull * 1000 * 1000;

constexpr SimDuration Nanoseconds(uint64_t n) { return n; }
constexpr SimDuration Microseconds(uint64_t n) { return n * kMicrosecond; }
constexpr SimDuration Milliseconds(uint64_t n) { return n * kMillisecond; }
constexpr SimDuration Seconds(uint64_t n) { return n * kSecond; }

// Converts between CPU cycles and nanoseconds at a fixed nominal frequency.
// Frequencies are expressed in integer MHz to keep the conversions exact for
// the frequencies we care about (2000 MHz by default).
class CycleClock {
 public:
  explicit constexpr CycleClock(uint32_t mhz = 2000) : mhz_(mhz) {}

  constexpr uint32_t mhz() const { return mhz_; }

  // Rounds up so that a nonzero cycle cost always advances simulated time.
  constexpr SimDuration ToNanos(uint64_t cycles) const {
    return (cycles * 1000 + mhz_ - 1) / mhz_;
  }

  constexpr uint64_t ToCycles(SimDuration ns) const { return ns * mhz_ / 1000; }

 private:
  uint32_t mhz_;
};

// The paper's compute node (§5): Intel Xeon Gold 6330 @ 2.00 GHz. Every
// simulated core runs at this clock.
inline constexpr CycleClock kCpuClock{2000};

}  // namespace adios

#endif  // ADIOS_SRC_BASE_TIME_H_
