// Host-speed calibration for the end-to-end host-time metrics.
//
// The benchmark host is shared, and other tenants' use of the cache and
// memory system moves the simulator's speed between levels up to 1.6x apart
// that last from seconds to minutes, longer than a run. Two fixed memory
// kernels slow by nearly the same factor at the same moments: a random
// pointer chase through a 4 MB ring (latency) and random read-modify-writes
// over an 8 MB table. Timed before every trial, together they tracked the
// trial times across those levels far more closely than an ALU loop or
// either kernel alone. The timed runs therefore measure them between passes,
// about once a second, and multiply the passes' host times by Measure():
// host time at the reference speed, at which the kernels take
// kChaseReferenceNs and kUpdateReferenceNs. Their code and data do not depend
// on the simulator, so a change to the simulator moves the scaled times
// exactly as it moves the raw ones.

#ifndef PERFBENCH_CALIBRATION_H_
#define PERFBENCH_CALIBRATION_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

#include "perfbench/spans.h"

namespace perfbench {

class Calibration {
 public:
  static constexpr std::uint32_t kRingEntries = 1u << 20;   // 4 MB of uint32.
  static constexpr std::uint32_t kTableEntries = 1u << 20;  // 8 MB of uint64.
  static constexpr std::uint32_t kChaseSteps = 300'000;
  static constexpr std::uint32_t kUpdates = 1'000'000;
  // About the kernels' times on the benchmark's reference host (see
  // perfbench/README.md) when nothing contends with them.
  static constexpr double kChaseReferenceNs = 50.0 * kChaseSteps;
  static constexpr double kUpdateReferenceNs = 7.0 * kUpdates;

  // Builds one random cycle through every ring entry with Sattolo's
  // algorithm (fixed seed, so every run chases the same ring) and touches
  // all of both buffers.
  Calibration() : ring_(kRingEntries), table_(kTableEntries, 1) {
    for (std::uint32_t i = 0; i < kRingEntries; ++i) {
      ring_[i] = i;
    }
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (std::uint32_t i = kRingEntries - 1; i > 0; --i) {
      std::swap(ring_[i], ring_[Next(&x) % i]);
    }
  }

  // Runs both kernels and returns the factor that turns a host time measured
  // now into host time at the reference speed: the geometric mean of the
  // two kernels' reference-over-measured ratios.
  double Measure() {
    const std::int64_t start = HostNowNs();
    std::uint32_t p = position_;
    for (std::uint32_t i = 0; i < kChaseSteps; ++i) {
      p = ring_[p];
    }
    const std::int64_t chased = HostNowNs();
    std::uint64_t x = p + 1;  // Depends on the chase, so neither is skipped.
    for (std::uint32_t i = 0; i < kUpdates; ++i) {
      table_[Next(&x) % kTableEntries] += x;
    }
    const std::int64_t updated = HostNowNs();
    position_ = static_cast<std::uint32_t>(x % kRingEntries);
    const double chase_ns = static_cast<double>(std::max<std::int64_t>(chased - start, 1));
    const double update_ns = static_cast<double>(std::max<std::int64_t>(updated - chased, 1));
    return std::sqrt(kChaseReferenceNs / chase_ns * kUpdateReferenceNs / update_ns);
  }

  // Resident bytes of both buffers, which the process's peak RSS includes.
  static constexpr double Bytes() { return 4.0 * kRingEntries + 8.0 * kTableEntries; }

 private:
  static std::uint64_t Next(std::uint64_t* x) {  // xorshift64
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    return *x;
  }

  std::vector<std::uint32_t> ring_;
  std::vector<std::uint64_t> table_;
  std::uint32_t position_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_CALIBRATION_H_
