// Shared pieces of the benchmark: seeded inputs, clocks and latency
// histograms.  Every input here is a pure function of the run seed.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/bmeh.h"

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// SplitMix64 stream: cheap to seed (one word), identical on every
/// platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : s_(seed) {}
  uint64_t Next() {
    uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n), by multiply-shift (bias below n / 2^64).
  uint64_t Below(uint64_t n) {
    return static_cast<uint64_t>(
        (static_cast<unsigned __int128>(Next()) * n) >> 64);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t s_;
};

/// Stream `k` of the run seeded `seed`: each client thread, warm-up and
/// ladder rung draws from its own stream, so one never shifts another.
inline Rng Stream(uint64_t seed, uint64_t k) {
  Rng mix(seed ^ (0x6a09e667f3bcc909ull * (k + 1)));
  return Rng(mix.Next());
}

/// A seeded bijection from serial numbers onto 2-D x 31-bit keys.
/// Serials below N are the loaded keys (payload = serial); serials from N
/// up are keys known to be absent.  Every step — xor with a seed word,
/// multiplication by an odd constant, xor-shift right — is invertible
/// modulo 2^62, so distinct serials give distinct keys without keeping a
/// set of the keys handed out.
class KeySpace {
 public:
  static constexpr int kWidth = 31;
  static constexpr uint32_t kMaxComponent = (uint32_t{1} << kWidth) - 1;

  explicit KeySpace(uint64_t seed) {
    Rng rng = Stream(seed, 0x4b455953);  // "KEYS"
    k0_ = rng.Next() & kMask;
    k1_ = rng.Next() & kMask;
  }

  /// The key of `serial`, packed as (dim 0 << 31) | dim 1.
  uint64_t Packed(uint64_t serial) const {
    uint64_t x = (serial ^ k0_) & kMask;
    x = (x * 0x9e3779b97f4a7c15ull) & kMask;
    x ^= x >> 29;
    x = ((x ^ k1_) * 0xbf58476d1ce4e5b9ull) & kMask;
    x ^= x >> 32;
    x = (x * 0x94d049bb133111ebull) & kMask;
    x ^= x >> 31;
    return x;
  }

  static bmeh::PseudoKey Unpack(uint64_t packed) {
    return bmeh::PseudoKey{static_cast<uint32_t>(packed >> kWidth),
                           static_cast<uint32_t>(packed & kMaxComponent)};
  }

  bmeh::PseudoKey Key(uint64_t serial) const {
    return Unpack(Packed(serial));
  }

 private:
  static constexpr uint64_t kMask = (uint64_t{1} << (2 * kWidth)) - 1;
  uint64_t k0_ = 0;
  uint64_t k1_ = 0;
};

/// Zipf(theta) ranks over [0, n), by the Gray et al. generator YCSB uses.
/// Rank r is serial r, so the KeySpace bijection spreads the hottest keys
/// uniformly over the key space and the shards.
class Zipf {
 public:
  Zipf(uint64_t n, double theta) : n_(n), theta_(theta) {
    double zeta2 = 0;
    for (uint64_t i = 1; i <= n; ++i) {
      zetan_ += 1.0 / std::pow(static_cast<double>(i), theta);
      if (i == 2) zeta2 = zetan_;
    }
    alpha_ = 1.0 / (1.0 - theta);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
           (1.0 - zeta2 / zetan_);
  }

  uint64_t Next(Rng& rng) const {
    const double u = rng.Unit();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    const uint64_t r = static_cast<uint64_t>(
        static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
  }

 private:
  uint64_t n_;
  double theta_;
  double zetan_ = 0;
  double alpha_ = 0;
  double eta_ = 0;
};

/// Range queries of the range workloads.  A box constrains both
/// dimensions to sqrt(0.001) of their domain (0.1% of the space, ~N/1000
/// results); a slab constrains one dimension to 0.05% of its domain and
/// leaves the other free (~N/2000 results).  Slabs alternate dimensions.
struct Query {
  bool box = true;
  bmeh::RangePredicate pred;
};

inline Query MakeQuery(Rng& rng, const bmeh::KeySchema& schema,
                       uint64_t index) {
  constexpr double kDomain = static_cast<double>(KeySpace::kMaxComponent) + 1;
  Query q{index % 2 == 0, bmeh::RangePredicate(schema)};
  auto interval = [&](int dim, double share) {
    const uint32_t width =
        static_cast<uint32_t>(std::llround(share * kDomain));
    const uint32_t lo =
        static_cast<uint32_t>(rng.Below(KeySpace::kMaxComponent - width + 2));
    q.pred.Constrain(dim, lo, lo + width - 1);
  };
  if (q.box) {
    interval(0, std::sqrt(0.001));
    interval(1, std::sqrt(0.001));
  } else {
    interval(static_cast<int>((index / 2) % 2), 0.0005);
  }
  return q;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Latency distribution with ~1.6% bucket resolution: values below 64 ns
/// get a bucket each; above that every power of two is split into 64
/// equal sub-buckets.  Percentiles interpolate linearly inside a bucket.
class LatencyHistogram {
 public:
  void Record(uint64_t ns) {
    ++buckets_[Index(ns)];
    ++count_;
  }

  void Merge(const LatencyHistogram& other) {
    for (size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// The q-quantile in nanoseconds (0 when empty).
  double Percentile(double q) const {
    if (count_ == 0) return 0;
    const double target = q * static_cast<double>(count_);
    double below = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      const double n = static_cast<double>(buckets_[i]);
      if (n > 0 && below + n >= target) {
        const int b = static_cast<int>(i);
        return static_cast<double>(Lower(b)) +
               static_cast<double>(Width(b)) * (target - below) / n;
      }
      below += n;
    }
    return static_cast<double>(Lower(static_cast<int>(buckets_.size()) - 1));
  }

 private:
  static constexpr int kSub = 64;

  static int Index(uint64_t v) {
    if (v < kSub) return static_cast<int>(v);
    const int shift = std::bit_width(v) - 7;  // v >> shift is in [64, 128)
    return kSub * (shift + 1) + static_cast<int>((v >> shift) - kSub);
  }
  static uint64_t Lower(int i) {
    if (i < kSub) return static_cast<uint64_t>(i);
    return static_cast<uint64_t>(kSub + i % kSub) << (i / kSub - 1);
  }
  static uint64_t Width(int i) {
    return i < kSub ? 1 : uint64_t{1} << (i / kSub - 1);
  }

  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kSub * 60, 0);
  uint64_t count_ = 0;
};

/// One named metric of the final report.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// x / y, or 0 when nothing was counted (a layer a workload never calls).
inline double Ratio(double x, double y) { return y == 0 ? 0.0 : x / y; }

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
