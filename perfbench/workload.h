// The three workloads and the key draws they share with the ladder.

#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>

#include "perfbench/common.h"

namespace perfbench {

enum class Workload { kPointGet, kRangeScan, kHotUpdate };

struct WorkloadSpec {
  Workload kind;
  const char* name;
  int clients;      ///< Client threads in the measured phase.
  const char* op;   ///< What ops_per_s / op_p*_us measure.
  const char* aux;  ///< What aux_per_s / aux_p*_us measure.
};

inline constexpr WorkloadSpec kWorkloads[] = {
    {Workload::kPointGet, "point_get", 2, "Get of a present key (uniform)",
     "Get of an absent key (1 in 10 reads)"},
    {Workload::kRangeScan, "range_scan", 1,
     "2-D box over 0.1% of the domain",
     "1-D slab over 0.05% of one dimension"},
    {Workload::kHotUpdate, "hot_update", 2,
     "single-record commit (Delete, then Put of the same key; Zipf 0.99)",
     "concurrent Get (Zipf 0.99)"},
};

/// Skew of the hot_update key choice (Conway et al.: skew is where
/// write-path work pays off).
inline constexpr double kZipfTheta = 0.99;

/// Serials of the point reads and updates a workload issues.  Serials at
/// or past `records` are absent keys.
class Draws {
 public:
  Draws(Workload kind, uint64_t records) : kind_(kind), records_(records) {
    if (kind == Workload::kHotUpdate) {
      zipf_ = std::make_unique<Zipf>(records, kZipfTheta);
    }
  }

  /// point_get: uniform, 1 read in 10 for an absent key; hot_update:
  /// Zipf over the loaded keys; range_scan (no point reads of its own):
  /// uniform over the loaded keys.
  uint64_t Read(Rng& rng) const {
    switch (kind_) {
      case Workload::kPointGet:
        if (rng.Below(10) == 0) return records_ + rng.Below(records_);
        return rng.Below(records_);
      case Workload::kHotUpdate:
        return zipf_->Next(rng);
      case Workload::kRangeScan:
        break;
    }
    return rng.Below(records_);
  }

  /// The key of the next Delete/Put pair: Zipf on hot_update, uniform on
  /// the read-only workloads (used only by the ladder's write rungs).
  uint64_t Update(Rng& rng) const {
    return zipf_ != nullptr ? zipf_->Next(rng) : rng.Below(records_);
  }

 private:
  Workload kind_;
  uint64_t records_;
  std::unique_ptr<Zipf> zipf_;
};

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
