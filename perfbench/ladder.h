// The layer ladder of the traced mode: after the measured phase, on the
// quiet store, the workload's key streams are replayed one layer at a
// time, each rung timed from outside by calls into that layer's public
// functions.  The gap between two rungs is the upper layer's own cost.

#ifndef PERFBENCH_LADDER_H_
#define PERFBENCH_LADDER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "perfbench/common.h"
#include "perfbench/workload.h"

namespace perfbench {

struct LadderInput {
  bmeh::ShardedStore* store = nullptr;
  const KeySpace* keys = nullptr;
  const Draws* draws = nullptr;
  /// The loaded keys in serial order (serial i has payload i).
  const std::vector<uint64_t>* packed = nullptr;
  uint64_t seed = 0;
  /// Directory of the standalone WAL device, and whether its Sync skips
  /// the fsync call (same policy as the store's devices).
  std::string scratch_dir;
  bool skip_fsync = false;
};

struct LadderResult {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

LadderResult RunLadder(const LadderInput& in);

}  // namespace perfbench

#endif  // PERFBENCH_LADDER_H_
