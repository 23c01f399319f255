// Umbrella header for the BMEH library.
//
// Typical usage:
//
//   #include "src/bmeh.h"
//
//   bmeh::KeySchema schema(/*dims=*/2, /*width=*/31);
//   bmeh::BmehTree tree(schema, bmeh::TreeOptions::Make(2, /*b=*/32));
//   BMEH_CHECK_OK(tree.Insert({lon_code, lat_code}, record_id));
//   auto hit = tree.Search({lon_code, lat_code});
//   bmeh::RangePredicate box(schema);
//   box.Constrain(0, lo0, hi0).Constrain(1, lo1, hi1);
//   std::vector<bmeh::Record> out;
//   BMEH_CHECK_OK(tree.RangeSearch(box, &out));

#ifndef BMEH_BMEH_H_
#define BMEH_BMEH_H_

#include "src/common/logging.h"
#include "src/common/result.h"
#include "src/common/status.h"
#include "src/core/bmeh_tree.h"
#include "src/core/quadtree.h"
#include "src/encoding/encoders.h"
#include "src/encoding/key_schema.h"
#include "src/encoding/pseudo_key.h"
#include "src/exhash/extendible_hash.h"
#include "src/hashdir/multikey_index.h"
#include "src/hashdir/query.h"
#include "src/mdeh/mdeh.h"
#include "src/mehtree/meh_tree.h"
#include "src/metrics/experiment.h"
#include "src/obs/metrics.h"
#include "src/obs/obs_server.h"
#include "src/obs/oplog.h"
#include "src/obs/trace.h"
#include "src/obs/watchdog.h"
#include "src/pagestore/buffer_pool.h"
#include "src/pagestore/page_store.h"
#include "src/store/bmeh_store.h"
#include "src/store/frozen_tree.h"
#include "src/store/scrub.h"
#include "src/store/sharded_store.h"
#include "src/store/storage_unit.h"
#include "src/workload/datasets.h"
#include "src/workload/distributions.h"

#endif  // BMEH_BMEH_H_
