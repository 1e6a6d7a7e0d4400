// Worker threads shared by the data-parallel layers: the replay engine's
// shard count (src/replay/parallel_generate.h), the EBST codec's helpers
// (src/trace/store.cc), the rollup folds' helpers (src/trace/aggregate.cc),
// the skew kernel's (src/analysis/skewness.cc) and the online cache replay's
// (src/cache/online_hotspot.cc) come from one DefaultGenerateWorkers(). The
// codec runs its pieces through ParallelFor; each rollup level, skew level
// and cache replay runs its chunks of entities through ForEachChunk.

#ifndef SRC_UTIL_PARALLEL_H_
#define SRC_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace ebs {

// hardware_concurrency() - 1, at least 1, which leaves a core to the thread
// that merges or writes in order. No setting: no output depends on it.
size_t DefaultGenerateWorkers();

// An ordered parallel loop over [0, n) in three stages (feed and done may be
// empty):
//   feed(i)  on the calling thread, in ascending i;
//   work(i)  after feed(i), on the calling thread or one of `helpers`
//            threads started for this call;
//   done(i)  after work(i), on the calling thread, in ascending i.
// At most `window` (at least 1) indices are fed and not yet done, so a caller
// can keep the state of index i in slot i % window. A stage may throw: the
// exception of the lowest index is rethrown once every lower index is done
// and every work() that began has returned, and no later index is done.
// Ties at one index go to the earlier stage.
void ParallelFor(size_t n, size_t helpers, size_t window,
                 const std::function<void(size_t)>& feed,
                 const std::function<void(size_t)>& work,
                 const std::function<void(size_t)>& done);

// Runs fill(first, last) over consecutive ranges of [0, count), each range the
// first to reach `chunk_cost` once item i costs cost_of(i) (the last range
// takes what is left). The ranges run as one ParallelFor on the calling thread
// plus DefaultGenerateWorkers() helpers, so fill must write only its own
// range's outputs; then no output depends on which thread filled it. A count
// under one chunk of cost is one range on the calling thread and starts no
// thread. A throw from any range is ParallelFor's: the lowest range's error
// is rethrown once every started range has returned.
void ForEachChunk(size_t count, size_t chunk_cost, const std::function<size_t(size_t)>& cost_of,
                  const std::function<void(size_t, size_t)>& fill);

}  // namespace ebs

#endif  // SRC_UTIL_PARALLEL_H_
