// Worker threads shared by the data-parallel layers: the replay engine's
// shard count (src/replay/parallel_generate.h), the EBST codec's helpers
// (src/trace/store.cc) and the rollup folds' helpers (src/trace/aggregate.cc)
// come from one DefaultGenerateWorkers(). The codec runs its pieces, and each
// rollup level its chunks of entities, through ParallelFor.

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

}  // namespace ebs

#endif  // SRC_UTIL_PARALLEL_H_
