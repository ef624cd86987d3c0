// The one work-claim pool: run fn(0) .. fn(count - 1) across host
// threads. The experiment sweep fans scenario grid points through it
// and the fleet layer fans shards through it.
//
// Workers claim the next index from one shared atomic counter, so a
// slow item never holds back the rest and every index runs exactly
// once. The pool has no opinion on ordering: callers write each item's
// result into a slot reserved for its index and read the slots back in
// whatever deterministic order they need.
#pragma once

#include <cstddef>
#include <functional>

namespace ouessant::util {

/// Call @p fn once for every index in [0, @p count), on up to @p jobs
/// threads (the calling thread is one of them). `jobs <= 1` runs every
/// index inline, in order, on the calling thread.
///
/// If fn throws, no further indices are claimed; the call returns only
/// after every worker has finished its current item, then rethrows the
/// exception of the lowest index that threw. Claims are handed out in
/// index order, so that is the exception a serial run would have
/// thrown, at every jobs level.
void parallel_for(std::size_t count, unsigned jobs,
                  const std::function<void(std::size_t)>& fn);

}  // namespace ouessant::util
