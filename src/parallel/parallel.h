#ifndef CHARLES_PARALLEL_PARALLEL_H_
#define CHARLES_PARALLEL_PARALLEL_H_

/// \file
/// \brief The ChARLES parallel execution subsystem.
///
/// Three building blocks, designed so that parallel output is bit-identical
/// to serial output:
///
///  - ThreadPool — a fixed-size worker pool with task futures and exception
///    propagation (thread_pool.h).
///  - ParallelFor / ParallelMap — data-parallel loops with contiguous index
///    chunking and index-ordered results (parallel_for.h).
///  - ShardedCache — a lock-sharded concurrent map for cross-worker reuse of
///    deterministic computations (sharded_cache.h).
///
/// Determinism contract: helpers only decide *where* work runs, never *what*
/// is computed or in which order results are reduced. Any nondeterminism
/// would have to come from the mapped function itself; the engine's mapped
/// functions are pure given (options, inputs), so `num_threads = 1` and
/// `num_threads = N` produce identical ranked output.
///
/// Scheduling contract: only threads outside the pool should Submit waves of
/// work; the helpers' wait loops additionally run queued tasks on the caller
/// (work helping) so an accidental nested invocation degrades to extra
/// serial work instead of deadlock.

#include "parallel/parallel_for.h"   // IWYU pragma: export
#include "parallel/sharded_cache.h"  // IWYU pragma: export
#include "parallel/thread_pool.h"    // IWYU pragma: export

#endif  // CHARLES_PARALLEL_PARALLEL_H_
