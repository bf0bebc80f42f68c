#ifndef CHARLES_PARALLEL_PARALLEL_FOR_H_
#define CHARLES_PARALLEL_PARALLEL_FOR_H_

/// \file
/// \brief Data-parallel helpers over a ThreadPool with deterministic,
/// index-ordered results.
///
/// All helpers fall back to a plain sequential loop when `pool` is null or
/// has a single worker, so `num_threads = 1` exercises exactly the serial
/// code path. Work is split into contiguous index chunks; results land in a
/// pre-sized vector slot per index, so the output order never depends on
/// scheduling. The calling thread helps drain the queue while it waits
/// (ThreadPool::TryRunOneTask), which keeps nested invocations from
/// deadlocking a fixed-size pool.

#include <chrono>
#include <cstdint>
#include <exception>
#include <future>
#include <utility>
#include <vector>

#include "parallel/thread_pool.h"

namespace charles {

namespace parallel_internal {

/// Contiguous [begin, end) chunks covering [0, n); at most `max_chunks`.
inline std::vector<std::pair<int64_t, int64_t>> MakeChunks(int64_t n,
                                                           int64_t max_chunks) {
  std::vector<std::pair<int64_t, int64_t>> chunks;
  if (n <= 0 || max_chunks <= 0) return chunks;
  int64_t num_chunks = std::min(n, max_chunks);
  int64_t base = n / num_chunks;
  int64_t extra = n % num_chunks;
  int64_t begin = 0;
  for (int64_t c = 0; c < num_chunks; ++c) {
    int64_t size = base + (c < extra ? 1 : 0);
    chunks.emplace_back(begin, begin + size);
    begin += size;
  }
  return chunks;
}

/// Waits for every future, helping the pool drain while blocked, and
/// rethrows the first task exception (after all tasks finished).
inline void WaitAll(ThreadPool* pool, std::vector<std::future<void>>* futures) {
  std::exception_ptr first_error;
  for (std::future<void>& future : *futures) {
    while (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      if (!pool->TryRunOneTask()) {
        future.wait_for(std::chrono::milliseconds(1));
      }
    }
    try {
      future.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace parallel_internal

/// Runs fn(i) for every i in [0, n). Serial when the pool cannot help.
template <typename Fn>
void ParallelFor(ThreadPool* pool, int64_t n, Fn&& fn) {
  if (pool == nullptr || pool->size() <= 1 || n <= 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  auto chunks =
      parallel_internal::MakeChunks(n, static_cast<int64_t>(pool->size()) * 4);
  std::vector<std::future<void>> futures;
  futures.reserve(chunks.size());
  for (const auto& [begin, end] : chunks) {
    futures.push_back(pool->Submit([&fn, begin = begin, end = end]() {
      for (int64_t i = begin; i < end; ++i) fn(i);
    }));
  }
  parallel_internal::WaitAll(pool, &futures);
}

/// Computes results[i] = fn(i) for i in [0, n), in index order regardless of
/// scheduling. R must be default-constructible and movable.
template <typename R, typename Fn>
std::vector<R> ParallelMap(ThreadPool* pool, int64_t n, Fn&& fn) {
  std::vector<R> results(static_cast<size_t>(std::max<int64_t>(n, 0)));
  ParallelFor(pool, n, [&results, &fn](int64_t i) {
    results[static_cast<size_t>(i)] = fn(i);
  });
  return results;
}

}  // namespace charles

#endif  // CHARLES_PARALLEL_PARALLEL_FOR_H_
