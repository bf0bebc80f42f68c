#include "parallel/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "parallel/parallel_for.h"
#include "parallel/sharded_cache.h"

namespace charles {
namespace {

TEST(ThreadPoolTest, CompletesSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.Submit([i]() { return i * i; }));
  }
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(), i * i);
  }
}

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1);
  EXPECT_EQ(pool.Submit([]() { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, PropagatesTaskExceptions) {
  ThreadPool pool(2);
  std::future<int> bad =
      pool.Submit([]() -> int { throw std::runtime_error("boom"); });
  std::future<int> good = pool.Submit([]() { return 1; });
  EXPECT_THROW(bad.get(), std::runtime_error);
  EXPECT_EQ(good.get(), 1);  // the pool survives a throwing task
}

TEST(ThreadPoolTest, ReusableAcrossWaves) {
  ThreadPool pool(3);
  for (int wave = 0; wave < 5; ++wave) {
    std::atomic<int> count{0};
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 20; ++i) {
      futures.push_back(pool.Submit([&count]() { ++count; }));
    }
    for (auto& future : futures) future.get();
    EXPECT_EQ(count.load(), 20);
  }
}

TEST(ThreadPoolTest, DrainsPendingTasksOnDestruction) {
  std::atomic<int> count{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&count]() { ++count; });
    }
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPoolTest, HardwareConcurrencyIsPositive) {
  EXPECT_GE(ThreadPool::HardwareConcurrency(), 1);
}

TEST(ParallelForTest, VisitsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> visits(257);
  ParallelFor(&pool, 257, [&visits](int64_t i) { ++visits[static_cast<size_t>(i)]; });
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForTest, SerialFallbackWithoutPool) {
  int64_t sum = 0;  // no synchronization: must run on the calling thread
  ParallelFor(nullptr, 100, [&sum](int64_t i) { sum += i; });
  EXPECT_EQ(sum, 4950);
}

TEST(ParallelForTest, PropagatesExceptionAfterAllTasksFinish) {
  ThreadPool pool(4);
  std::atomic<int> visited{0};
  EXPECT_THROW(ParallelFor(&pool, 64,
                           [&visited](int64_t i) {
                             ++visited;
                             if (i == 13) throw std::runtime_error("boom");
                           }),
               std::runtime_error);
  // Only the throwing chunk may cut its remaining indices short; every other
  // chunk runs to completion before the exception is rethrown.
  EXPECT_GE(visited.load(), 64 - 3);
  // And the pool is still usable for the next wave.
  std::atomic<int> second{0};
  ParallelFor(&pool, 32, [&second](int64_t) { ++second; });
  EXPECT_EQ(second.load(), 32);
}

TEST(ParallelMapTest, ResultsAreIndexOrdered) {
  ThreadPool pool(8);
  std::vector<int64_t> squares =
      ParallelMap<int64_t>(&pool, 1000, [](int64_t i) { return i * i; });
  ASSERT_EQ(squares.size(), 1000u);
  for (int64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(squares[static_cast<size_t>(i)], i * i);
  }
}

TEST(ParallelMapTest, ParallelMatchesSerial) {
  auto fn = [](int64_t i) { return std::to_string(i * 3 + 1); };
  std::vector<std::string> serial = ParallelMap<std::string>(nullptr, 123, fn);
  ThreadPool pool(4);
  std::vector<std::string> parallel = ParallelMap<std::string>(&pool, 123, fn);
  EXPECT_EQ(serial, parallel);
}

TEST(ShardedCacheTest, InsertAndFind) {
  ShardedCache<int64_t, std::string> cache(8);
  EXPECT_EQ(cache.Find(1), nullptr);
  cache.Insert(1, "one");
  const std::string* found = cache.Find(1);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(*found, "one");
  EXPECT_EQ(cache.Size(), 1u);
  EXPECT_EQ(cache.hits(), 1);
  EXPECT_EQ(cache.misses(), 1);
}

TEST(ShardedCacheTest, FirstInsertWins) {
  ShardedCache<int64_t, std::string> cache(4);
  const std::string* first = cache.Insert(5, "first");
  const std::string* second = cache.Insert(5, "second");
  EXPECT_EQ(first, second);
  EXPECT_EQ(*second, "first");
  EXPECT_EQ(cache.Size(), 1u);
}

TEST(ShardedCacheTest, GetOrComputeComputesOncePerKey) {
  ShardedCache<int64_t, int64_t> cache(4);
  std::atomic<int> computes{0};
  for (int round = 0; round < 3; ++round) {
    const int64_t* value = cache.GetOrCompute(42, [&computes]() {
      ++computes;
      return int64_t{99};
    });
    EXPECT_EQ(*value, 99);
  }
  EXPECT_EQ(computes.load(), 1);
}

TEST(ShardedCacheTest, BoundedCacheEvictsLeastRecentlyUsed) {
  // Single shard so the bound is exact. Capacity 3: touching key 1 keeps it
  // alive while 2 (the least recently used) is evicted by the 4th insert.
  ShardedCache<int64_t, std::string> cache(1, 3);
  cache.Insert(1, "one");
  cache.Insert(2, "two");
  cache.Insert(3, "three");
  std::string out;
  EXPECT_TRUE(cache.Lookup(1, &out));  // 1 becomes most recent
  EXPECT_EQ(out, "one");
  cache.Insert(4, "four");
  EXPECT_EQ(cache.Size(), 3u);
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_FALSE(cache.Lookup(2, &out));  // LRU victim
  EXPECT_TRUE(cache.Lookup(1, &out));
  EXPECT_TRUE(cache.Lookup(3, &out));
  EXPECT_TRUE(cache.Lookup(4, &out));
}

TEST(ShardedCacheTest, TrimToSizeShrinksUnboundedCache) {
  ShardedCache<int64_t, int64_t> cache(1);  // unbounded at construction
  for (int64_t k = 0; k < 10; ++k) cache.Insert(k, k * 10);
  int64_t out = 0;
  EXPECT_TRUE(cache.Lookup(0, &out));  // 0 is now the most recently used
  cache.TrimToSize(2);
  EXPECT_EQ(cache.Size(), 2u);
  EXPECT_EQ(cache.evictions(), 8);
  EXPECT_TRUE(cache.Lookup(0, &out));
  EXPECT_TRUE(cache.Lookup(9, &out));  // last insert survives too
  EXPECT_FALSE(cache.Lookup(5, &out));
}

TEST(ShardedCacheTest, PointersStableUnderConcurrentInserts) {
  ShardedCache<int64_t, int64_t> cache(16);
  const int64_t* early = cache.Insert(-1, -100);
  ThreadPool pool(4);
  ParallelFor(&pool, 4000, [&cache](int64_t i) {
    int64_t key = i % 1000;
    const int64_t* value = cache.GetOrCompute(key, [key]() { return key * 7; });
    if (*value != key * 7) {
      throw std::runtime_error("corrupted value for key " + std::to_string(key));
    }
  });
  EXPECT_EQ(cache.Size(), 1001u);
  EXPECT_EQ(*early, -100);  // still valid after 1000 inserts across shards
}

}  // namespace
}  // namespace charles
