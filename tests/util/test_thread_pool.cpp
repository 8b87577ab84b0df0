#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace holmes {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  auto f = pool.submit([] { return 21 * 2; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(100);
  pool.parallel_for(100, [&](std::size_t i) { hits[i]++; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelForZeroCountIsNoop) {
  ThreadPool pool(2);
  EXPECT_NO_THROW(pool.parallel_for(0, [](std::size_t) { FAIL(); }));
}

TEST(ThreadPool, ParallelForRethrows) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10,
                                 [](std::size_t i) {
                                   if (i == 3) throw std::runtime_error("x");
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ParallelForWaitsForEveryTaskBeforeRethrowing) {
  // Queued tasks reference the caller's callable, so parallel_for may only
  // rethrow once every task has finished with it.
  ThreadPool pool(2);
  std::atomic<int> finished{0};
  EXPECT_THROW(pool.parallel_for(8,
                                 [&finished](std::size_t i) {
                                   if (i == 0) throw std::runtime_error("x");
                                   std::this_thread::sleep_for(
                                       std::chrono::milliseconds(5));
                                   finished.fetch_add(1);
                                 }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 7);
}

TEST(ThreadPool, ManyTasksAllComplete) {
  ThreadPool pool(8);
  std::atomic<long> sum{0};
  std::vector<std::future<void>> futures;
  for (int i = 1; i <= 1000; ++i) {
    futures.push_back(pool.submit([&sum, i] { sum += i; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(sum.load(), 1000L * 1001 / 2);
}

TEST(ThreadPool, DestructorDrainsQueue) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.submit([&done] { done++; });
    }
  }  // destructor must wait for all 50
  EXPECT_EQ(done.load(), 50);
}

}  // namespace
}  // namespace holmes
