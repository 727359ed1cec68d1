// common::WorkerPool: the fork/join primitive shared by the campaign
// runner and the sharded controller's per-shard fan-out.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "common/worker_pool.hpp"

namespace wtc::common {
namespace {

TEST(WorkerPool, RunsEveryIndexExactlyOnce) {
  WorkerPool pool(3);
  std::vector<std::atomic<int>> hits(8);
  pool.dispatch(8, [&](std::size_t i) { ++hits[i]; });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
}

TEST(WorkerPool, ZeroThreadPoolRunsSeriallyOnCaller) {
  WorkerPool pool(0);
  std::vector<std::size_t> order;
  pool.dispatch(5, [&](std::size_t i) { order.push_back(i); });
  // With no pool threads every index runs inline, in order.
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(WorkerPool, OversizedPoolLeavesExtraThreadsIdle) {
  WorkerPool pool(8);
  std::atomic<int> total{0};
  pool.dispatch(3, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 3);
}

TEST(WorkerPool, SingleWorkerDispatchStaysInline) {
  WorkerPool pool(4);
  std::atomic<int> total{0};
  pool.dispatch(1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    ++total;
  });
  EXPECT_EQ(total.load(), 1);
}

TEST(WorkerPool, ReusableAcrossDispatches) {
  WorkerPool pool(2);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.dispatch(4, [&](std::size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 200);
}

TEST(WorkerPool, LowestIndexExceptionWins) {
  WorkerPool pool(2);
  for (int round = 0; round < 10; ++round) {
    try {
      pool.dispatch(4, [&](std::size_t i) {
        if (i >= 2) {
          throw std::runtime_error("worker " + std::to_string(i));
        }
      });
      FAIL() << "dispatch should rethrow";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "worker 2");
    }
    // The pool must stay usable after an exceptional dispatch.
    std::atomic<int> total{0};
    pool.dispatch(3, [&](std::size_t) { ++total; });
    EXPECT_EQ(total.load(), 3);
  }
}

TEST(WorkerPool, ParallelSumMatchesSerial) {
  WorkerPool pool(3);
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kItems = 10'000;
  std::vector<std::uint64_t> partial(kWorkers, 0);
  std::atomic<std::size_t> next{0};
  pool.dispatch(kWorkers, [&](std::size_t w) {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= kItems) {
        return;
      }
      partial[w] += i;
    }
  });
  std::uint64_t total = 0;
  for (const std::uint64_t p : partial) {
    total += p;
  }
  EXPECT_EQ(total, static_cast<std::uint64_t>(kItems) * (kItems - 1) / 2);
}

}  // namespace
}  // namespace wtc::common
