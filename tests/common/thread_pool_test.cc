#include "src/common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace hcache {
namespace {

// Runs `parties` one-element subranges on `pool`, each of which waits until all of
// them have started, and returns the number of distinct threads that ran one. A
// subrange gives up after 10 s, so a worker that never wakes fails the caller's
// expectation instead of hanging the test.
size_t ThreadsThatJoin(ThreadPool& pool, int parties) {
  std::atomic<int> arrived{0};
  std::mutex mu;
  std::set<std::thread::id> ids;
  pool.ParallelFor(0, parties, 1, [&](int64_t, int64_t) {
    {
      std::lock_guard<std::mutex> lock(mu);
      ids.insert(std::this_thread::get_id());
    }
    arrived.fetch_add(1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (arrived.load() < parties && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::yield();
    }
  });
  return ids.size();
}

// An outside thread that assists `pool` (AssistUntil) from construction until
// destruction.
class Assistant {
 public:
  explicit Assistant(ThreadPool& pool)
      : thread_([this, &pool] {
          started_.store(true);
          pool.AssistUntil([this] { return done_.load(); });
        }) {
    while (!started_.load()) {
      std::this_thread::yield();
    }
  }
  ~Assistant() {
    done_.store(true);
    thread_.join();
  }
  Assistant(const Assistant&) = delete;
  Assistant& operator=(const Assistant&) = delete;

  std::thread::id id() const { return thread_.get_id(); }

 private:
  std::atomic<bool> started_{false};
  std::atomic<bool> done_{false};
  std::thread thread_;
};

// Holds a subrange until `flag` is set, for at most 10 s, so the pool's own threads
// cannot finish a loop before an assisting thread has taken part.
void WaitFor(const std::atomic<bool>& flag) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!flag.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
}

TEST(ThreadPoolTest, RunsAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, DrainWaitsForSlowTasks) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int i = 0; i < 4; ++i) {
    pool.Submit([&done] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      done.fetch_add(1);
    });
  }
  pool.Drain();
  EXPECT_EQ(done.load(), 4);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPoolTest, DrainOnEmptyPoolReturnsImmediately) {
  ThreadPool pool(2);
  pool.Drain();
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ThreadPoolTest, MultipleDrainCycles) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 5; ++round) {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    pool.Drain();
    EXPECT_EQ(counter.load(), (round + 1) * 10);
  }
}

TEST(ThreadPoolTest, DestructorCompletesQueuedWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Drain: destructor must still run every queued task before joining.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ParallelForTest, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  // Odd range and grain so the last chunk is ragged.
  constexpr int64_t kBegin = 3, kEnd = 1003, kGrain = 7;
  std::vector<std::atomic<int>> hits(kEnd);
  for (auto& h : hits) {
    h.store(0);
  }
  pool.ParallelFor(kBegin, kEnd, kGrain, [&](int64_t lo, int64_t hi) {
    EXPECT_LT(lo, hi);
    EXPECT_LE(hi - lo, kGrain);
    // Chunk boundaries are grain-aligned from `begin`.
    EXPECT_EQ((lo - kBegin) % kGrain, 0);
    for (int64_t i = lo; i < hi; ++i) {
      hits[static_cast<size_t>(i)].fetch_add(1);
    }
  });
  for (int64_t i = 0; i < kEnd; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), i >= kBegin ? 1 : 0) << "index " << i;
  }
}

TEST(ParallelForTest, EmptyRangeNeverInvokes) {
  ThreadPool pool(2);
  std::atomic<int> calls{0};
  pool.ParallelFor(5, 5, 1, [&](int64_t, int64_t) { calls.fetch_add(1); });
  pool.ParallelFor(9, 3, 4, [&](int64_t, int64_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForTest, GrainLargerThanRangeRunsInlineOnce) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<int> calls{0};
  pool.ParallelFor(10, 14, 100, [&](int64_t lo, int64_t hi) {
    calls.fetch_add(1);
    EXPECT_EQ(lo, 10);
    EXPECT_EQ(hi, 14);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
  EXPECT_EQ(calls.load(), 1);
}

TEST(ParallelForTest, ExceptionPropagatesWithoutDeadlockingDrain) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelFor(0, 64, 1,
                                [&](int64_t lo, int64_t) {
                                  ran.fetch_add(1);
                                  if (lo == 17) {
                                    throw std::runtime_error("boom");
                                  }
                                }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 64);  // every subrange still executed exactly once
  // The pool must remain fully usable: Submit + Drain cannot deadlock on the tasks
  // that raced with the failing loop.
  std::atomic<int> after{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&after] { after.fetch_add(1); });
  }
  pool.Drain();
  EXPECT_EQ(after.load(), 10);
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ParallelForTest, NestedOnSamePoolCompletes) {
  ThreadPool pool(2);
  // A worker running an outer subrange starts an inner loop on the same pool; caller
  // participation guarantees progress even with every worker busy.
  std::atomic<int> inner_total{0};
  pool.ParallelFor(0, 4, 1, [&](int64_t, int64_t) {
    pool.ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
      inner_total.fetch_add(static_cast<int>(hi - lo));
    });
  });
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ParallelForTest, SharedPoolResizes) {
  ThreadPool::ResizeShared(3);
  EXPECT_EQ(ThreadPool::Shared().num_threads(), 3u);
  std::atomic<int> count{0};
  ParallelFor(0, 100, 10, [&](int64_t lo, int64_t hi) {
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 100);
  ThreadPool::ResizeShared(2);
  EXPECT_EQ(ThreadPool::Shared().num_threads(), 2u);
}

TEST(ParallelForTest, ConcurrentCallersOnSharedPoolEachCoverTheirRange) {
  // One caller holds the pool's job slot at a time; the others find it taken and run
  // their loop inline. Either way every range is covered exactly once per round.
  ThreadPool::ResizeShared(2);
  constexpr int kCallers = 4;
  constexpr int kRounds = 200;
  constexpr int64_t kN = 515, kGrain = 8;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) {
    h = std::vector<std::atomic<int>>(kN);
  }
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([c, &hits] {
      for (int r = 0; r < kRounds; ++r) {
        ThreadPool::Shared().ParallelFor(0, kN, kGrain, [&](int64_t lo, int64_t hi) {
          for (int64_t i = lo; i < hi; ++i) {
            hits[c][static_cast<size_t>(i)].fetch_add(1);
          }
        });
      }
    });
  }
  for (auto& t : callers) {
    t.join();
  }
  for (int c = 0; c < kCallers; ++c) {
    for (int64_t i = 0; i < kN; ++i) {
      ASSERT_EQ(hits[c][static_cast<size_t>(i)].load(), kRounds)
          << "caller " << c << " index " << i;
    }
  }
}

TEST(ParallelForTest, NestedOnSharedPoolRunsInline) {
  ThreadPool::ResizeShared(2);
  // The outer loop holds the job slot, so each inner loop (on a worker or the caller)
  // runs inline as one call over its whole range.
  std::atomic<int> inner_calls{0};
  std::atomic<int> inner_total{0};
  ParallelFor(0, 4, 1, [&](int64_t, int64_t) {
    ParallelFor(0, 8, 1, [&](int64_t lo, int64_t hi) {
      inner_calls.fetch_add(1);
      inner_total.fetch_add(static_cast<int>(hi - lo));
    });
  });
  EXPECT_EQ(inner_calls.load(), 4);
  EXPECT_EQ(inner_total.load(), 4 * 8);
}

TEST(ParallelForTest, ExceptionWhileWorkersSpinIsRethrownAndPoolStaysUsable) {
  ThreadPool::ResizeShared(2);
  std::atomic<int> ran{0};
  for (int round = 0; round < 50; ++round) {
    // Back to back with the previous loop, so the workers are still spinning.
    ran.store(0);
    EXPECT_THROW(ParallelFor(0, 32, 1,
                             [&](int64_t lo, int64_t) {
                               ran.fetch_add(1);
                               if (lo == round % 32) {
                                 throw std::runtime_error("boom");
                               }
                             }),
                 std::runtime_error);
    EXPECT_EQ(ran.load(), 32);
    std::atomic<int> count{0};
    ParallelFor(0, 100, 10, [&](int64_t lo, int64_t hi) {
      count.fetch_add(static_cast<int>(hi - lo));
    });
    EXPECT_EQ(count.load(), 100);
  }
}

TEST(ParallelForTest, ResizeAndDestroyWhileWorkersSpinDoNotHang) {
  for (int round = 0; round < 20; ++round) {
    ThreadPool::ResizeShared(2 + round % 2);
    std::atomic<int> count{0};
    ParallelFor(0, 64, 4, [&](int64_t lo, int64_t hi) {
      count.fetch_add(static_cast<int>(hi - lo));
    });
    EXPECT_EQ(count.load(), 64);
    // The next resize destroys this pool while its workers spin on the epoch.
  }
  ThreadPool::ResizeShared(2);
}

TEST(ParallelForTest, IdlePoolWakesForNextJob) {
  ThreadPool::ResizeShared(2);
  EXPECT_EQ(ThreadsThatJoin(ThreadPool::Shared(), 3), 3u);
  // Well past the spin window: the workers have parked.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ThreadsThatJoin(ThreadPool::Shared(), 3), 3u);
  // A dedicated pool's workers park at once.
  ThreadPool pool(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(ThreadsThatJoin(pool, 3), 3u);
}

TEST(AssistUntilTest, OutsideThreadRunsSubrangesAndEachIndexOnce) {
  ThreadPool::ResizeShared(2);
  ThreadPool dedicated(2);
  for (ThreadPool* pool : {&ThreadPool::Shared(), &dedicated}) {
    Assistant helper(*pool);
    const std::thread::id helper_id = helper.id();
    constexpr int64_t kN = 64;
    std::vector<std::atomic<int>> hits(kN);
    std::atomic<bool> helper_ran{false};
    pool->ParallelFor(0, kN, 1, [&](int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        hits[static_cast<size_t>(i)].fetch_add(1);
      }
      if (std::this_thread::get_id() == helper_id) {
        helper_ran.store(true);
      }
      WaitFor(helper_ran);
    });
    EXPECT_TRUE(helper_ran.load());
    for (int64_t i = 0; i < kN; ++i) {
      EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << "index " << i;
    }
  }
}

TEST(AssistUntilTest, ThrowOnHelperIsRethrownOnCaller) {
  ThreadPool pool(2);
  Assistant helper(pool);
  const std::thread::id helper_id = helper.id();
  std::atomic<bool> helper_ran{false};
  std::atomic<int> ran{0};
  try {
    pool.ParallelFor(0, 64, 1, [&](int64_t, int64_t) {
      ran.fetch_add(1);
      if (std::this_thread::get_id() == helper_id && !helper_ran.exchange(true)) {
        throw std::runtime_error("thrown on the helper");
      }
      WaitFor(helper_ran);
    });
    ADD_FAILURE() << "the helper's exception was not rethrown";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "thrown on the helper");
  }
  EXPECT_EQ(ran.load(), 64);
  // The pool and its helper go on to serve the next loop.
  std::atomic<int> count{0};
  pool.ParallelFor(0, 100, 10, [&](int64_t lo, int64_t hi) {
    count.fetch_add(static_cast<int>(hi - lo));
  });
  EXPECT_EQ(count.load(), 100);
}

TEST(AssistUntilTest, ReturnsOncePredicateHoldsWithNoLoopOpened) {
  ThreadPool::ResizeShared(2);
  int polls = 0;
  ThreadPool::Shared().AssistUntil([&] { return ++polls == 3; });
  EXPECT_EQ(polls, 3);
  std::atomic<bool> done{false};
  std::thread setter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    done.store(true);
  });
  ThreadPool::Shared().AssistUntil([&] { return done.load(); });
  setter.join();
  EXPECT_TRUE(done.load());
}

TEST(ThreadPoolTest, ConcurrentProducers) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  std::vector<std::thread> producers;
  for (int p = 0; p < 4; ++p) {
    producers.emplace_back([&pool, &counter] {
      for (int i = 0; i < 25; ++i) {
        pool.Submit([&counter] { counter.fetch_add(1); });
      }
    });
  }
  for (auto& t : producers) {
    t.join();
  }
  pool.Drain();
  EXPECT_EQ(counter.load(), 100);
}

}  // namespace
}  // namespace hcache
