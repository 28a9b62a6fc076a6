#include "src/common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "src/common/logging.h"

namespace hcache {

namespace {

size_t DefaultSharedThreads() {
  if (const char* env = std::getenv("HCACHE_NUM_THREADS")) {
    const long v = std::strtol(env, nullptr, 10);
    if (v > 0) {
      return static_cast<size_t>(v);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<size_t>(hw) : 1;
}

// Set on the workers of every pool but Shared().
thread_local bool t_dedicated_worker = false;

std::mutex g_shared_mu;
std::unique_ptr<ThreadPool>& SharedSlot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

}  // namespace

ThreadPool::ThreadPool(size_t num_threads, bool shared) : shared_(shared) {
  CHECK_GT(num_threads, 0u);
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutting_down_ = true;
  }
  work_available_.notify_all();
  for (auto& t : workers_) {
    t.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    CHECK(!shutting_down_);
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  all_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::ParallelFor(int64_t begin, int64_t end, int64_t grain,
                             const std::function<void(int64_t, int64_t)>& fn) {
  if (end <= begin) {
    return;
  }
  grain = std::max<int64_t>(grain, 1);
  const int64_t range = end - begin;
  const int64_t chunks = (range + grain - 1) / grain;
  if (chunks <= 1 || workers_.size() <= 1) {
    fn(begin, end);
    return;
  }

  // All participants (pool workers + the caller) pull grain-sized subranges off one
  // atomic cursor. The state is shared_ptr-owned because helper tasks may still be
  // queued — and run as no-ops — after the caller has returned.
  struct State {
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    int64_t chunks = 0;
    std::mutex mu;
    std::condition_variable cv;
    std::exception_ptr error;  // first exception only, guarded by mu
  };
  auto state = std::make_shared<State>();
  state->chunks = chunks;

  auto run_chunks = [state, &fn, begin, end, grain] {
    for (;;) {
      const int64_t c = state->next.fetch_add(1, std::memory_order_relaxed);
      if (c >= state->chunks) {
        return;
      }
      const int64_t lo = begin + c * grain;
      const int64_t hi = std::min(end, lo + grain);
      try {
        fn(lo, hi);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (!state->error) {
          state->error = std::current_exception();
        }
      }
      if (state->done.fetch_add(1, std::memory_order_acq_rel) + 1 == state->chunks) {
        std::lock_guard<std::mutex> lock(state->mu);
        state->cv.notify_all();
      }
    }
  };

  // Helper tasks capture the state (not fn) by value so a helper that only gets
  // scheduled after completion exits immediately. fn is only referenced while the
  // caller is still blocked inside this function, so the reference stays valid for
  // every chunk that actually runs.
  const int64_t helpers =
      std::min<int64_t>(chunks - 1, static_cast<int64_t>(workers_.size()));
  for (int64_t i = 0; i < helpers; ++i) {
    Submit(run_chunks);
  }
  run_chunks();  // the caller works too

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&state] {
    return state->done.load(std::memory_order_acquire) == state->chunks;
  });
  if (state->error) {
    std::rethrow_exception(state->error);
  }
}

ThreadPool& ThreadPool::Shared() {
  std::lock_guard<std::mutex> lock(g_shared_mu);
  auto& slot = SharedSlot();
  if (slot == nullptr) {
    slot.reset(new ThreadPool(DefaultSharedThreads(), /*shared=*/true));
  }
  return *slot;
}

void ThreadPool::ResizeShared(size_t n) {
  CHECK_GT(n, 0u);
  std::lock_guard<std::mutex> lock(g_shared_mu);
  auto& slot = SharedSlot();
  if (slot != nullptr && slot->num_threads() == n) {
    return;
  }
  slot.reset(new ThreadPool(n, /*shared=*/true));
}

bool ThreadPool::OnDedicatedWorker() { return t_dedicated_worker; }

size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + in_flight_;
}

void ThreadPool::WorkerLoop() {
  t_dedicated_worker = !shared_;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [this] { return shutting_down_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutting down and drained
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) {
        all_idle_.notify_all();
      }
    }
  }
}

}  // namespace hcache
