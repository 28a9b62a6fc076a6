#include "src/common/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <utility>

#include "src/common/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>
#endif

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

// How long a compute-pool worker spins for the next job, and a caller for its
// helpers, before parking. A decode step of hcache_serve's chat model runs ~57 loops
// back to back, and waking a parked worker costs more than a small loop's work. Long
// enough to bridge the gaps inside a forward pass, short enough to park between
// requests. Measured with the chat workload (4 vCPUs, two workers plus the caller,
// median of 4 alternating runs): tpot_p50 1.19 ms at 15 µs, 1.11 ms at 50 µs and
// 1.13 ms at 150 µs.
constexpr std::chrono::microseconds kSpinWindow{50};

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  _mm_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Spins until `done()` holds or kSpinWindow passes; returns done(). The clock is read
// once per 64 polls.
template <typename Pred>
bool SpinUntil(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + kSpinWindow;
  for (uint32_t i = 1;; ++i) {
    if (done()) {
      return true;
    }
    if (i % 64 == 0 && std::chrono::steady_clock::now() >= deadline) {
      return false;
    }
    CpuRelax();
  }
}

// Set on the workers of every pool but Shared().
thread_local bool t_dedicated_worker = false;

// The shared pool is owned by SharedSlot() under g_shared_mu; g_shared mirrors its
// pointer so that Shared(), called by every kernel, takes no lock once it exists.
std::mutex g_shared_mu;
std::atomic<ThreadPool*> g_shared{nullptr};
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
    shutting_down_.store(true);
  }
  work_available_.notify_all();
  for (auto& t : workers_) {
    t.join();
  }
}

void ThreadPool::Submit(std::function<void()> task) {
  CHECK(!shared_) << "the compute pool only serves ParallelFor";
  {
    std::lock_guard<std::mutex> lock(mu_);
    CHECK(!shutting_down_.load());
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  all_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

// The handshakes below pair a seq_cst write of one atomic with a seq_cst read of
// another on each side (epoch_/parked_ to wake workers, epoch_/active_ to close a job,
// active_/caller_parked_ to wake the caller), so at least one side always sees the
// other. A waker that sees a parked thread takes mu_ before it notifies, so a thread
// between its predicate check and its wait (both under mu_) cannot miss the notify.
void ThreadPool::Run(int64_t begin, int64_t end, int64_t grain, void* fn, Invoke invoke) {
  if (end <= begin) {
    return;
  }
  grain = std::max<int64_t>(grain, 1);
  const int64_t chunks = (end - begin + grain - 1) / grain;
  if (chunks <= 1 || workers_.size() <= 1 || busy_.exchange(true, std::memory_order_acquire)) {
    invoke(fn, begin, end);
    return;
  }

  job_.fn = fn;
  job_.invoke = invoke;
  job_.begin = begin;
  job_.end = end;
  job_.grain = grain;
  job_.chunks = chunks;
  job_.next.store(0, std::memory_order_relaxed);
  job_.failed.store(false, std::memory_order_relaxed);
  const uint64_t open = epoch_.load(std::memory_order_relaxed) + 1;
  epoch_.store(open);
  if (parked_.load() > 0) {
    { std::lock_guard<std::mutex> lock(mu_); }
    work_available_.notify_all();
  }

  RunChunks();  // the caller works too

  // Close the job to late joiners, then wait for the workers still inside it: every
  // chunk has been claimed, so once they leave, every chunk has run.
  epoch_.store(open + 1);
  if (!SpinUntil([this] { return active_.load() == 0; })) {
    std::unique_lock<std::mutex> lock(mu_);
    caller_parked_.store(true);
    job_done_.wait(lock, [this] { return active_.load() == 0; });
    caller_parked_.store(false);
  }
  const std::exception_ptr error = std::exchange(job_.error, nullptr);
  busy_.store(false, std::memory_order_release);
  if (error) {
    std::rethrow_exception(error);
  }
}

void ThreadPool::RunChunks() {
  for (;;) {
    const int64_t c = job_.next.fetch_add(1, std::memory_order_relaxed);
    if (c >= job_.chunks) {
      return;
    }
    const int64_t lo = job_.begin + c * job_.grain;
    const int64_t hi = std::min(job_.end, lo + job_.grain);
    try {
      job_.invoke(job_.fn, lo, hi);
    } catch (...) {
      if (!job_.failed.exchange(true)) {
        job_.error = std::current_exception();
      }
    }
  }
}

void ThreadPool::JoinJob(uint64_t epoch) {
  active_.fetch_add(1);
  if (epoch_.load() == epoch) {  // still open: the descriptor is the job's
    RunChunks();
  }
  if (active_.fetch_sub(1) == 1 && caller_parked_.load()) {
    { std::lock_guard<std::mutex> lock(mu_); }
    job_done_.notify_one();
  }
}

void ThreadPool::Assist(void* done, Poll poll) {
  uint64_t seen = 0;  // epoch 0 is never a job's
  while (!poll(done)) {
    const uint64_t epoch = epoch_.load();
    if (epoch % 2 == 1 && epoch != seen) {
      seen = epoch;
      JoinJob(epoch);
    } else {
      CpuRelax();
    }
  }
}

ThreadPool& ThreadPool::Shared() {
  if (ThreadPool* pool = g_shared.load(std::memory_order_acquire)) {
    return *pool;
  }
  std::lock_guard<std::mutex> lock(g_shared_mu);
  auto& slot = SharedSlot();
  if (slot == nullptr) {
    slot.reset(new ThreadPool(DefaultSharedThreads(), /*shared=*/true));
    g_shared.store(slot.get(), std::memory_order_release);
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
  std::unique_ptr<ThreadPool> old = std::move(slot);
  slot.reset(new ThreadPool(n, /*shared=*/true));
  g_shared.store(slot.get(), std::memory_order_release);
}

bool ThreadPool::OnDedicatedWorker() { return t_dedicated_worker; }

size_t ThreadPool::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size() + in_flight_;
}

void ThreadPool::WorkerLoop() {
  t_dedicated_worker = !shared_;
  uint64_t seen = 0;
  for (;;) {
    uint64_t epoch = epoch_.load();
    if (epoch == seen && shared_ &&
        SpinUntil([&] { return epoch_.load() != seen || shutting_down_.load(); })) {
      epoch = epoch_.load();
    }
    if (epoch == seen) {
      std::unique_lock<std::mutex> lock(mu_);
      parked_.fetch_add(1);
      work_available_.wait(lock, [&] {
        return shutting_down_.load() || !queue_.empty() || epoch_.load() != seen;
      });
      parked_.fetch_sub(1);
      epoch = epoch_.load();
      if (epoch == seen) {
        if (queue_.empty()) {
          return;  // shutting down and drained
        }
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        ++in_flight_;
        lock.unlock();
        task();
        lock.lock();
        --in_flight_;
        if (queue_.empty() && in_flight_ == 0) {
          all_idle_.notify_all();
        }
        continue;
      }
    }
    seen = epoch;
    if (epoch % 2 == 1) {
      JoinJob(epoch);
    }
  }
}

}  // namespace hcache
