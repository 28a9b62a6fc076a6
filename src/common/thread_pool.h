// Fixed-size worker pool. Shared() is the compute pool: through ParallelFor every
// kernel of the functional plane (GEMM, RoPE, softmax, attention) work-shares on it.
// Any other pool is dedicated storage threads: the two-stage saver flushes chunks on
// one (§4.2.2 of the paper uses 8 background host threads), and the restore pipeline
// runs its transmission stream there — every chunk read, CRC check and decode of a
// restore — while the caller projects on the compute pool. On a dedicated pool's
// workers the free ParallelFor runs inline, so storage work never posts helpers into
// the compute pool's queue, where they would wait behind (and delay) the projection.
#ifndef HCACHE_SRC_COMMON_THREAD_POOL_H_
#define HCACHE_SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace hcache {

class ThreadPool {
 public:
  // A dedicated pool (see the file comment); the compute pool is Shared().
  explicit ThreadPool(size_t num_threads) : ThreadPool(num_threads, /*shared=*/false) {}
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Tasks run FIFO across workers. Must not be called after the pool
  // has been destroyed; safe from multiple producer threads.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished executing.
  void Drain();

  // Work-sharing loop: invokes `fn(lo, hi)` over disjoint subranges that exactly cover
  // [begin, end), each at most `grain` long and aligned to multiples of `grain` from
  // `begin`. Subranges run concurrently on the pool workers AND the calling thread
  // (which also consumes subranges, so nested ParallelFor on the same pool cannot
  // deadlock). Returns once every subrange has finished. An empty range returns
  // immediately without invoking `fn`; a range that fits in one grain (or a 1-thread
  // pool) runs fn(begin, end) inline on the caller. The first exception thrown by `fn`
  // is rethrown on the caller after all subranges complete; worker threads and Drain()
  // are unaffected.
  //
  // Determinism: the subrange boundaries depend only on (begin, end, grain) — never on
  // the thread count or scheduling — so kernels whose per-element reduction order is
  // independent of the partitioning produce bit-identical results at any thread count.
  void ParallelFor(int64_t begin, int64_t end, int64_t grain,
                   const std::function<void(int64_t, int64_t)>& fn);

  size_t num_threads() const { return workers_.size(); }
  size_t pending() const;

  // Process-wide pool for compute kernels, sized from HCACHE_NUM_THREADS (falling back
  // to std::thread::hardware_concurrency). Constructed on first use.
  static ThreadPool& Shared();

  // Rebuilds the shared pool with `n` threads (bench/test hook for measuring scaling
  // and for serial-vs-parallel bit-exactness checks). Must not race with kernels that
  // are concurrently using the shared pool.
  static void ResizeShared(size_t n);

  // True on a worker thread of a dedicated pool, where the free ParallelFor runs inline.
  static bool OnDedicatedWorker();

 private:
  ThreadPool(size_t num_threads, bool shared);
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_available_;
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  bool shutting_down_ = false;
  const bool shared_;
  std::vector<std::thread> workers_;
};

// Shorthand used by the tensor/model kernels and the storage plane: work-share
// [begin, end) on the shared pool. See ThreadPool::ParallelFor for the contract. A
// range that fits in one grain runs inline without touching the shared pool (no mutex,
// no std::function), keeping the decode path (1-row tensors) as cheap as the old
// serial loops; so does any range on a dedicated pool's worker.
template <typename Fn>
inline void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
  if (end <= begin) {
    return;
  }
  if (end - begin <= grain || ThreadPool::OnDedicatedWorker()) {
    fn(begin, end);
    return;
  }
  ThreadPool::Shared().ParallelFor(begin, end, grain, fn);
}

}  // namespace hcache

#endif  // HCACHE_SRC_COMMON_THREAD_POOL_H_
