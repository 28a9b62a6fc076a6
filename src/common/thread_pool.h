// Fixed-size worker pool. Shared() is the compute pool: through ParallelFor every
// kernel of the functional plane (GEMM, RoPE, softmax, attention) work-shares on it.
// Any other pool is dedicated storage threads: the two-stage saver flushes chunks on
// one (§4.2.2 of the paper uses 8 background host threads), and the restore pipeline
// runs its transmission stream there — every chunk read, CRC check and decode of a
// restore — while the caller projects on the compute pool. On a dedicated pool's
// workers the free ParallelFor runs inline, so storage work never competes with the
// projection for the compute pool.
//
// Dispatch. A ParallelFor writes one job descriptor into the pool's single job slot and
// bumps an atomic epoch; the workers and the caller then pull grain-sized subranges
// off the job's atomic cursor. The compute pool's workers spin on the epoch for a short
// window after each job before they park, so the back-to-back operators of a forward
// pass cost no allocation, no mutex and no syscall. Dedicated pools' workers never
// spin between tasks (a spinning flush thread would take a core from the projection);
// they park at once and serve Submit's FIFO queue as well as the job slot.
//
// Assist. A thread outside the compute pool can join its jobs through AssistUntil,
// spinning between them. The restore's transmission task does so on a flush-pool
// thread, and only when the compute pool leaves a hardware thread spare, so the spin
// never takes a core from a participant.
#ifndef HCACHE_SRC_COMMON_THREAD_POOL_H_
#define HCACHE_SRC_COMMON_THREAD_POOL_H_

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace hcache {

class ThreadPool {
 public:
  // A dedicated pool (see the file comment); the compute pool is Shared().
  explicit ThreadPool(size_t num_threads) : ThreadPool(num_threads, /*shared=*/false) {}
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task on a dedicated pool. Tasks run FIFO across workers. Must not be
  // called after the pool has been destroyed; safe from multiple producer threads.
  // The compute pool takes no tasks: its workers only serve ParallelFor.
  void Submit(std::function<void()> task);

  // Blocks until every submitted task has finished executing.
  void Drain();

  // Work-sharing loop: invokes `fn(lo, hi)` over disjoint subranges that exactly cover
  // [begin, end), each at most `grain` long and aligned to multiples of `grain` from
  // `begin`. Subranges run concurrently on the pool workers AND the calling thread.
  // Returns once every subrange has finished. `fn` is called through a pointer, never
  // copied, so a dispatch allocates nothing.
  //
  // The pool runs one loop at a time. An empty range returns without invoking `fn`;
  // a range that fits in one grain, a 1-thread pool, and a call that finds the pool
  // already running a loop (a nested call from inside `fn`, or a second caller thread)
  // run fn(begin, end) inline on the caller. The first exception thrown by `fn` is
  // rethrown on the caller after every subrange has run; the pool stays usable.
  //
  // Determinism: the subrange boundaries depend only on (begin, end, grain) — never on
  // the thread count or scheduling — and an inline run is one call over the whole
  // range, so kernels whose per-element reduction order is independent of the
  // partitioning produce bit-identical results at any thread count.
  template <typename Fn>
  void ParallelFor(int64_t begin, int64_t end, int64_t grain, Fn&& fn) {
    using F = std::remove_reference_t<Fn>;
    Run(begin, end, grain, const_cast<void*>(static_cast<const void*>(std::addressof(fn))),
        [](void* f, int64_t lo, int64_t hi) { (*static_cast<F*>(f))(lo, hi); });
  }

  // Joins this pool's loops from a thread outside it until `done()` holds: takes
  // subranges of the open ParallelFor, and of each one opened after it, exactly as a
  // worker does (a loop that closes first runs nothing here), and spins between loops
  // without parking. A throwing subrange is rethrown on that loop's caller. `done` is
  // polled between loops, never copied, so a call allocates nothing. The helper is
  // not counted by ParallelParticipants(): every loop keeps the subranges it would
  // have had without it. Must not race with the pool's destruction (ResizeShared).
  template <typename Pred>
  void AssistUntil(Pred&& done) {
    using P = std::remove_reference_t<Pred>;
    Assist(const_cast<void*>(static_cast<const void*>(std::addressof(done))),
           [](void* p) { return static_cast<bool>((*static_cast<P*>(p))()); });
  }

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
  using Invoke = void (*)(void* fn, int64_t lo, int64_t hi);
  using Poll = bool (*)(void* done);

  // The job slot: written by the caller that holds `busy_`, read by every participant.
  struct Job {
    void* fn = nullptr;
    Invoke invoke = nullptr;
    int64_t begin = 0;
    int64_t end = 0;
    int64_t grain = 1;
    int64_t chunks = 0;
    std::atomic<int64_t> next{0};        // chunk cursor
    std::atomic<bool> failed{false};     // set by the first throwing subrange...
    std::exception_ptr error;            // ...which alone writes this
  };

  ThreadPool(size_t num_threads, bool shared);
  void Run(int64_t begin, int64_t end, int64_t grain, void* fn, Invoke invoke);
  void RunChunks();
  void JoinJob(uint64_t epoch);
  void Assist(void* done, Poll poll);
  void WorkerLoop();

  Job job_;
  std::atomic<bool> busy_{false};     // the job slot is taken
  std::atomic<uint64_t> epoch_{0};    // odd while a job takes joiners, even otherwise
  std::atomic<int> active_{0};        // workers inside the current job
  std::atomic<int> parked_{0};        // workers parked on work_available_
  std::atomic<bool> caller_parked_{false};
  std::atomic<bool> shutting_down_{false};

  mutable std::mutex mu_;
  std::condition_variable work_available_;  // a job, a task, or shutdown
  std::condition_variable job_done_;        // the last worker left the job
  std::condition_variable all_idle_;
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  const bool shared_;
  std::vector<std::thread> workers_;
};

// Threads a ParallelFor called here runs at once: the shared pool's workers plus the
// caller, but no more than the machine has hardware threads, or 1 where loops run
// inline (a 1-thread pool, a dedicated pool's worker). Kernels size their subranges
// from it so that a short loop gives every participant an equal share. The cap
// matters for a pool as large as the machine (the default): one subrange more than
// the cores can run would take a second round.
inline int64_t ParallelParticipants() {
  const int64_t workers = ThreadPool::OnDedicatedWorker()
                              ? 0
                              : static_cast<int64_t>(ThreadPool::Shared().num_threads());
  if (workers <= 1) {
    return 1;
  }
  static const int64_t hardware = std::thread::hardware_concurrency();
  return hardware > 0 ? std::min(workers + 1, hardware) : workers + 1;
}

// Shorthand used by the tensor/model kernels and the storage plane: work-share
// [begin, end) on the shared pool. See ThreadPool::ParallelFor for the contract. A
// range that fits in one grain runs inline without touching the shared pool, keeping
// the decode path (1-row tensors) as cheap as a serial loop; so does any range on a
// dedicated pool's worker.
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
