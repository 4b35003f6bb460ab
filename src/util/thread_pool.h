#ifndef SCIBORQ_UTIL_THREAD_POOL_H_
#define SCIBORQ_UTIL_THREAD_POOL_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.h"

namespace sciborq {

/// A fixed-size worker pool — the execution substrate for morsel-driven
/// parallel scans (exec/, core/bounded_executor.h) and the server's
/// connection handlers. Tasks are plain closures; the library's Status-based
/// error handling means tasks never throw.
class ThreadPool {
 public:
  /// Resolves a `num_threads` knob to an actual worker count:
  ///   0  => std::thread::hardware_concurrency() (at least 1),
  ///   n  => n.
  /// Negative values clamp to 1 (serial).
  static int ResolveThreadCount(int requested);

  /// Spawns ResolveThreadCount(num_threads) workers.
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  /// Enqueues one task for execution on some worker.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// Blocks until every task submitted so far has finished.
  void Wait() EXCLUDES(mu_);

 private:
  void WorkerLoop() EXCLUDES(mu_);

  int num_threads_ = 1;
  std::vector<std::thread> workers_;
  /// Guards the queue and its bookkeeping; the condition variables pair
  /// with it (waits run under a MutexLock on mu_).
  Mutex mu_;
  std::condition_variable_any task_ready_;
  std::condition_variable_any all_done_;
  std::queue<std::function<void()>> tasks_ GUARDED_BY(mu_);
  int64_t in_flight_ GUARDED_BY(mu_) = 0;  ///< queued + currently running
  bool shutdown_ GUARDED_BY(mu_) = false;
};

/// Default morsel granularity for parallel scans: big enough to amortize
/// dispatch, small enough to load-balance skewed predicates.
inline constexpr int64_t kDefaultMorselRows = 16 * 1024;

/// Number of morsels covering [0, total) at `morsel_rows` granularity.
int64_t NumMorsels(int64_t total, int64_t morsel_rows);

/// Runs body(morsel_index, begin, end) over [0, total) split into fixed
/// contiguous morsels. Morsels are claimed dynamically by the pool's workers;
/// runs inline (in morsel order) when `pool` is null, single-threaded, or the
/// range fits one morsel. Blocks until every morsel is done. `body` must be
/// safe to invoke concurrently for disjoint morsels.
void ParallelFor(ThreadPool* pool, int64_t total, int64_t morsel_rows,
                 const std::function<void(int64_t morsel, int64_t begin,
                                          int64_t end)>& body);

/// Morsel map-reduce with a deterministic fold: `map` computes one partial
/// per morsel (in parallel), `fold` consumes the partials serially in morsel
/// index order. Because the serial path executes the exact same
/// fold(map(morsel 0)), fold(map(morsel 1)), ... sequence, results are
/// bit-identical for every thread count — the invariant the parallel scan
/// paths in exec/ rely on.
template <typename Partial>
void ParallelMorselReduce(
    ThreadPool* pool, int64_t total, int64_t morsel_rows,
    const std::function<Partial(int64_t begin, int64_t end)>& map,
    const std::function<void(Partial&&)>& fold) {
  const int64_t num_morsels = NumMorsels(total, morsel_rows);
  if (pool == nullptr || pool->num_threads() <= 1 || num_morsels <= 1) {
    for (int64_t m = 0; m < num_morsels; ++m) {
      const int64_t begin = m * morsel_rows;
      const int64_t end = std::min(total, begin + morsel_rows);
      fold(map(begin, end));
    }
    return;
  }
  std::vector<std::optional<Partial>> partials(
      static_cast<size_t>(num_morsels));
  ParallelFor(pool, total, morsel_rows,
              [&](int64_t m, int64_t begin, int64_t end) {
                partials[static_cast<size_t>(m)].emplace(map(begin, end));
              });
  for (auto& partial : partials) fold(std::move(*partial));
}

}  // namespace sciborq

#endif  // SCIBORQ_UTIL_THREAD_POOL_H_
