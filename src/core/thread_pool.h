// thread_pool.h — the shared worker-pool substrate of the campaign
// layers: the trace simulator, the streaming CPA/TVLA analysis, the
// sharded chaos campaign and the fault drill.
//
// A fixed set of threads behind one blocking data-parallel helper,
// parallel_for(): split [0, n) into chunks, run them on the workers *and
// the calling thread*, return when every chunk is done. The caller
// participates in the work, so a 1-worker pool (or a call from inside a
// worker task) degrades to a serial loop instead of deadlocking, and the
// pool adds throughput strictly on top of the caller's own core.
//
// Determinism contract: the pool schedules work but never partitions it —
// chunk boundaries come from the caller. Campaign code keeps its output
// bit-identical across thread counts by fixing the chunk geometry and
// merging results in chunk-index order (see trace_sim.cpp / dpa.cpp).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace medsec::core {

class ThreadPool {
 public:
  /// threads == 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  /// Stops the workers. Tasks already running finish; tasks still queued
  /// are abandoned.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Run fn(begin, end) over [0, n) split into chunks of `grain` (last
  /// chunk may be short). Blocks until all chunks are done. The calling
  /// thread executes chunks alongside the workers, pulling from a shared
  /// chunk counter — safe to call from a worker task and on a pool whose
  /// workers are all busy. Exceptions from fn propagate to the caller
  /// (first one wins; remaining chunks still execute).
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& fn);

  /// Process-wide pool sized to the hardware (lazy, never destroyed
  /// before exit).
  static ThreadPool& shared();

  /// Resolve a caller-facing `threads` knob for parallel_for fan-out:
  /// 1 -> nullptr (run everything on the calling thread), 0 -> the
  /// shared pool (all hardware threads), >= 2 -> a pool giving exactly
  /// that many runners — the calling thread participates in
  /// parallel_for, so a private (threads - 1)-worker pool is built into
  /// `owner` unless the shared pool already has that size.
  static ThreadPool* for_config(std::size_t threads,
                                std::unique_ptr<ThreadPool>& owner);

 private:
  /// Enqueue one task (parallel_for's helpers). Dropped once shutdown has
  /// begun.
  void submit(std::function<void()> fn);
  void worker_loop();

  std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers: work available / stop
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace medsec::core
