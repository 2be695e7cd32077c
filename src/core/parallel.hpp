// Minimal shared-memory parallelism substrate.
//
// The ensemble tracker and some benches parallelise over particles. We keep a
// small fixed thread pool (created once, reused) and a blocking parallel_for
// with static chunking — the loop bodies are compute-bound and uniform, so
// static scheduling is both fastest and deterministic.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace citl {

/// A fixed-size pool of worker threads executing fork/join style tasks.
///
/// Usage:
///   ThreadPool pool;                       // hardware_concurrency workers
///   pool.parallel_for(0, n, [&](std::size_t i) { ... });
/// The call blocks until every index has been processed. Exceptions thrown by
/// the body are rethrown on the calling thread exactly once (first one wins;
/// the remaining chunks still run to completion so the pool stays reusable).
///
/// parallel_for may be called from several threads at once — submissions are
/// serialised, one job at a time. It must NOT be called from inside a body
/// running on the same pool (the nested submission would wait on itself).
///
/// Spin, then park: after a job a worker polls for the next one for kSpin,
/// yielding the CPU between polls, before it sleeps on a condition variable;
/// the caller polls for the last chunk the same way. A job submitted soon
/// after the previous one so finds its workers running on their own CPUs. A
/// woken worker could instead be placed on the submitter's CPU and run its
/// chunk only after the submitter's own. The price is up to kSpin of CPU
/// time per worker after each job.
class ThreadPool {
 public:
  /// Creates `threads` workers; 0 means std::thread::hardware_concurrency().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned size() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;  // + caller thread
  }

  /// Runs body(i) for every i in [begin, end), splitting the range into
  /// contiguous chunks, one per participating thread. Blocks until done.
  void parallel_for(std::size_t begin, std::size_t end,
                    const std::function<void(std::size_t)>& body);

  /// Chunked variant: body(chunk_begin, chunk_end) — lets callers hoist
  /// per-thread state (e.g. an Rng stream) out of the inner loop.
  void parallel_for_chunks(
      std::size_t begin, std::size_t end,
      const std::function<void(std::size_t, std::size_t)>& body);

  /// Returns the process-wide default pool (lazily constructed).
  static ThreadPool& global();

  /// How long an idle worker, or a caller waiting for the last chunk, polls
  /// before it parks.
  static constexpr std::chrono::microseconds kSpin{1000};

 private:
  struct Job {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
    std::size_t chunks = 0;
  };

  void worker_loop(std::size_t worker_index);
  void run_chunk(const Job& job, std::size_t chunk_index);

  std::vector<std::thread> workers_;
  /// Held for the whole of a parallel_for call: job_/pending_/generation_
  /// describe ONE job at a time, so concurrent submitters must queue. Without
  /// this, two simultaneous callers overwrite each other's job and pending
  /// count, and the loser waits on cv_done_ forever.
  std::mutex submit_mutex_;
  /// Guards job_ and first_error_. generation_ and stop_ change only under
  /// it (so a parked worker's predicate sees them); they are atomic so a
  /// spinning worker may poll them without it, as the caller polls pending_.
  std::mutex mutex_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  Job job_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> pending_{0};
  std::atomic<bool> stop_{false};
  std::exception_ptr first_error_;
};

}  // namespace citl
