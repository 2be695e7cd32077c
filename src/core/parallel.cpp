#include "core/parallel.hpp"

#include <algorithm>
#include <cstdint>

#include "obs/metrics.hpp"

namespace citl {

namespace {

/// Polls `done` until it holds or ThreadPool::kSpin has passed, yielding the
/// CPU between polls.
template <class Done>
void spin_until(const Done& done) {
  const auto until = std::chrono::steady_clock::now() + ThreadPool::kSpin;
  while (!done() && std::chrono::steady_clock::now() < until) {
    std::this_thread::yield();
  }
}

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  unsigned n = threads != 0 ? threads : std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  // The calling thread participates in every parallel_for, so we spawn n-1.
  workers_.reserve(n - 1);
  for (unsigned i = 0; i + 1 < n; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_.store(true);
  }
  cv_start_.notify_all();
  for (auto& w : workers_) w.join();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::worker_loop(std::size_t worker_index) {
  std::uint64_t seen_generation = 0;
  const auto woken = [&] {
    return stop_.load() || generation_.load() != seen_generation;
  };
  for (;;) {
    spin_until(woken);
    Job job;
    {
      std::unique_lock lock(mutex_);
      cv_start_.wait(lock, woken);
      if (stop_.load()) return;
      seen_generation = generation_.load();
      job = job_;
    }
    if (worker_index + 1 < job.chunks) {
      run_chunk(job, worker_index + 1);  // chunk 0 belongs to the caller
    }
    if (pending_.fetch_sub(1) == 1) {
      // Under the mutex, so a caller between its predicate check and its
      // wait cannot miss the notification.
      std::lock_guard lock(mutex_);
      cv_done_.notify_all();
    }
  }
}

void ThreadPool::run_chunk(const Job& job, std::size_t chunk_index) {
  const std::size_t total = job.end - job.begin;
  const std::size_t per = (total + job.chunks - 1) / job.chunks;
  const std::size_t lo = std::min(job.begin + chunk_index * per, job.end);
  const std::size_t hi = std::min(lo + per, job.end);
  if (lo >= hi) return;
  static obs::Counter& chunks = obs::Registry::global().counter("pool.chunks");
  chunks.add();
  try {
    (*job.body)(lo, hi);
  } catch (...) {
    std::lock_guard lock(mutex_);
    if (!first_error_) first_error_ = std::current_exception();
  }
}

void ThreadPool::parallel_for_chunks(
    std::size_t begin, std::size_t end,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  const std::size_t threads = workers_.size() + 1;
  const std::size_t chunks = std::min<std::size_t>(threads, end - begin);
  if (chunks == 1) {
    body(begin, end);
    return;
  }
  // Fork/join submission accounting: jobs = parallel_for calls that actually
  // forked, chunks = per-thread slices executed (see run_chunk).
  static obs::Counter& jobs = obs::Registry::global().counter("pool.jobs");
  jobs.add();

  std::lock_guard submit_lock(submit_mutex_);
  {
    std::lock_guard lock(mutex_);
    job_ = Job{&body, begin, end, chunks};
    pending_.store(workers_.size());
    first_error_ = nullptr;
    generation_.fetch_add(1);
  }
  cv_start_.notify_all();
  run_chunk(job_, 0);
  const auto finished = [&] { return pending_.load() == 0; };
  spin_until(finished);
  std::unique_lock lock(mutex_);
  cv_done_.wait(lock, finished);
  if (first_error_) std::rethrow_exception(first_error_);
}

void ThreadPool::parallel_for(std::size_t begin, std::size_t end,
                              const std::function<void(std::size_t)>& body) {
  parallel_for_chunks(begin, end,
                      [&](std::size_t lo, std::size_t hi) {
                        for (std::size_t i = lo; i < hi; ++i) body(i);
                      });
}

}  // namespace citl
