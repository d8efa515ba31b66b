#include "util/thread_pool.h"

#include <algorithm>

namespace rfid {

ThreadPool::ThreadPool(int num_threads)
    : num_lanes_(std::max(1, num_threads)) {
  workers_.reserve(num_lanes_ - 1);
  for (int lane = 1; lane < num_lanes_; ++lane) {
    workers_.emplace_back([this, lane] { WorkerLoop(lane); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutdown_ = true;
  }
  work_cv_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

// Justification for the escape on this function lives on its declaration
// in thread_pool.h (job-publish protocol; mu_ handoff).
void ThreadPool::RunLane(int lane) {
  // Every lane pulls the next unclaimed index off the shared cursor until
  // the range is exhausted. fetch_add hands each index to exactly one lane,
  // so every index runs exactly once.
  for (;;) {
    const size_t i = cursor_.fetch_add(1, std::memory_order_relaxed);
    if (i >= job_n_) return;
    (*job_)(i, lane);
  }
}

void ThreadPool::WorkerLoop(int lane) {
  uint64_t seen_generation = 0;
  for (;;) {
    {
      MutexLock lock(mu_);
      while (!shutdown_ && generation_ == seen_generation) {
        work_cv_.Wait(lock);
      }
      if (shutdown_) return;
      seen_generation = generation_;
    }
    RunLane(lane);
    {
      MutexLock lock(mu_);
      if (--lanes_remaining_ == 0) done_cv_.NotifyOne();
    }
  }
}

void ThreadPool::RunJob(const std::function<void(size_t, int)>& fn,
                        size_t n) {
  {
    MutexLock lock(mu_);
    job_ = &fn;
    job_n_ = n;
    cursor_.store(0, std::memory_order_relaxed);
    lanes_remaining_ = num_lanes_ - 1;
    ++generation_;
  }
  work_cv_.NotifyAll();
  RunLane(0);  // The caller is lane 0.
  {
    MutexLock lock(mu_);
    while (lanes_remaining_ != 0) done_cv_.Wait(lock);
    job_ = nullptr;
  }
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, int)>& fn) {
  if (n == 0) return;
  if (num_lanes_ == 1 || n == 1) {
    for (size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  RunJob(fn, n);
}

}  // namespace rfid
