#include "common/thread_pool.h"

namespace idl {

ThreadPool::ThreadPool(size_t num_workers) {
  workers_.reserve(num_workers);
  for (size_t i = 0; i < num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : workers_) t.join();
}

size_t ThreadPool::DefaultWorkers() {
  unsigned hc = std::thread::hardware_concurrency();
  return hc > 1 ? hc - 1 : 0;
}

void ThreadPool::RunTask(const std::function<void(size_t)>& fn,
                         size_t task) {
  try {
    fn(task);
  } catch (...) {
    std::lock_guard<std::mutex> lock(exception_mu_);
    if (!first_exception_) first_exception_ = std::current_exception();
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_batch = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] {
      return stop_ || (fn_ != nullptr && batch_seq_ != seen_batch);
    });
    if (stop_) return;
    seen_batch = batch_seq_;
    ++busy_;
    while (next_task_ < num_tasks_) {
      size_t task = next_task_++;
      const auto* fn = fn_;
      lock.unlock();
      RunTask(*fn, task);
      lock.lock();
    }
    --busy_;
    if (busy_ == 0) done_cv_.notify_all();
  }
}

void ThreadPool::ParallelFor(
    size_t num_tasks, const std::function<void(size_t)>& fn) {
  if (num_tasks == 0) return;
  if (workers_.empty() || num_tasks == 1) {
    for (size_t task = 0; task < num_tasks; ++task) RunTask(fn, task);
    RethrowPendingException();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    fn_ = &fn;
    num_tasks_ = num_tasks;
    next_task_ = 0;
    ++batch_seq_;
  }
  work_cv_.notify_all();
  // The calling thread drains tasks alongside the workers.
  std::unique_lock<std::mutex> lock(mu_);
  while (next_task_ < num_tasks_) {
    size_t task = next_task_++;
    lock.unlock();
    RunTask(fn, task);
    lock.lock();
  }
  // All tasks claimed; wait for workers still executing theirs. A worker
  // waking late finds no task to claim and never touches fn_ again.
  done_cv_.wait(lock, [&] { return busy_ == 0; });
  fn_ = nullptr;
  lock.unlock();
  RethrowPendingException();
}

void ThreadPool::RethrowPendingException() {
  std::exception_ptr e;
  {
    std::lock_guard<std::mutex> lock(exception_mu_);
    e = first_exception_;
    first_exception_ = nullptr;
  }
  if (e) std::rethrow_exception(e);
}

// ---- BoundedExecutor -------------------------------------------------------

BoundedExecutor::BoundedExecutor(size_t num_threads, size_t max_queue)
    : max_queue_(max_queue) {
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

BoundedExecutor::~BoundedExecutor() { Shutdown(/*drain=*/true); }

Status BoundedExecutor::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shutdown_) {
      return FailedPrecondition("executor is shut down");
    }
    if (queue_.size() >= max_queue_) {
      return ResourceExhausted("executor queue full");
    }
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
  return Status::Ok();
}

void BoundedExecutor::Shutdown(bool drain) {
  std::vector<std::thread> threads;
  std::deque<std::function<void()>> discarded;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!shutdown_) {
      shutdown_ = true;
      drain_ = drain;
    }
    if (!drain_) discarded.swap(queue_);
    threads.swap(threads_);
  }
  work_cv_.notify_all();
  for (auto& t : threads) t.join();
  // `discarded` tasks are destroyed here, outside the lock, without running.
}

size_t BoundedExecutor::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void BoundedExecutor::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_cv_.wait(lock, [&] { return shutdown_ || !queue_.empty(); });
    if (queue_.empty()) return;  // shutdown_ && (drained or discarded)
    if (shutdown_ && !drain_) return;
    std::function<void()> task = std::move(queue_.front());
    queue_.pop_front();
    lock.unlock();
    task();
    lock.lock();
  }
}

}  // namespace idl
