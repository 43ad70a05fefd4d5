// Unit tests for the batch-parallel worker pool behind the federation
// gateway's site fan-out and the server's concurrent readers
// (common/thread_pool.h).

#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace idl {
namespace {

TEST(ThreadPool, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_workers(), 3u);
  std::vector<std::atomic<int>> hits(100);
  pool.ParallelFor(hits.size(), [&](size_t task) { ++hits[task]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ZeroWorkersRunsInline) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  int sum = 0;
  pool.ParallelFor(10, [&](size_t task) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    sum += static_cast<int>(task);
  });
  EXPECT_EQ(sum, 45);
}

TEST(ThreadPool, ReusableAcrossBatches) {
  ThreadPool pool(2);
  std::atomic<int> total{0};
  for (int batch = 0; batch < 50; ++batch) {
    pool.ParallelFor(7, [&](size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 350);
}

TEST(ThreadPool, EmptyBatchIsNoOp) {
  ThreadPool pool(2);
  pool.ParallelFor(0, [&](size_t) { FAIL(); });
}

// ---------------------------------------------------------------------------
// Exception propagation

TEST(ThreadPool, FirstExceptionRethrownOnCaller) {
  ThreadPool pool(3);
  std::atomic<int> ran{0};
  try {
    pool.ParallelFor(64, [&](size_t task) {
      ++ran;
      if (task == 17) throw std::runtime_error("task 17 exploded");
    });
    FAIL() << "expected the task's exception to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 17 exploded");
  }
  // The batch runs to completion even with a throwing task: no task is
  // skipped and no worker dies.
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, OnlyFirstOfManyExceptionsSurfaces) {
  ThreadPool pool(4);
  std::atomic<int> thrown{0};
  try {
    pool.ParallelFor(100, [&](size_t) {
      int id = ++thrown;
      throw std::runtime_error(std::string("boom ") + std::to_string(id));
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    // Exactly one of the hundred escapes; which one depends on scheduling.
    EXPECT_EQ(std::string(e.what()).rfind("boom ", 0), 0u);
  }
  EXPECT_EQ(thrown.load(), 100);
}

TEST(ThreadPool, PoolRemainsUsableAfterThrow) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.ParallelFor(
                   8, [&](size_t) { throw std::logic_error("bad"); }),
               std::logic_error);
  // The pending exception must not leak into the next (clean) batch.
  std::atomic<int> total{0};
  for (int batch = 0; batch < 10; ++batch) {
    pool.ParallelFor(5, [&](size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 50);
}

TEST(ThreadPool, InlinePoolPropagatesExceptionsToo) {
  ThreadPool pool(0);
  std::atomic<int> ran{0};
  EXPECT_THROW(pool.ParallelFor(4,
                                [&](size_t task) {
                                  ++ran;
                                  if (task == 1) {
                                    throw std::runtime_error("inline");
                                  }
                                }),
               std::runtime_error);
  EXPECT_EQ(ran.load(), 4);
}

// ---------------------------------------------------------------------------
// Shutdown under load

TEST(ThreadPool, DestructionWaitsForRunningBatch) {
  // Destroying the pool immediately after a batch returns must join cleanly
  // even when tasks were slow — ParallelFor blocks until every task is done,
  // so nothing can still be touching freed state. TSan guards this.
  std::atomic<int> completed{0};
  {
    ThreadPool pool(4);
    pool.ParallelFor(32, [&](size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++completed;
    });
  }  // ~ThreadPool joins the workers here.
  EXPECT_EQ(completed.load(), 32);
}

TEST(ThreadPool, RapidCreateDestroyCycles) {
  // Shutdown races (a worker still parked in WorkerLoop while the destructor
  // flips stop_) show up under repeated churn; keep the batches tiny so the
  // destructor often runs while workers are between states.
  std::atomic<int> total{0};
  for (int cycle = 0; cycle < 50; ++cycle) {
    ThreadPool pool(3);
    pool.ParallelFor(4, [&](size_t) { ++total; });
  }
  EXPECT_EQ(total.load(), 200);
}

TEST(ThreadPool, DestructionAfterThrowingBatch) {
  // A batch whose tasks threw must leave the pool in a joinable state.
  auto pool = std::make_unique<ThreadPool>(3);
  EXPECT_THROW(pool->ParallelFor(
                   16, [&](size_t) { throw std::runtime_error("x"); }),
               std::runtime_error);
  pool.reset();  // must not hang or crash
}

// ---------------------------------------------------------------------------
// BoundedExecutor: the submit-side executor behind the server's commit
// queue. Submit never blocks — a full queue is an explicit
// kResourceExhausted, which is the server's admission-control signal.

TEST(BoundedExecutor, RunsSubmittedTasks) {
  BoundedExecutor executor(2, 16);
  std::atomic<int> ran{0};
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(executor.Submit([&] { ++ran; }).ok());
  }
  executor.Shutdown();  // drains
  EXPECT_EQ(ran.load(), 10);
}

TEST(BoundedExecutor, SingleWorkerPreservesSubmissionOrder) {
  // The server relies on this: a one-worker executor is a serializing
  // commit queue, so epochs publish in submission order.
  BoundedExecutor executor(1, 64);
  std::vector<int> order;
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(executor.Submit([&order, i] { order.push_back(i); }).ok());
  }
  executor.Shutdown();
  ASSERT_EQ(order.size(), 32u);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(order[i], i);
}

TEST(BoundedExecutor, FullQueueRejectsWithResourceExhausted) {
  // One worker parked on a gate; the queue behind it has room for exactly
  // two tasks, so the fourth submit must be rejected, not blocked.
  BoundedExecutor executor(1, 2);
  std::promise<void> gate;
  std::shared_future<void> opened(gate.get_future());
  ASSERT_TRUE(executor.Submit([opened] { opened.wait(); }).ok());
  // The worker may not have dequeued the gate task yet; poll until the
  // queue has drained it and then fill the two slots.
  while (executor.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(executor.Submit([] {}).ok());
  ASSERT_TRUE(executor.Submit([] {}).ok());
  Status rejected = executor.Submit([] { FAIL() << "must never run"; });
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  gate.set_value();
  executor.Shutdown();
}

TEST(BoundedExecutor, SubmitAfterShutdownFailsPrecondition) {
  BoundedExecutor executor(1, 4);
  executor.Shutdown();
  Status st = executor.Submit([] {});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(BoundedExecutor, ShutdownUnderBacklogDrainsEveryTask) {
  // Regression: shutdown while the queue is full must run every admitted
  // task exactly once before returning — a commit accepted into the queue
  // is never silently dropped by a draining shutdown.
  BoundedExecutor executor(1, 64);
  std::promise<void> gate;
  std::shared_future<void> opened(gate.get_future());
  std::atomic<int> ran{0};
  ASSERT_TRUE(executor.Submit([opened, &ran] {
    opened.wait();
    ++ran;
  }).ok());
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(executor.Submit([&ran] { ++ran; }).ok());
  }
  std::thread release([&gate] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    gate.set_value();
  });
  executor.Shutdown(/*drain=*/true);
  release.join();
  EXPECT_EQ(ran.load(), 41);
  // Idempotent: a second shutdown (even with a different drain policy) is a
  // no-op.
  executor.Shutdown(/*drain=*/false);
}

TEST(BoundedExecutor, AbandoningShutdownDiscardsQueuedTasks) {
  BoundedExecutor executor(1, 64);
  std::promise<void> gate;
  std::shared_future<void> opened(gate.get_future());
  std::atomic<int> ran{0};
  ASSERT_TRUE(executor.Submit([opened, &ran] {
    opened.wait();
    ++ran;
  }).ok());
  while (executor.queue_depth() != 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(executor.Submit([&ran] { ++ran; }).ok());
  }
  gate.set_value();
  executor.Shutdown(/*drain=*/false);
  // The in-flight task finishes (shutdown joins), but the eight queued
  // tasks may be discarded; none can run after Shutdown returns.
  int after = ran.load();
  EXPECT_GE(after, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(ran.load(), after);
}

TEST(BoundedExecutor, DestructorDrains) {
  std::atomic<int> ran{0};
  {
    BoundedExecutor executor(2, 32);
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(executor.Submit([&ran] { ++ran; }).ok());
    }
  }  // ~BoundedExecutor == Shutdown(drain=true)
  EXPECT_EQ(ran.load(), 20);
}

}  // namespace
}  // namespace idl
