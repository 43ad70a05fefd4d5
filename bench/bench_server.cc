// The multi-session server (src/server/server.h) under load: thousands of
// mixed reader/writer sessions against one universe, pure epoch-commit
// throughput through the single-writer queue, pinned-epoch read latency,
// and admission behaviour when the queue is saturated.
//
// Latency distributions land in the server.query_ms / server.commit_ms /
// server.commit_queue_ms histograms, so the metrics sidecar every bench
// binary writes (bench_util.h) carries p50/p95/p99 next to the wall-time
// rows once scripts/bench_all.sh merges it into BENCH_<sha>.json — that
// sidecar, not the console table, is the number the acceptance gate reads.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cstddef>
#include <string>

#include "bench/bench_util.h"
#include "common/str_util.h"
#include "common/thread_pool.h"
#include "server/server.h"

namespace {

using idl::EvalOptions;
using idl::Server;
using idl::ServerOptions;
using idl::ServerSession;
using idl::StatusCode;
using idl::StrCat;
using idl::ThreadPool;

constexpr char kUnifiedRule[] =
    ".dbI.p(.date=D, .stk=S, .clsPrice=P) <- "
    ".euter.r(.date=D, .stkCode=S, .clsPrice=P)";
constexpr char kReadUnified[] = "?.dbI.p(.date=D, .stk=S, .clsPrice=P)";
constexpr char kReadBase[] = "?.euter.r(.date=D, .stkCode=S, .clsPrice=P)";

void PopulatePaper(Server* server, bool with_rule) {
  idl::PaperUniverse paper = idl::MakePaperUniverse(/*name_mappings=*/false);
  for (const auto& field : paper.universe.fields()) {
    IDL_BENCH_CHECK(
        server->RegisterDatabase(field.name, field.value).ok());
  }
  if (with_rule) IDL_BENCH_CHECK(server->DefineRule(kUnifiedRule).ok());
}

// N sessions per iteration, each a short mixed lifecycle: connect, read the
// unified view and the base relation, and (every tenth session) commit an
// insert+delete pair through the write queue — the universe returns to its
// baseline, so iterations are identical work. Sessions run on a pool wide
// enough to keep every core busy; `sessions/s` is the sustained rate.
void BM_ServerMixedSessions(benchmark::State& state) {
  Server server;
  PopulatePaper(&server, /*with_rule=*/true);
  IDL_BENCH_CHECK(server.PublishedEpoch().ok());
  const size_t num_sessions = static_cast<size_t>(state.range(0));
  ThreadPool pool(ThreadPool::DefaultWorkers());
  size_t sessions = 0;
  size_t commits = 0;
  for (auto _ : state) {
    pool.ParallelFor(num_sessions, [&](size_t task) {
      auto session = server.Connect();
      IDL_BENCH_CHECK(session.ok());
      auto unified = session->Query(kReadUnified);
      IDL_BENCH_CHECK(unified.ok());
      benchmark::DoNotOptimize(unified->rows.size());
      auto base = session->Query(kReadBase);
      IDL_BENCH_CHECK(base.ok());
      if (task % 10 == 0) {
        std::string row = StrCat("(.date=6/1/2001, .stkCode=w", task,
                                 ", .clsPrice=", 100 + task, ")");
        IDL_BENCH_CHECK(session->Update(StrCat("?.euter.r+", row)).ok());
        IDL_BENCH_CHECK(
            session->Update(StrCat("?.euter.r-(.date=6/1/2001, .stkCode=w",
                                   task, ")"))
                .ok());
      }
    });
    sessions += num_sessions;
    commits += 2 * (num_sessions + 9) / 10;
  }
  state.counters["sessions/s"] = benchmark::Counter(
      static_cast<double>(sessions), benchmark::Counter::kIsRate);
  state.counters["commits"] = static_cast<double>(commits);
}
BENCHMARK(BM_ServerMixedSessions)->Unit(benchmark::kMillisecond)
    ->Arg(100)->Arg(1000)->Arg(2000);

// Pure write path: one session streams insert/delete pairs through the
// commit queue; every commit snapshots and publishes an epoch, so
// `epochs/s` is the epoch-commit throughput of the server.
void BM_ServerCommitThroughput(benchmark::State& state) {
  Server server;
  PopulatePaper(&server, /*with_rule=*/state.range(0) != 0);
  auto session = server.Connect();
  IDL_BENCH_CHECK(session.ok());
  size_t commits = 0;
  for (auto _ : state) {
    IDL_BENCH_CHECK(
        session->Update("?.euter.r+(.date=6/1/2001, .stkCode=ww, "
                        ".clsPrice=1)")
            .ok());
    IDL_BENCH_CHECK(
        session->Update("?.euter.r-(.date=6/1/2001, .stkCode=ww)").ok());
    commits += 2;
  }
  state.counters["epochs/s"] = benchmark::Counter(
      static_cast<double>(commits), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_ServerCommitThroughput)
    ->Arg(0)->Arg(1)  // bare relation vs maintained unified view
    ->Unit(benchmark::kMicrosecond);

// Read latency at a pinned epoch — the hot path every reader session pays;
// feeds server.query_ms, whose p50/p99 the sidecar exports.
void BM_ServerPinnedRead(benchmark::State& state) {
  Server server;
  PopulatePaper(&server, /*with_rule=*/true);
  auto session = server.Connect();
  IDL_BENCH_CHECK(session.ok());
  for (auto _ : state) {
    auto answer = session->Query(kReadUnified);
    IDL_BENCH_CHECK(answer.ok());
    benchmark::DoNotOptimize(answer->rows.size());
  }
}
BENCHMARK(BM_ServerPinnedRead)->Unit(benchmark::kMicrosecond);

// Admission control at saturation: writers race a deliberately tiny queue;
// the accept/reject split shows what fraction of offered load the governor
// sheds instead of queueing unboundedly.
void BM_ServerOverloadAdmission(benchmark::State& state) {
  ServerOptions options;
  options.max_pending_commits = 2;
  Server server(options);
  PopulatePaper(&server, /*with_rule=*/false);
  IDL_BENCH_CHECK(server.PublishedEpoch().ok());
  ThreadPool pool(ThreadPool::DefaultWorkers());
  size_t accepted = 0;
  size_t rejected = 0;
  for (auto _ : state) {
    std::atomic<size_t> ok{0};
    std::atomic<size_t> shed{0};
    pool.ParallelFor(64, [&](size_t task) {
      std::string stk = StrCat("o", task);
      auto committed = server.Commit(
          StrCat("?.euter.r+(.date=6/2/2001, .stkCode=", stk,
                 ", .clsPrice=1)"));
      if (committed.ok()) {
        ++ok;
        // The cleanup delete competes for the same saturated queue: retry
        // until admitted so every iteration returns to the baseline.
        for (;;) {
          auto removed = server.Commit(StrCat(
              "?.euter.r-(.date=6/2/2001, .stkCode=", stk, ")"));
          if (removed.ok()) break;
          IDL_BENCH_CHECK(removed.status().code() ==
                          StatusCode::kResourceExhausted);
        }
      } else {
        IDL_BENCH_CHECK(committed.status().code() ==
                        StatusCode::kResourceExhausted);
        ++shed;
      }
    });
    accepted += ok.load();
    rejected += shed.load();
  }
  state.counters["accepted"] = static_cast<double>(accepted);
  state.counters["rejected"] = static_cast<double>(rejected);
}
BENCHMARK(BM_ServerOverloadAdmission)->Unit(benchmark::kMillisecond);

}  // namespace

IDL_BENCH_MAIN()
