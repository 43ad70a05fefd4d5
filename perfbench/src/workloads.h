// The three workloads and the metric sets they report.
//
// Every workload has a light and a heavy request class, and reports the
// same end-to-end metrics (untraced run) and the same per-layer metrics
// (traced run); README.md maps them to the names of each workload.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "eval/explain.h"
#include "eval/query.h"
#include "report.h"
#include "server/server.h"
#include "stats.h"

namespace perfbench {

// Set-ups per run; setup_s is their median.
inline constexpr int kSetups = 5;

// What the untraced run measured.
struct EndToEnd {
  Samples setup_s;
  Samples light;     // light request class, ms
  Samples heavy;     // heavy request class, ms
  double tail_q = 0.9;  // the light class's fixed tail percentile
  uint64_t ops = 0;     // light and heavy requests completed
  double window_s = 0;  // measured wall time
};
void EmitEndToEnd(const EndToEnd& e, Report* report);

// The per-layer metrics of the traced run. Every name is always emitted; a
// layer that does no work on a workload reads 0.
class Layers {
 public:
  Layers();
  void Set(const std::string& name, double value);
  void Emit(Report* report) const;

 private:
  std::map<std::string, double> values_;
};

// Set-up steps must succeed: a failure ends the run without a result.
void CheckOk(const idl::Status& status, const std::string& what);

// Client threads of one measured phase, joined when the group goes out of
// scope, on exception paths too.
class ThreadGroup {
 public:
  ThreadGroup() = default;
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;
  ~ThreadGroup() {
    for (std::thread& t : threads_) t.join();
  }

  template <typename F>
  void Spawn(F f) {
    threads_.emplace_back(std::move(f));
  }

 private:
  std::vector<std::thread> threads_;
};

// A reader request decomposed into the layers ServerSession::Query calls:
// ParseQuery, then EvaluateQuery over the epoch's universe and columnar
// pages. Each call is timed from outside.
struct TracedRead {
  double parse_us = 0;
  double evaluate_us = 0;
  idl::EvalStats stats;
};
idl::Result<idl::Answer> TracedQuery(const idl::Epoch& epoch,
                                     const std::string& text, TracedRead* out);

void RunFig1Build(const Args& args, Report* report);
void RunViewReads(const Args& args, Report* report);
void RunCommitMix(const Args& args, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
