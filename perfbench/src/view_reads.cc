// view_reads: an in-memory Server over the 200-stock Figure-1 universe,
// published once in set-up. Two closed-loop reader clients, each a
// ServerSession on the pinned epoch, run a seeded mix of ~80% point reads
// (light class: bound-key lookups on the derived views) and ~20% scans
// (heavy class: higher-order metadata queries over the base schemas).

#include <memory>
#include <vector>

#include "fig1.h"
#include "server/server.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kReaders = 2;
constexpr size_t kPoolSize = 4096;

// What one reader measured in one phase.
struct ReaderResult {
  Samples point, scan;  // request wall, ms
  Samples by_kind[kReadKinds];
  // Traced phase only: the layer calls the request decomposes into.
  Samples parse_point_us, parse_scan_us, eval_point_us, eval_scan_us;
  uint64_t elements_scanned = 0, rows = 0, indexes_built = 0, queries = 0;
  uint64_t attempted = 0;
};

class ViewReads {
 public:
  ViewReads(const Args& args, Report* report)
      : args_(args), report_(report) {}

  void Run() {
    const size_t stocks = args_.tiny ? 20 : 200;
    report_->Info("sizes", "stocks=" + std::to_string(stocks) +
                               " days=30 discrepancy_rate=0.02 rules=6"
                               " readers=2 scan_share=0.2");
    EndToEnd e;
    e.tail_q = 0.99;
    for (int i = 0; i < kSetups; ++i) {
      // The previous set-up's teardown is not part of the next one.
      epoch_.reset();
      server_.reset();
      auto t0 = Clock::now();
      w_ = GenerateFig1(stocks, args_.seed);
      server_ = std::make_unique<idl::Server>();
      for (auto& [name, db] : Fig1Databases(w_)) {
        CheckOk(server_->RegisterDatabase(name, std::move(db)), "register " + name);
      }
      CheckOk(server_->DefineRules(Fig1Rules(/*with_dbc=*/true)), "rules");
      auto epoch = server_->PublishedEpoch();
      CheckOk(epoch.status(), "publish");
      epoch_ = *epoch;
      e.setup_s.Add(MsSince(t0) / 1000.0);
    }
    report_->Attempted();
    std::string mismatch =
        Fig1Oracle(w_).CheckViews(epoch_->universe, /*with_dbc=*/true);
    if (!mismatch.empty()) report_->Incorrect(mismatch);

    for (int r = 0; r < kReaders; ++r) {
      pools_.push_back(MakeReadPool(w_, args_.seed * 1000 + r + 1, kPoolSize,
                                    /*scans=*/true, /*with_dbc=*/true));
    }
    next_.assign(kReaders, 0);

    const double phase_s = args_.trace ? args_.seconds / 2 : args_.seconds;
    ReaderResult untraced;
    e.window_s = Phase(phase_s, /*traced=*/false, &untraced);
    e.light = untraced.point;
    e.heavy = untraced.scan;
    e.ops = untraced.point.size() + untraced.scan.size();

    report_->Line("setup_s", e.setup_s.Median(), "s", e.setup_s.size());
    report_->Timing("read_point_ms", e.light, e.tail_q);
    report_->Timing("read_scan_ms", e.heavy, 0.99);
    report_->Line("reads_per_s", e.ops / e.window_s, "1/s", e.ops);
    for (int k = 0; k < kReadKinds; ++k) {
      report_->Line(std::string("read_") + ReadKindName(k) + "_ms_p50",
                    untraced.by_kind[k].Median(), "ms",
                    untraced.by_kind[k].size());
    }

    if (!args_.trace) {
      EmitEndToEnd(e, report_);
      return;
    }
    ReaderResult traced;
    Phase(phase_s, /*traced=*/true, &traced);
    EmitLayers(untraced, traced);
  }

 private:
  // Runs every reader closed-loop for `seconds`; returns the window in s.
  double Phase(double seconds, bool traced, ReaderResult* total) {
    std::vector<ReaderResult> results(kReaders);
    auto start = Clock::now();
    auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(seconds));
    {
      ThreadGroup readers;
      for (int r = 0; r < kReaders; ++r) {
        readers.Spawn([this, r, traced, deadline, &results] {
          Reader(r, traced, deadline, &results[r]);
        });
      }
    }
    const double window_s = MsSince(start) / 1000.0;
    for (const ReaderResult& r : results) {
      report_->Attempted(r.attempted);
      total->point.Append(r.point);
      total->scan.Append(r.scan);
      for (int k = 0; k < kReadKinds; ++k) total->by_kind[k].Append(r.by_kind[k]);
      total->parse_point_us.Append(r.parse_point_us);
      total->parse_scan_us.Append(r.parse_scan_us);
      total->eval_point_us.Append(r.eval_point_us);
      total->eval_scan_us.Append(r.eval_scan_us);
      total->elements_scanned += r.elements_scanned;
      total->rows += r.rows;
      total->indexes_built += r.indexes_built;
      total->queries += r.queries;
    }
    return window_s;
  }

  void Reader(int r, bool traced, Clock::time_point deadline,
              ReaderResult* out) {
    auto session = server_->Connect();
    if (!session.ok()) {
      report_->Failed("connect: " + session.status().ToString());
      return;
    }
    const std::vector<ReadOp>& pool = pools_[r];
    size_t& next = next_[r];
    while (Clock::now() < deadline) {
      const ReadOp& op = pool[next++ % pool.size()];
      ++out->attempted;
      size_t rows = 0;
      auto t0 = Clock::now();
      if (!traced) {
        auto answer = session->Query(op.text);
        const double ms = MsSince(t0);
        if (!answer.ok()) {
          report_->Failed(op.text + ": " + answer.status().ToString());
          continue;
        }
        (op.scan ? out->scan : out->point).Add(ms);
        out->by_kind[op.kind].Add(ms);
        rows = answer->rows.size();
      } else {
        TracedRead traced_read;
        auto answer = TracedQuery(*epoch_, op.text, &traced_read);
        if (!answer.ok()) {
          report_->Failed(op.text + ": " + answer.status().ToString());
          continue;
        }
        (op.scan ? out->scan : out->point).Add(MsSince(t0));
        (op.scan ? out->parse_scan_us : out->parse_point_us)
            .Add(traced_read.parse_us);
        (op.scan ? out->eval_scan_us : out->eval_point_us)
            .Add(traced_read.evaluate_us);
        rows = answer->rows.size();
        out->elements_scanned += traced_read.stats.set_elements_scanned;
        out->indexes_built += traced_read.stats.indexes_built;
        out->rows += rows;
        ++out->queries;
      }
      if (rows != op.expected_rows) {
        report_->Incorrect(op.text + ": " + std::to_string(rows) +
                           " rows, oracle says " +
                           std::to_string(op.expected_rows));
      }
    }
  }

  void EmitLayers(const ReaderResult& untraced, const ReaderResult& traced) {
    Layers l;
    l.Set("syntax.parse_us_point", traced.parse_point_us.Median());
    l.Set("syntax.parse_us_scan", traced.parse_scan_us.Median());
    l.Set("eval.evaluate_us_point", traced.eval_point_us.Median());
    l.Set("eval.evaluate_us_scan", traced.eval_scan_us.Median());
    l.Set("eval.elements_scanned_per_row",
          traced.rows > 0 ? static_cast<double>(traced.elements_scanned) /
                                traced.rows
                          : 0);
    l.Set("eval.indexes_built_per_query",
          traced.queries > 0 ? static_cast<double>(traced.indexes_built) /
                                   traced.queries
                             : 0);
    // Mean request wall over both classes, traced against untraced.
    const double untraced_mean =
        (untraced.point.Sum() + untraced.scan.Sum()) /
        (untraced.point.size() + untraced.scan.size());
    const double traced_mean = (traced.point.Sum() + traced.scan.Sum()) /
                               (traced.point.size() + traced.scan.size());
    const double layer_mean =
        (traced.parse_point_us.Sum() + traced.parse_scan_us.Sum() +
         traced.eval_point_us.Sum() + traced.eval_scan_us.Sum()) /
        1000.0 / (traced.point.size() + traced.scan.size());
    l.Set("trace.overhead_ratio", traced_mean / untraced_mean);
    l.Set("trace.attributed_share", layer_mean / untraced_mean);
    l.Emit(report_);

    report_->Line("syntax.parse_us_point", traced.parse_point_us.Median(), "us",
                  traced.parse_point_us.size());
    report_->Line("syntax.parse_us_scan", traced.parse_scan_us.Median(), "us",
                  traced.parse_scan_us.size());
    report_->Line("eval.evaluate_us_point", traced.eval_point_us.Median(), "us",
                  traced.eval_point_us.size());
    report_->Line("eval.evaluate_us_scan", traced.eval_scan_us.Median(), "us",
                  traced.eval_scan_us.size());
    report_->Line("trace.attributed_share", layer_mean / untraced_mean, "ratio",
                  traced.queries,
                  "mean (parse + evaluate) / mean untraced read");
    report_->Line("trace.overhead_ratio", traced_mean / untraced_mean, "ratio",
                  traced.queries);
  }

  const Args& args_;
  Report* report_;
  idl::StockWorkload w_;
  std::unique_ptr<idl::Server> server_;
  idl::EpochPtr epoch_;
  std::vector<std::vector<ReadOp>> pools_;
  std::vector<size_t> next_;  // per reader: position in its pool
};

}  // namespace

void RunViewReads(const Args& args, Report* report) {
  ViewReads(args, report).Run();
}

}  // namespace perfbench
