// commit_mix: a durable Server (WAL fsync on, checkpoint every 64 records:
// the defaults) over the 100-stock Figure-1 universe with dbI x3 + dbE +
// dbO and the paper's update programs. One closed-loop writer commits the
// seeded CommitStream — inserts are the light class, deletes the heavy
// one — while two closed-loop readers Refresh() and run point reads.
//
// The run ends by recovering the WAL directory: the recovered universe
// must equal the last acknowledged epoch's byte for byte.
//
// The traced run first does the same, then replays the identical request
// prefix through the public layer calls in the server's commit order
// (Server::Commit's phases are private): Session::Update ->
// Session::universe() -> Wal::Append -> Session::SnapshotUniverse ->
// ColumnarStore::Build, with the snapshot checkpoint every 64th record.

#include <atomic>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <unistd.h>
#include <vector>

#include "common/metrics.h"
#include "durability/snapshot.h"
#include "durability/wal.h"
#include "fig1.h"
#include "idl/session.h"
#include "object/value_io.h"
#include "relational/columnar.h"
#include "server/server.h"
#include "workload/paper_universe.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr int kReaders = 2;
constexpr size_t kPoolSize = 4096;
// The server's default checkpoint interval, which the replay mirrors.
const size_t kCheckpointEvery = idl::DurabilityOptions().checkpoint_every;

bool IsInsert(CommitStream::Kind k) { return k != CommitStream::kDelete; }

struct ReaderResult {
  Samples point_ms;
  // Traced run only: Refresh and the read's layer calls.
  Samples refresh_us, parse_us, evaluate_us;
  uint64_t elements_scanned = 0, rows = 0, indexes_built = 0;
  uint64_t attempted = 0;
};

// One replayed commit's layer calls, ms.
struct Replayed {
  CommitStream::Kind kind;
  double apply = 0, maintain = 0, wal = 0, snapshot = 0, columnar = 0;
  double Total() const { return apply + maintain + wal + snapshot + columnar; }
};

class CommitMix {
 public:
  CommitMix(const Args& args, Report* report)
      : args_(args), report_(report) {}

  ~CommitMix() {
    server_.reset();
    std::error_code ec;
    fs::remove_all(root_, ec);
  }

  void Run() {
    stocks_ = args_.tiny ? 10 : 100;
    report_->Info("sizes", "stocks=" + std::to_string(stocks_) +
                               " days=30 discrepancy_rate=0.02 rules=5"
                               " programs=13 writers=1 readers=2"
                               " wal_fsync=1 checkpoint_every=64");
    root_ = fs::absolute(fs::path(args_.scratch_dir) /
                         ("commit_mix-" + std::to_string(getpid())));
    fs::remove_all(root_);
    fs::create_directories(root_);

    EndToEnd e;
    e.tail_q = 0.9;
    for (int i = 0; i < kSetups; ++i) {
      // The previous set-up's teardown is not part of the next one.
      last_epoch_.reset();
      server_.reset();
      std::error_code ec;
      if (!dir_.empty()) fs::remove_all(dir_, ec);
      auto t0 = Clock::now();
      Setup(root_ / ("server" + std::to_string(i)));
      e.setup_s.Add(MsSince(t0) / 1000.0);
    }
    w_ = GenerateFig1(stocks_, args_.seed);

    Measure(&e);
    Recover();

    report_->Line("setup_s", e.setup_s.Median(), "s", e.setup_s.size());
    report_->Timing("commit_insert_ms", e.light, e.tail_q);
    report_->Timing("commit_delete_ms", e.heavy, 0.5);
    for (int k = 0; k < CommitStream::kDelete; ++k) {
      report_->Line(std::string("commit_") +
                        CommitStream::KindName(CommitStream::Kind(k)) +
                        "_ms_p50",
                    by_kind_[k].Median(), "ms", by_kind_[k].size());
    }
    report_->Line("commits_per_s", commits_ / e.window_s, "1/s", commits_);
    report_->Timing("read_point_ms", reads_.point_ms, 0.99);
    report_->Line("reads_per_s", reads_.point_ms.size() / e.window_s, "1/s",
                  reads_.point_ms.size());

    if (!args_.trace) {
      EmitEndToEnd(e, report_);
      return;
    }
    Replay(e);
  }

 private:
  idl::ServerOptions Options(const fs::path& dir) const {
    idl::ServerOptions options;
    options.durability.dir = dir.string();
    return options;
  }

  // Generate, register, define rules and programs, first publish.
  void Setup(const fs::path& dir) {
    dir_ = dir;
    fs::create_directories(dir_);
    idl::StockWorkload w = GenerateFig1(stocks_, args_.seed);
    auto server = idl::Server::Create(Options(dir_));
    CheckOk(server.status(), "create server");
    server_ = std::move(*server);
    for (auto& [name, db] : Fig1Databases(w)) {
      CheckOk(server_->RegisterDatabase(name, std::move(db)), "register " + name);
    }
    CheckOk(server_->DefineRules(Fig1Rules(/*with_dbc=*/false)), "rules");
    for (const std::string& p : idl::PaperUpdatePrograms()) {
      CheckOk(server_->DefineProgram(p), "program " + p);
    }
    auto epoch = server_->PublishedEpoch();
    CheckOk(epoch.status(), "publish");
    last_epoch_ = *epoch;
  }

  void Measure(EndToEnd* e) {
    report_->Attempted();
    std::string mismatch =
        Fig1Oracle(w_).CheckViews(last_epoch_->universe, /*with_dbc=*/false);
    if (!mismatch.empty()) report_->Incorrect("initial epoch: " + mismatch);

    idl::MetricsRegistry::Global().Reset();
    std::vector<ReaderResult> readers(kReaders);
    std::vector<std::vector<ReadOp>> pools;
    for (int r = 0; r < kReaders; ++r) {
      pools.push_back(MakeReadPool(w_, args_.seed * 1000 + r + 1, kPoolSize,
                                   /*scans=*/false, /*with_dbc=*/false));
    }
    std::atomic<bool> stop{false};
    CommitStream stream(w_, args_.seed);
    auto start = Clock::now();
    {
      ThreadGroup group;
      for (int r = 0; r < kReaders; ++r) {
        group.Spawn([this, &pools, r, &stop, &readers] {
          Reader(pools[r], stop, &readers[r]);
        });
      }
      try {
        Write(&stream, start, e);
      } catch (...) {
        stop = true;
        throw;
      }
      stop = true;
    }
    e->window_s = MsSince(start) / 1000.0;
    for (const ReaderResult& r : readers) {
      report_->Attempted(r.attempted);
      reads_.point_ms.Append(r.point_ms);
      reads_.refresh_us.Append(r.refresh_us);
      reads_.parse_us.Append(r.parse_us);
      reads_.evaluate_us.Append(r.evaluate_us);
      reads_.elements_scanned += r.elements_scanned;
      reads_.indexes_built += r.indexes_built;
      reads_.rows += r.rows;
    }
    e->ops = commits_;
    queue_wait_p50_ = idl::MetricsRegistry::Global()
                          .histogram("server.commit_queue_ms")
                          ->Percentile(0.5);

    report_->Attempted();
    mismatch = Fig1Oracle(w_).CheckViews(last_epoch_->universe, false,
                                         stream.NewUnifiedRows());
    if (!mismatch.empty()) report_->Incorrect("last epoch: " + mismatch);
  }

  // The closed-loop writer: commits the stream until the phase ends.
  void Write(CommitStream* stream, Clock::time_point start, EndToEnd* e) {
    // The traced run spends half its time here and half replaying.
    const double seconds = args_.trace ? args_.seconds / 2 : args_.seconds;
    while (MsSince(start) < seconds * 1000.0) {
      CommitStream::Op op = stream->Next();
      report_->Attempted();
      auto t0 = Clock::now();
      auto committed = server_->Commit(op.text);
      const double ms = MsSince(t0);
      if (!committed.ok()) {
        report_->Failed(op.text + ": " + committed.status().ToString());
        continue;
      }
      ++commits_;
      ops_.push_back(op.kind);
      by_kind_[op.kind].Add(ms);
      (IsInsert(op.kind) ? e->light : e->heavy).Add(ms);
      last_epoch_ = committed->epoch;
      const idl::UpdateCounts& c = committed->counts;
      if ((IsInsert(op.kind) ? c.set_inserts : c.set_deletes) == 0) {
        report_->Incorrect(op.text + ": committed without changing the base");
      }
    }
  }

  void Reader(const std::vector<ReadOp>& pool, const std::atomic<bool>& stop,
              ReaderResult* out) {
    auto session = server_->Connect();
    if (!session.ok()) {
      report_->Failed("connect: " + session.status().ToString());
      return;
    }
    for (size_t next = 0; !stop; ++next) {
      const ReadOp& op = pool[next % pool.size()];
      ++out->attempted;
      auto t0 = Clock::now();
      idl::Status refreshed = session->Refresh();
      auto t1 = Clock::now();
      if (!refreshed.ok()) {
        report_->Failed("refresh: " + refreshed.ToString());
        continue;
      }
      TracedRead traced;
      auto answer = args_.trace ? TracedQuery(*session->epoch(), op.text, &traced)
                                : session->Query(op.text);
      const double ms = MsSince(t1);
      if (!answer.ok()) {
        report_->Failed(op.text + ": " + answer.status().ToString());
        continue;
      }
      out->point_ms.Add(ms);
      if (args_.trace) {
        out->refresh_us.Add(MsBetween(t0, t1) * 1000.0);
        out->parse_us.Add(traced.parse_us);
        out->evaluate_us.Add(traced.evaluate_us);
        out->elements_scanned += traced.stats.set_elements_scanned;
        out->indexes_built += traced.stats.indexes_built;
        out->rows += answer->rows.size();
      }
      if (answer->rows.size() != op.expected_rows) {
        report_->Incorrect(op.text + ": " +
                           std::to_string(answer->rows.size()) +
                           " rows, oracle says " +
                           std::to_string(op.expected_rows));
      }
    }
  }

  // Recovers the WAL directory. The base databases (what the log persists)
  // must print byte for byte as in the last acknowledged epoch, and the
  // whole universe, views included, must be equal as a value. Views are
  // rematerialized on recovery, so their sets may list elements in another
  // order than the incrementally maintained epoch; the report says whether
  // they did.
  void Recover() {
    report_->Attempted();
    const idl::Value expected = last_epoch_->universe;
    server_.reset();  // drains and closes the log
    auto recovered = idl::Server::Recover(Options(dir_), &recovery_);
    if (!recovered.ok()) {
      report_->Incorrect("recover: " + recovered.status().ToString());
      return;
    }
    auto epoch = (*recovered)->PublishedEpoch();
    if (!epoch.ok()) {
      report_->Incorrect("recover: " + epoch.status().ToString());
      return;
    }
    const idl::Value& got = (*epoch)->universe;
    for (const char* db : {"euter", "chwab", "ource"}) {
      const idl::Value* a = expected.FindField(db);
      const idl::Value* b = got.FindField(db);
      if (a == nullptr || b == nullptr || idl::ToString(*a) != idl::ToString(*b)) {
        report_->Incorrect(std::string("recovered ") + db +
                           " differs from the last epoch");
      }
    }
    if (!(got == expected)) {
      report_->Incorrect("recovered universe differs from the last epoch");
    }
    report_->Line("durability.recover_ms", recovery_.wall_ms, "ms", 1,
                  "replayed_records=" +
                      std::to_string(recovery_.replayed_records) +
                      " views_print_identically=" +
                      (idl::ToString(got) == idl::ToString(expected) ? "yes"
                                                                     : "no"));
  }

  void Replay(const EndToEnd& e) {
    const fs::path dir = root_ / "replay";
    fs::create_directories(dir);
    idl::WalOptions wal_options;  // fsync on, as the server's default
    auto wal_or = idl::Wal::Create((dir / "wal.log").string(), 1, wal_options);
    CheckOk(wal_or.status(), "wal");
    std::unique_ptr<idl::Wal> wal = std::move(*wal_or);

    // The server's set-up, record for record.
    idl::Session session;
    size_t records = 0;
    for (auto& [name, db] : Fig1Databases(w_)) {
      std::string literal = idl::ToString(db);
      CheckOk(session.RegisterDatabase(name, std::move(db)), "register");
      CheckOk(wal->Append(idl::WalRecordType::kRegisterDatabase, name, literal, 0),
            "wal");
      ++records;
    }
    for (const std::string& rule : Fig1Rules(/*with_dbc=*/false)) {
      CheckOk(session.DefineRule(rule), "rule");
      CheckOk(wal->Append(idl::WalRecordType::kDefineRule, "", rule, 0), "wal");
      ++records;
    }
    for (const std::string& p : idl::PaperUpdatePrograms()) {
      CheckOk(session.DefineProgram(p), "program");
      CheckOk(wal->Append(idl::WalRecordType::kDefineProgram, "", p, 0), "wal");
      ++records;
    }
    uint64_t next_epoch = 1;
    auto first = session.SnapshotUniverse();
    CheckOk(first.status(), "snapshot");
    auto universe = std::make_unique<idl::Value>(std::move(*first));
    auto store = idl::ColumnarStore::Build(*universe, nullptr);
    ++next_epoch;

    idl::Counter* wal_bytes = idl::MetricsRegistry::Global().counter("wal.bytes");
    idl::Counter* dred = idl::MetricsRegistry::Global().counter(
        "engine.deltas.delete_and_rederive");
    idl::Counter* propagated = idl::MetricsRegistry::Global().counter(
        "engine.deltas.insert_propagated");
    const uint64_t dred0 = dred->value(), propagated0 = propagated->value();

    std::vector<Replayed> replayed;
    Samples checkpoint_ms, cells, shared_ratio, bytes, rederived;
    CommitStream stream(w_, args_.seed);
    for (size_t i = 0; i < ops_.size(); ++i) {
      CommitStream::Op op = stream.Next();
      if (op.kind != ops_[i]) throw std::logic_error("replay diverged");
      report_->Attempted();
      Replayed r{op.kind};
      const uint64_t rederived0 =
          session.last_materialization() != nullptr
              ? session.last_materialization()->maintenance.rederived
              : 0;
      auto t0 = Clock::now();
      auto applied = session.Update(op.text);
      auto t1 = Clock::now();
      auto merged = session.universe();
      auto t2 = Clock::now();
      const uint64_t bytes0 = wal_bytes->value();
      idl::Status appended =
          wal->Append(idl::WalRecordType::kCommit, "", op.text, next_epoch);
      auto t3 = Clock::now();
      auto snap = session.SnapshotUniverse();
      auto t4 = Clock::now();
      if (!applied.ok() || !merged.ok() || !appended.ok() || !snap.ok()) {
        report_->Failed("replay " + op.text);
        continue;
      }
      auto next_universe = std::make_unique<idl::Value>(std::move(*snap));
      auto next_store = idl::ColumnarStore::Build(*next_universe, store.get());
      auto t5 = Clock::now();
      r.apply = MsBetween(t0, t1);
      r.maintain = MsBetween(t1, t2);
      r.wal = MsBetween(t2, t3);
      r.snapshot = MsBetween(t3, t4);
      r.columnar = MsBetween(t4, t5);
      replayed.push_back(r);
      bytes.Add(static_cast<double>(wal_bytes->value() - bytes0));
      if (session.last_materialization() != nullptr) {
        rederived.Add(static_cast<double>(
            session.last_materialization()->maintenance.rederived - rederived0));
      }
      cells.Add(static_cast<double>(idl::CountCells(*next_universe)));
      shared_ratio.Add(next_store->pages() == 0
                           ? 0
                           : static_cast<double>(next_store->shared_with_previous()) /
                                 next_store->pages());
      universe = std::move(next_universe);
      store = std::move(next_store);
      ++next_epoch;

      if (++records >= kCheckpointEvery) {
        auto c0 = Clock::now();
        idl::SnapshotData data;
        data.last_lsn = wal->last_lsn();
        data.next_epoch_id = next_epoch;
        for (const std::string& name : session.database_names()) {
          const idl::Value* db = session.base_universe().FindField(name);
          if (db != nullptr) data.databases.emplace_back(name, idl::ToString(*db));
        }
        data.rules = session.rule_texts();
        data.programs = session.program_texts();
        CheckOk(idl::WriteSnapshot(dir.string(), data, wal_options), "checkpoint");
        CheckOk(wal->Reset(), "wal reset");
        checkpoint_ms.Add(MsSince(c0));
        records = 0;
      }
    }

    // Per-kind medians of the replayed layers.
    auto median_of = [&](auto pred, double Replayed::*field) {
      Samples s;
      for (const Replayed& r : replayed) {
        if (pred(r.kind)) s.Add(r.*field);
      }
      return s.Median();
    };
    auto inserts = [](CommitStream::Kind k) { return IsInsert(k); };
    auto deletes = [](CommitStream::Kind k) { return !IsInsert(k); };
    auto base_inserts = [](CommitStream::Kind k) {
      return k == CommitStream::kEuterInsert || k == CommitStream::kOurceInsert;
    };
    auto view_inserts = [](CommitStream::Kind k) {
      return k == CommitStream::kViewInsert;
    };
    auto any = [](CommitStream::Kind) { return true; };
    auto layer_sum = [&](auto pred) {
      return median_of(pred, &Replayed::apply) +
             median_of(pred, &Replayed::maintain) +
             median_of(pred, &Replayed::wal) +
             median_of(pred, &Replayed::snapshot) +
             median_of(pred, &Replayed::columnar);
    };

    // The replay ran the same requests the untraced run committed.
    double traced_total = checkpoint_ms.Sum();
    for (const Replayed& r : replayed) traced_total += r.Total();
    const double untraced_total = e.light.Sum() + e.heavy.Sum();
    const uint64_t dred_n = dred->value() - dred0;
    const uint64_t propagated_n = propagated->value() - propagated0;

    Layers l;
    l.Set("syntax.parse_us_point", reads_.parse_us.Median());
    l.Set("eval.evaluate_us_point", reads_.evaluate_us.Median());
    l.Set("eval.elements_scanned_per_row",
          reads_.rows > 0
              ? static_cast<double>(reads_.elements_scanned) / reads_.rows
              : 0);
    l.Set("eval.indexes_built_per_query",
          reads_.parse_us.empty() ? 0
                                  : static_cast<double>(reads_.indexes_built) /
                                        reads_.parse_us.size());
    l.Set("views.maintain_ms_insert", median_of(inserts, &Replayed::maintain));
    l.Set("views.maintain_ms_delete", median_of(deletes, &Replayed::maintain));
    l.Set("views.rederived_per_commit", rederived.Mean());
    l.Set("views.dred_share",
          dred_n + propagated_n > 0
              ? static_cast<double>(dred_n) / (dred_n + propagated_n)
              : 0);
    l.Set("update.apply_ms_insert", median_of(base_inserts, &Replayed::apply));
    l.Set("update.apply_ms_delete", median_of(deletes, &Replayed::apply));
    l.Set("programs.apply_ms_view_update",
          median_of(view_inserts, &Replayed::apply));
    l.Set("object.snapshot_ms", median_of(any, &Replayed::snapshot));
    l.Set("object.snapshot_cells", cells.Median());
    l.Set("relational.columnar_build_ms", median_of(any, &Replayed::columnar));
    l.Set("relational.pages_shared_ratio", shared_ratio.Median());
    l.Set("durability.wal_append_ms", median_of(any, &Replayed::wal));
    l.Set("durability.wal_bytes_per_commit", bytes.Mean());
    l.Set("durability.checkpoint_ms", checkpoint_ms.Median());
    l.Set("durability.recover_ms", recovery_.wall_ms);
    l.Set("durability.replayed_records",
          static_cast<double>(recovery_.replayed_records));
    l.Set("server.queue_wait_ms_p50", queue_wait_p50_);
    l.Set("server.refresh_us", reads_.refresh_us.Median());
    l.Set("server.commit_unattributed_ms_insert",
          e.light.Median() - layer_sum(inserts));
    l.Set("server.commit_unattributed_ms_delete",
          e.heavy.Median() - layer_sum(deletes));
    if (const idl::Materialized* m = session.last_materialization()) {
      l.Set("common.build_cpu_per_wall", m->wall_ms > 0 ? m->cpu_ms / m->wall_ms : 0);
      l.Set("common.parallel_tasks", static_cast<double>(m->parallel_tasks));
    }
    const double attributed = traced_total / untraced_total;
    l.Set("trace.overhead_ratio", traced_total / untraced_total);
    l.Set("trace.attributed_share", attributed);
    l.Emit(report_);

    auto describe = [&](const char* label, auto pred) {
      report_->Info(
          std::string("replayed ") + label + " medians (ms)",
          "apply=" + std::to_string(median_of(pred, &Replayed::apply)) +
              " maintain=" + std::to_string(median_of(pred, &Replayed::maintain)) +
              " wal=" + std::to_string(median_of(pred, &Replayed::wal)) +
              " snapshot=" + std::to_string(median_of(pred, &Replayed::snapshot)) +
              " columnar=" + std::to_string(median_of(pred, &Replayed::columnar)));
    };
    describe("insert", inserts);
    describe("delete", deletes);
    const size_t n = replayed.size();
    report_->Line("durability.checkpoint_ms", checkpoint_ms.Median(), "ms",
                  checkpoint_ms.size());
    report_->Line("trace.attributed_share", attributed, "ratio", n,
                  "replayed layer time / untraced Commit time, same requests");
  }

  const Args& args_;
  Report* report_;
  size_t stocks_ = 0;
  idl::StockWorkload w_;
  fs::path root_, dir_;
  std::unique_ptr<idl::Server> server_;
  idl::EpochPtr last_epoch_;
  uint64_t commits_ = 0;
  std::vector<CommitStream::Kind> ops_;  // committed request kinds, in order
  Samples by_kind_[CommitStream::kKinds];
  ReaderResult reads_;
  double queue_wait_p50_ = 0;
  idl::RecoveryReport recovery_;
};

}  // namespace

void RunCommitMix(const Args& args, Report* report) {
  CommitMix(args, report).Run();
}

}  // namespace perfbench
