// The Figure-1 universe every workload runs on, its answer oracle, and the
// seeded request generators (read mix, commit stream).
//
// All inputs come from GenerateStockWorkload: one price history stored
// under the three discrepant schemas (euter: stocks as values, chwab:
// stocks as attributes, ource: stocks as relations), with 2% of chwab's
// (stock, day) cells carrying a different price. The oracle derives every
// expected answer from the generator's arrays, never from the engine.

#ifndef PERFBENCH_FIG1_H_
#define PERFBENCH_FIG1_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "object/value.h"
#include "workload/stock_gen.h"

namespace perfbench {

inline constexpr size_t kDays = 30;
inline constexpr double kDiscrepancyRate = 0.02;

idl::StockWorkload GenerateFig1(size_t stocks, uint64_t seed);

// The base databases as (name, object) pairs, in registration order.
std::vector<std::pair<std::string, idl::Value>> Fig1Databases(
    const idl::StockWorkload& w);

// PaperViewRules(), optionally without the dbC rule (its higher-order
// attribute head sends every insertion to delete-and-rederive).
std::vector<std::string> Fig1Rules(bool with_dbc);

// Expected answers, from the generator alone.
class Fig1Oracle {
 public:
  explicit Fig1Oracle(const idl::StockWorkload& w) : w_(&w) {}

  // Distinct closing prices of stock s on day d across the three schemas:
  // 2 where chwab disagrees, else 1.
  size_t Prices(size_t s, size_t d) const;
  size_t UnifiedRows() const;        // dbI.p, dbE.r
  size_t ChwabViewRows() const;      // dbC.r: one tuple per price per date
  size_t StockRows(size_t s) const;  // dbO.<s>
  size_t DateRows(size_t d) const;   // dbE.r restricted to one date
  size_t AgreeingStocks(size_t d) const;
  size_t StocksAbove(double x, bool chwab) const;

  // Compares the derived views of a materialized universe with the
  // expected counts; `extra_unified` is added to dbI.p/dbE.r/dbO (rows
  // inserted since the base). Returns "" when they match, else a message.
  std::string CheckViews(const idl::Value& universe, bool with_dbc,
                         size_t extra_unified = 0) const;

 private:
  const idl::StockWorkload* w_;
};

// One read request and the row count its answer must have.
struct ReadOp {
  std::string text;
  size_t expected_rows = 0;
  bool scan = false;
  int kind = 0;  // index into ReadKindName
};

// Read kinds: 0-3 point reads, 4-7 scans.
inline constexpr int kReadKinds = 8;
const char* ReadKindName(int kind);

// A seeded pool of reads over the base keys (days 0..29), which no commit
// of the commit stream touches, so expected answers hold at every epoch.
// Point reads are bound-key lookups on the derived views; scans are
// higher-order metadata queries over the base schemas. With `scans`, one
// request in five is a scan.
std::vector<ReadOp> MakeReadPool(const idl::StockWorkload& w, uint64_t seed,
                                 size_t size, bool scans, bool with_dbc);

// The commit_mix writer's request stream: ~60% euter quotes, ~15% ource
// quotes, ~15% dbE view inserts (run through the insStk program), ~10%
// deletes of quotes the stream inserted into euter earlier. Every quote
// lies on a day after the base history, so base answers never change.
class CommitStream {
 public:
  enum Kind { kEuterInsert = 0, kOurceInsert, kViewInsert, kDelete };
  static constexpr int kKinds = 4;
  static const char* KindName(Kind k);

  struct Op {
    std::string text;
    Kind kind = kEuterInsert;
  };

  CommitStream(const idl::StockWorkload& w, uint64_t seed);
  Op Next();

  // dbI.p rows the stream has added so far (distinct (date, stock) keys
  // present in euter or ource).
  size_t NewUnifiedRows() const;

 private:
  const idl::StockWorkload* w_;
  idl::Rng rng_;
  std::vector<size_t> order_;  // seeded stock permutation
  std::vector<Kind> block_;    // the kind mix, reshuffled every block
  uint64_t issued_ = 0;
  uint64_t slots_ = 0;         // (stock, new day) keys handed out
  // (day, stock) -> price in cents, per base schema.
  std::map<std::pair<int64_t, size_t>, int64_t> euter_, ource_;
};

}  // namespace perfbench

#endif  // PERFBENCH_FIG1_H_
