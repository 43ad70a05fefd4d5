#include "fig1.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "relational/adapter.h"
#include "workload/paper_universe.h"

namespace perfbench {

using idl::Value;

idl::StockWorkload GenerateFig1(size_t stocks, uint64_t seed) {
  idl::StockWorkloadConfig config;
  config.num_stocks = stocks;
  config.num_days = kDays;
  config.seed = seed;
  config.discrepancy_rate = kDiscrepancyRate;
  return idl::GenerateStockWorkload(config);
}

std::vector<std::pair<std::string, Value>> Fig1Databases(
    const idl::StockWorkload& w) {
  std::vector<std::pair<std::string, Value>> dbs;
  dbs.emplace_back("euter", idl::LiftDatabase(idl::BuildEuterDatabase(w)));
  dbs.emplace_back("chwab", idl::LiftDatabase(idl::BuildChwabDatabase(w)));
  dbs.emplace_back("ource", idl::LiftDatabase(idl::BuildOurceDatabase(w)));
  return dbs;
}

std::vector<std::string> Fig1Rules(bool with_dbc) {
  std::vector<std::string> rules;
  for (std::string& rule : idl::PaperViewRules()) {
    if (!with_dbc && rule.rfind(".dbC.", 0) == 0) continue;
    rules.push_back(std::move(rule));
  }
  return rules;
}

// ---- Oracle ----------------------------------------------------------------

size_t Fig1Oracle::Prices(size_t s, size_t d) const {
  return std::isnan(w_->chwab_override[s][d]) ? 1 : 2;
}

size_t Fig1Oracle::UnifiedRows() const {
  size_t n = 0;
  for (size_t s = 0; s < w_->stocks.size(); ++s) n += StockRows(s);
  return n;
}

size_t Fig1Oracle::ChwabViewRows() const {
  // Per date, §6's absorb folds every stock's first price into one tuple;
  // each contradicting second price extends a second tuple.
  size_t n = 0;
  for (size_t d = 0; d < w_->dates.size(); ++d) {
    size_t most = 0;
    for (size_t s = 0; s < w_->stocks.size(); ++s) {
      most = std::max(most, Prices(s, d));
    }
    n += most;
  }
  return n;
}

size_t Fig1Oracle::StockRows(size_t s) const {
  size_t n = 0;
  for (size_t d = 0; d < w_->dates.size(); ++d) n += Prices(s, d);
  return n;
}

size_t Fig1Oracle::DateRows(size_t d) const {
  size_t n = 0;
  for (size_t s = 0; s < w_->stocks.size(); ++s) n += Prices(s, d);
  return n;
}

size_t Fig1Oracle::AgreeingStocks(size_t d) const {
  size_t n = 0;
  for (size_t s = 0; s < w_->stocks.size(); ++s) n += Prices(s, d) == 1;
  return n;
}

size_t Fig1Oracle::StocksAbove(double x, bool chwab) const {
  size_t n = 0;
  for (size_t s = 0; s < w_->stocks.size(); ++s) {
    for (size_t d = 0; d < w_->dates.size(); ++d) {
      double p = chwab ? w_->ChwabPrice(s, d) : w_->price[s][d];
      if (p > x) {
        ++n;
        break;
      }
    }
  }
  return n;
}

namespace {

const Value* Relation(const Value& universe, const char* db, const char* rel) {
  const Value* d = universe.FindField(db);
  if (d == nullptr || !d->is_tuple()) return nullptr;
  const Value* r = d->FindField(rel);
  return r != nullptr && r->is_set() ? r : nullptr;
}

std::string Mismatch(const char* what, size_t got, size_t want) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%s has %zu rows, oracle says %zu", what,
                got, want);
  return buf;
}

}  // namespace

std::string Fig1Oracle::CheckViews(const Value& universe, bool with_dbc,
                                   size_t extra_unified) const {
  const size_t unified = UnifiedRows() + extra_unified;
  for (auto [db, rel] : {std::pair{"dbI", "p"}, std::pair{"dbE", "r"}}) {
    const Value* r = Relation(universe, db, rel);
    if (r == nullptr) return std::string(db) + " view missing";
    if (r->SetSize() != unified) return Mismatch(db, r->SetSize(), unified);
  }
  if (with_dbc) {
    const Value* r = Relation(universe, "dbC", "r");
    if (r == nullptr) return "dbC view missing";
    if (r->SetSize() != ChwabViewRows()) {
      return Mismatch("dbC.r", r->SetSize(), ChwabViewRows());
    }
  }
  const Value* dbo = universe.FindField("dbO");
  if (dbo == nullptr || !dbo->is_tuple()) return "dbO view missing";
  if (dbo->TupleSize() != w_->stocks.size()) {
    return Mismatch("dbO (relations)", dbo->TupleSize(), w_->stocks.size());
  }
  size_t rows = 0;
  for (const auto& field : dbo->fields()) rows += field.value.SetSize();
  if (rows != unified) return Mismatch("dbO", rows, unified);
  return "";
}

// ---- Read pool -------------------------------------------------------------

namespace {

// Shuffles `block` in place with the seeded generator.
template <typename T>
void Shuffle(std::vector<T>* block, idl::Rng* rng) {
  for (size_t i = block->size(); i > 1; --i) {
    std::swap((*block)[i - 1], (*block)[rng->Below(i)]);
  }
}

}  // namespace

const char* ReadKindName(int kind) {
  static const char* const kNames[kReadKinds] = {
      "dbI_point",       "dbE_date",       "dbO_point",
      "dbC_point",       "chwab_attr_scan", "ource_rel_scan",
      "stkCode_meta_scan", "discrepancy_join"};
  return kind >= 0 && kind < kReadKinds ? kNames[kind] : "?";
}

std::vector<ReadOp> MakeReadPool(const idl::StockWorkload& w, uint64_t seed,
                                 size_t size, bool scans, bool with_dbc) {
  Fig1Oracle oracle(w);
  idl::Rng rng(seed);
  // Request kinds come in shuffled blocks with exact proportions, so every
  // seed runs the same mix: each point kind 4 times, each scan kind once.
  struct Kind {
    bool scan;
    int kind;
  };
  std::vector<Kind> block;
  for (int k = 0; k < (with_dbc ? 4 : 3); ++k) {
    for (int i = 0; i < 4; ++i) block.push_back({false, k});
  }
  if (scans) {
    for (int k = 0; k < 4; ++k) block.push_back({true, k});
  }
  std::vector<ReadOp> pool;
  pool.reserve(size);
  char buf[256];
  for (size_t i = 0; i < size; ++i) {
    if (i % block.size() == 0) Shuffle(&block, &rng);
    const Kind kind = block[i % block.size()];
    ReadOp op;
    const size_t s = rng.Below(w.stocks.size());
    const size_t d = rng.Below(w.dates.size());
    const std::string& stk = w.stocks[s];
    const std::string date = w.dates[d].ToString();
    op.scan = kind.scan;
    op.kind = (kind.scan ? 4 : 0) + kind.kind;
    if (op.scan) {
      const int x = static_cast<int>(rng.Range(10, 400));
      switch (kind.kind) {
        case 0:
          std::snprintf(buf, sizeof(buf), "?.chwab.r(.S>%d)", x);
          op.expected_rows = oracle.StocksAbove(x, /*chwab=*/true);
          break;
        case 1:
          std::snprintf(buf, sizeof(buf), "?.ource.S(.clsPrice>%d)", x);
          op.expected_rows = oracle.StocksAbove(x, /*chwab=*/false);
          break;
        case 2:
          // Databases and relations with a stkCode attribute: euter.r and
          // the dbE.r view.
          std::snprintf(buf, sizeof(buf), "?.X.Y(.stkCode)");
          op.expected_rows = 2;
          break;
        default:
          // Stocks whose chwab price agrees with ource's on one date.
          std::snprintf(buf, sizeof(buf),
                        "?.chwab.r(.date=%s, .S=P), "
                        ".ource.S(.date=%s, .clsPrice=P)",
                        date.c_str(), date.c_str());
          op.expected_rows = oracle.AgreeingStocks(d);
          break;
      }
    } else {
      switch (kind.kind) {
        case 0:
          std::snprintf(buf, sizeof(buf),
                        "?.dbI.p(.stk=%s, .date=%s, .clsPrice=P)",
                        stk.c_str(), date.c_str());
          op.expected_rows = oracle.Prices(s, d);
          break;
        case 1:
          std::snprintf(buf, sizeof(buf),
                        "?.dbE.r(.date=%s, .stkCode=S, .clsPrice=P)",
                        date.c_str());
          op.expected_rows = oracle.DateRows(d);
          break;
        case 2:
          std::snprintf(buf, sizeof(buf), "?.dbO.%s(.date=%s, .clsPrice=P)",
                        stk.c_str(), date.c_str());
          op.expected_rows = oracle.Prices(s, d);
          break;
        default:
          std::snprintf(buf, sizeof(buf), "?.dbC.r(.date=%s, .%s=P)",
                        date.c_str(), stk.c_str());
          op.expected_rows = oracle.Prices(s, d);
          break;
      }
    }
    op.text = buf;
    pool.push_back(std::move(op));
  }
  return pool;
}

// ---- Commit stream ---------------------------------------------------------

const char* CommitStream::KindName(Kind k) {
  switch (k) {
    case kEuterInsert:
      return "euter_insert";
    case kOurceInsert:
      return "ource_insert";
    case kViewInsert:
      return "view_insert";
    case kDelete:
      return "delete";
  }
  return "?";
}

CommitStream::CommitStream(const idl::StockWorkload& w, uint64_t seed)
    : w_(&w), rng_(seed) {
  order_.resize(w.stocks.size());
  for (size_t i = 0; i < order_.size(); ++i) order_[i] = i;
  Shuffle(&order_, &rng_);
  // Kinds come in shuffled blocks of 20 with exact proportions.
  block_.insert(block_.end(), 12, kEuterInsert);
  block_.insert(block_.end(), 3, kOurceInsert);
  block_.insert(block_.end(), 3, kViewInsert);
  block_.insert(block_.end(), 2, kDelete);
}

CommitStream::Op CommitStream::Next() {
  if (issued_ % block_.size() == 0) Shuffle(&block_, &rng_);
  Op op;
  op.kind = block_[issued_++ % block_.size()];
  if (op.kind == kDelete && euter_.empty()) op.kind = kEuterInsert;

  char buf[256];
  const int64_t first_new_day = w_->dates.front().DayNumber() + kDays;
  if (op.kind == kDelete) {
    auto it = euter_.begin();
    std::advance(it, rng_.Below(euter_.size()));
    const auto [day, s] = it->first;
    euter_.erase(it);
    std::snprintf(buf, sizeof(buf), "?.euter.r-(.date=%s, .stkCode=%s)",
                  idl::Date::FromDayNumber(day).ToString().c_str(),
                  w_->stocks[s].c_str());
    op.text = buf;
    return op;
  }
  const size_t s = order_[slots_ % order_.size()];
  const int64_t day = first_new_day + slots_ / order_.size();
  ++slots_;
  const int64_t cents = rng_.Range(1000, 40000);
  const std::string date = idl::Date::FromDayNumber(day).ToString();
  const std::string& stk = w_->stocks[s];
  const double price = cents / 100.0;
  switch (op.kind) {
    case kEuterInsert:
      std::snprintf(buf, sizeof(buf),
                    "?.euter.r+(.date=%s, .stkCode=%s, .clsPrice=%.2f)",
                    date.c_str(), stk.c_str(), price);
      euter_[{day, s}] = cents;
      break;
    case kOurceInsert:
      std::snprintf(buf, sizeof(buf), "?.ource.%s+(.date=%s, .clsPrice=%.2f)",
                    stk.c_str(), date.c_str(), price);
      ource_[{day, s}] = cents;
      break;
    default:
      // §7.2: through the dbE.r+ view-update program into insStk, which
      // inserts into euter and ource (chwab has no tuple for a new date).
      std::snprintf(buf, sizeof(buf),
                    "?.dbE.r+(.date=%s, .stkCode=%s, .clsPrice=%.2f)",
                    date.c_str(), stk.c_str(), price);
      euter_[{day, s}] = cents;
      ource_[{day, s}] = cents;
      break;
  }
  op.text = buf;
  return op;
}

size_t CommitStream::NewUnifiedRows() const {
  size_t n = ource_.size();
  for (const auto& [key, cents] : euter_) n += ource_.count(key) == 0;
  return n;
}

}  // namespace perfbench
