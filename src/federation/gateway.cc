#include "federation/gateway.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "common/trace.h"
#include "relational/adapter.h"

namespace idl {

namespace {

// Pre-dispatch governor gate. A request that reaches the gateway with an
// already-exhausted governor must fail with the governor's own status
// (kDeadlineExceeded / kCancelled / kResourceExhausted) *before* any site
// RPC is issued — previously the expired remaining time was clamped to a
// 1 ms site deadline, so exhaustion surfaced as a per-site timeout and was
// mis-attributed (and retried!) as a site fault. Counted process-wide under
// federation.governor_expired; deliberately not charged to any site's
// timeout/failure counters.
Status CheckGovernorBeforeDispatch(const ResourceGovernor* governor) {
  if (governor == nullptr) return Status::Ok();
  Status st = governor->CheckDeadlineNow();
  if (!st.ok()) {
    MetricsRegistry::Global()
        .counter("federation.governor_expired")
        ->Increment();
  }
  return st;
}

// Issues one logical request with bounded retries and jittered exponential
// backoff (BackoffSchedule). kUnavailable and kDeadlineExceeded are
// retriable; every other error — including the governor's kCancelled and
// kResourceExhausted — is permanent for the request. `governor`, if
// non-null, is checked before every attempt and before every backoff sleep,
// so a cancelled request stops retrying immediately instead of sleeping out
// its schedule. Counters: one `requests` per logical request, one `retries`
// per re-attempt, one `timeouts` per kDeadlineExceeded response, one
// `failures` when the request ultimately fails.
template <typename T>
Result<T> WithRetry(const Gateway::Options& options, SiteStats* stats,
                    const ResourceGovernor* governor,
                    const std::function<Result<T>()>& attempt) {
  static Counter* requests =
      MetricsRegistry::Global().counter("federation.requests");
  static Counter* retries =
      MetricsRegistry::Global().counter("federation.retries");
  static Counter* timeouts =
      MetricsRegistry::Global().counter("federation.timeouts");
  static Counter* failures =
      MetricsRegistry::Global().counter("federation.failures");
  requests->Increment();
  ++stats->requests;
  const std::vector<int> schedule = BackoffSchedule(options);
  for (int tries = 0;; ++tries) {
    if (governor != nullptr) {
      Status st = governor->Checkpoint();
      if (!st.ok()) {
        ++stats->failures;
        failures->Increment();
        return st;
      }
    }
    Result<T> r = attempt();
    if (r.ok()) return r;
    const StatusCode code = r.status().code();
    if (code == StatusCode::kDeadlineExceeded) {
      ++stats->timeouts;
      timeouts->Increment();
    }
    const bool retriable = code == StatusCode::kUnavailable ||
                           code == StatusCode::kDeadlineExceeded;
    if (!retriable || tries >= options.max_retries) {
      ++stats->failures;
      failures->Increment();
      return r;
    }
    ++stats->retries;
    retries->Increment();
    const int sleep_ms =
        tries < static_cast<int>(schedule.size()) ? schedule[tries] : 0;
    if (sleep_ms > 0) {
      if (governor != nullptr) {
        Status st = governor->Checkpoint();
        if (!st.ok()) {
          ++stats->failures;
          failures->Increment();
          return st;
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
  }
}

}  // namespace

std::vector<int> BackoffSchedule(const Gateway::Options& options) {
  std::vector<int> schedule;
  if (options.max_retries <= 0 || options.backoff_ms <= 0) {
    schedule.assign(std::max(options.max_retries, 0), 0);
    return schedule;
  }
  Rng rng(options.backoff_seed);
  schedule.reserve(options.max_retries);
  int64_t base = options.backoff_ms;
  for (int i = 0; i < options.max_retries; ++i) {
    int64_t bounded = base;
    if (options.backoff_cap_ms > 0) {
      bounded = std::min<int64_t>(bounded, options.backoff_cap_ms);
    }
    // Equal jitter: uniform in [bounded/2, bounded] — decorrelates retry
    // storms while keeping every sleep within the configured bound.
    int64_t jittered =
        bounded / 2 + static_cast<int64_t>(rng.Below(
                          static_cast<uint64_t>(bounded - bounded / 2 + 1)));
    schedule.push_back(static_cast<int>(jittered));
    if (base <= (1 << 30)) base *= 2;
  }
  return schedule;
}

Gateway::Gateway() : Gateway(Options()) {}

Gateway::Gateway(Options options)
    : options_(options), pool_(options.fetch_workers) {}

// ---------------------------------------------------------------------------
// Site registry

Status Gateway::AddSite(std::shared_ptr<Site> site) {
  if (site == nullptr || site->name().empty()) {
    return InvalidArgument("a site must be non-null and named");
  }
  std::lock_guard<std::mutex> lock(sites_mu_);
  const std::string& name = site->name();
  if (sites_.contains(name)) {
    return AlreadyExists(StrCat("site '", name, "' is already registered"));
  }
  sites_.emplace(name, std::make_shared<SiteState>(std::move(site)));
  return Status::Ok();
}

Status Gateway::RemoveSite(const std::string& name) {
  std::lock_guard<std::mutex> lock(sites_mu_);
  if (sites_.erase(name) == 0) {
    return NotFound(StrCat("no site '", name, "' is registered"));
  }
  return Status::Ok();
}

bool Gateway::HasSite(const std::string& name) const {
  std::lock_guard<std::mutex> lock(sites_mu_);
  return sites_.contains(name);
}

std::set<std::string> Gateway::SiteNames() const {
  std::lock_guard<std::mutex> lock(sites_mu_);
  std::set<std::string> names;
  for (const auto& [name, st] : sites_) names.insert(name);
  return names;
}

Site* Gateway::FindSite(const std::string& name) {
  std::lock_guard<std::mutex> lock(sites_mu_);
  auto it = sites_.find(name);
  return it == sites_.end() ? nullptr : it->second->site.get();
}

// ---------------------------------------------------------------------------
// Fetch

RequestContext Gateway::MakeContext(const ResourceGovernor* governor) const {
  RequestContext ctx{options_.deadline_ms};
  if (governor != nullptr) {
    int64_t remaining = governor->RemainingMs();
    if (remaining >= 0) {
      // Governor time left bounds the site request. An exhausted governor
      // never reaches this derivation: every dispatch path runs
      // CheckGovernorBeforeDispatch first, so the floor of 1 ms only
      // rounds up a sub-millisecond (but live) remainder.
      int bounded = static_cast<int>(std::max<int64_t>(remaining, 1));
      ctx.deadline_ms =
          ctx.deadline_ms == 0 ? bounded : std::min(ctx.deadline_ms, bounded);
    }
  }
  return ctx;
}

Status Gateway::ValidateGenerationLocked(SiteState& st,
                                         const RequestContext& ctx,
                                         const ResourceGovernor* governor) {
  IDL_ASSIGN_OR_RETURN(
      uint64_t generation,
      WithRetry<uint64_t>(options_, &st.stats, governor,
                          [&] { return st.site->Generation(ctx); }));
  if (generation != st.cached_generation) {
    st.export_cache.reset();
    st.select_cache.clear();
    st.cached_generation = generation;
  }
  return Status::Ok();
}

Result<Value> Gateway::PullExportLocked(SiteState& st,
                                        const RequestContext& ctx,
                                        const ResourceGovernor* governor) {
  if (st.export_cache.has_value()) {
    ++st.stats.cache_hits;
    return *st.export_cache;
  }
  ++st.stats.cache_misses;
  ++st.stats.pulled_exports;
  IDL_ASSIGN_OR_RETURN(Value facts,
                       WithRetry<Value>(options_, &st.stats, governor,
                                        [&] { return st.site->Export(ctx); }));
  st.export_cache = facts;
  return facts;
}

Result<Value> Gateway::FetchSite(SiteState& st, const ShipPlan& plan,
                                 const ResourceGovernor* governor,
                                 uint64_t parent_span) {
  TraceSpan span("site.fetch", StrCat("site=", st.site->name()), parent_span);
  IDL_RETURN_IF_ERROR(CheckGovernorBeforeDispatch(governor));
  std::lock_guard<std::mutex> lock(st.mu);
  RequestContext ctx = MakeContext(governor);
  IDL_RETURN_IF_ERROR(ValidateGenerationLocked(st, ctx, governor));
  const std::string& name = st.site->name();
  if (plan.pull_all || plan.pull_sites.contains(name)) {
    return PullExportLocked(st, ctx, governor);
  }

  // Ship path: the site's contribution is a database tuple holding just the
  // shipped relations (a touch-only site contributes an empty tuple, which
  // is all a `?.site` presence test needs).
  Value db = Value::EmptyTuple();
  static const std::vector<FoAtom::Arg> kUnrestricted;
  for (const auto& shipment : plan.shipments) {
    if (shipment.site != name) continue;
    // An unrestricted referencing conjunct subsumes every other selection.
    const bool whole_relation =
        std::any_of(shipment.selects.begin(), shipment.selects.end(),
                    [](const std::vector<FoAtom::Arg>& r) {
                      return r.empty();
                    });
    std::vector<const std::vector<FoAtom::Arg>*> selects;
    if (whole_relation) {
      selects.push_back(&kUnrestricted);
    } else {
      for (const auto& r : shipment.selects) selects.push_back(&r);
    }

    Value relation = Value::EmptySet();
    bool absent = false;
    std::set<std::string> keys_done;
    for (const auto* restrictions : selects) {
      SelectRequest request;
      request.relation = shipment.relation;
      request.restrictions = *restrictions;
      const std::string key = request.CacheKey();
      if (!keys_done.insert(key).second) continue;  // duplicate conjunct

      CachedSelect entry;
      auto it = st.select_cache.find(key);
      if (it != st.select_cache.end()) {
        ++st.stats.cache_hits;
        entry = it->second;
      } else {
        ++st.stats.cache_misses;
        ++st.stats.shipped_subgoals;
        Result<ResultSet> rows = WithRetry<ResultSet>(
            options_, &st.stats, governor,
            [&] { return st.site->Select(request, ctx); });
        if (!rows.ok()) {
          if (rows.status().code() == StatusCode::kNotFound) {
            entry.absent = true;
          } else if (rows.status().code() == StatusCode::kTypeError) {
            // The site's facts are not relational (nested objects, say):
            // shipping cannot represent them, the full export can.
            return PullExportLocked(st, ctx, governor);
          } else {
            return rows.status().WithContext(
                StrCat("shipping ", shipment.relation, " from site '", name,
                       "'"));
          }
        } else {
          entry.relation = LiftRows(rows->schema, rows->rows);
        }
        st.select_cache[key] = entry;
      }

      if (entry.absent) {
        absent = true;
        break;
      }
      for (const auto& element : entry.relation.elements()) {
        relation.Insert(element);
      }
    }
    // A missing relation stays missing in the assembled universe (the
    // matcher must see "attribute absent", not "empty set").
    if (!absent) db.SetField(shipment.relation, std::move(relation));
  }
  return db;
}

Result<Gateway::FederatedFetch> Gateway::Fetch(
    const ShipPlan& plan, const ResourceGovernor* governor) {
  std::vector<std::shared_ptr<SiteState>> involved;
  {
    std::lock_guard<std::mutex> lock(sites_mu_);
    for (const auto& [name, st] : sites_) {
      if (plan.pull_all || plan.NeedsSite(name)) involved.push_back(st);
    }
  }

  TraceSpan span("federation.fetch",
                 StrCat("sites=", involved.size(),
                        plan.pull_all ? " pull_all" : ""));
  static Histogram* fetch_ms =
      MetricsRegistry::Global().histogram("federation.site_fetch_ms");
  const uint64_t parent_span = Trace::CurrentSpan();
  std::vector<Result<Value>> fetched(involved.size(),
                                     Result<Value>(Internal("not fetched")));
  pool_.ParallelFor(involved.size(), [&](size_t task) {
    auto start = std::chrono::steady_clock::now();
    fetched[task] = FetchSite(*involved[task], plan, governor, parent_span);
    fetch_ms->Observe(
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count());
  });

  FederatedFetch out;
  for (size_t i = 0; i < involved.size(); ++i) {
    SiteState& st = *involved[i];
    const std::string& name = st.site->name();
    std::lock_guard<std::mutex> lock(st.mu);
    if (fetched[i].ok()) {
      st.stats.degraded = false;
      out.site_databases[name] = std::move(fetched[i]).value();
      out.generations[name] = st.cached_generation;
      continue;
    }
    if (options_.degrade == DegradePolicy::kFail) {
      return fetched[i].status().WithContext(
          StrCat("fetching site '", name, "'"));
    }
    st.stats.degraded = true;
    out.degraded.push_back(name);
  }
  return out;
}

Result<Gateway::FederatedFetch> Gateway::FetchAll(
    const ResourceGovernor* governor) {
  ShipPlan plan;
  plan.pull_all = true;
  return Fetch(plan, governor);
}

// ---------------------------------------------------------------------------
// Write-back

Status Gateway::WriteSite(const std::string& name, const Value& facts,
                          const ResourceGovernor* governor) {
  std::shared_ptr<SiteState> st;
  {
    std::lock_guard<std::mutex> lock(sites_mu_);
    auto it = sites_.find(name);
    if (it == sites_.end()) {
      return NotFound(StrCat("no site '", name, "' is registered"));
    }
    st = it->second;
  }
  TraceSpan span("site.write", StrCat("site=", name));
  IDL_RETURN_IF_ERROR(CheckGovernorBeforeDispatch(governor));
  std::lock_guard<std::mutex> lock(st->mu);
  RequestContext ctx = MakeContext(governor);
  Result<bool> r =
      WithRetry<bool>(options_, &st->stats, governor, [&]() -> Result<bool> {
        Status s = st->site->Write(facts, ctx);
        if (!s.ok()) return s;
        return true;
      });
  if (!r.ok()) {
    return r.status().WithContext(StrCat("writing back site '", name, "'"));
  }
  // The site's data changed: drop the cache and restart the hit/miss
  // counters, so the reported rate is "since the last write" (it reads 0
  // on the first post-update query, by design).
  st->export_cache.reset();
  st->select_cache.clear();
  st->cached_generation = 0;
  st->stats.cache_hits = 0;
  st->stats.cache_misses = 0;
  st->stats.degraded = false;
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// MSQL broadcast

Result<MultiQueryResult> Gateway::Broadcast(const FoQuery& query,
                                            const ResourceGovernor* governor) {
  std::vector<std::shared_ptr<SiteState>> involved;
  {
    std::lock_guard<std::mutex> lock(sites_mu_);
    for (const auto& [name, st] : sites_) involved.push_back(st);
  }

  TraceSpan span("federation.broadcast", StrCat("sites=", involved.size()));
  const uint64_t parent_span = Trace::CurrentSpan();
  std::vector<Result<ResultSet>> answers(
      involved.size(), Result<ResultSet>(Internal("not fetched")));
  pool_.ParallelFor(involved.size(), [&](size_t task) {
    SiteState& st = *involved[task];
    TraceSpan site_span("site.execute", StrCat("site=", st.site->name()),
                        parent_span);
    if (Status gate = CheckGovernorBeforeDispatch(governor); !gate.ok()) {
      answers[task] = gate;
      return;
    }
    std::lock_guard<std::mutex> lock(st.mu);
    RequestContext ctx = MakeContext(governor);
    ++st.stats.shipped_subgoals;
    answers[task] = WithRetry<ResultSet>(
        options_, &st.stats, governor,
        [&] { return st.site->Execute(query, ctx); });
  });

  // Merge in registration (name) order so answers are deterministic.
  MultiQueryResult out;
  for (size_t i = 0; i < involved.size(); ++i) {
    const std::string& name = involved[i]->site->name();
    if (!answers[i].ok()) {
      // MSQL semantics: a member that cannot answer is skipped.
      out.skipped.push_back(name);
      continue;
    }
    IDL_RETURN_IF_ERROR(AppendBroadcastRows(name, *answers[i], &out));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Introspection

std::vector<SiteStats> Gateway::Stats() const {
  std::vector<std::shared_ptr<SiteState>> states;
  {
    std::lock_guard<std::mutex> lock(sites_mu_);
    for (const auto& [name, st] : sites_) states.push_back(st);
  }
  std::vector<SiteStats> out;
  for (const auto& st : states) {
    std::lock_guard<std::mutex> lock(st->mu);
    SiteStats stats = st->stats;
    stats.site = st->site->name();
    out.push_back(std::move(stats));
  }
  return out;
}

std::string Gateway::Explain() const { return FormatSiteStats(Stats()); }

void Gateway::ResetStats() {
  std::vector<std::shared_ptr<SiteState>> states;
  {
    std::lock_guard<std::mutex> lock(sites_mu_);
    for (const auto& [name, st] : sites_) states.push_back(st);
  }
  for (const auto& st : states) {
    std::lock_guard<std::mutex> lock(st->mu);
    st->stats = SiteStats();
  }
}

}  // namespace idl
