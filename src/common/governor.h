// ResourceGovernor: admission control for one governed request.
//
// IDL's higher-order rules quantify over relation and attribute names, and
// data-dependent views synthesize rule sets at runtime, so an interoperation
// program can diverge: a fixpoint that derives a fresh fact (or a fresh
// relation) every pass never converges. The governor is the shared,
// thread-safe context that makes every long-running layer *interruptible*
// and *bounded*:
//
//   * a wall-clock deadline (kDeadlineExceeded when it passes),
//   * a cooperative cancellation token settable from any thread
//     (kCancelled at the next checkpoint),
//   * a fixpoint pass budget and a derivation-step budget
//     (kResourceExhausted when exceeded),
//   * a memory budget tracked via universe cell/fact accounting
//     (kResourceExhausted when exceeded).
//
// Layers poll it cooperatively: the view engine per fixpoint pass, per rule
// batch and per derivation, the query evaluator per enumeration step, the
// update applier and program executor per conjunct, and the federation
// gateway per site attempt (which also derives its per-site RequestContext
// deadline from the governor's remaining time). Checkpoints are two relaxed
// atomic ops on the fast path; the wall clock is consulted every
// kTimeCheckStride-th checkpoint, so a governed run with no limits costs
// effectively nothing (bench_governor pins the overhead at < 2% on the
// 1000-stock recursive closure).
//
// Strong exception safety is the *caller's* half of the contract: every
// evaluation stage writes into scratch state (the materializer derives into
// a copy of the base universe; session updates are snapshot-guarded) and
// publishes only on success, so a cancelled or budget-killed request leaves
// the session universe bit-identical to its pre-request state. The
// interrupt-injection suite (tests/governor_interrupt_test.cc) verifies
// this by structural-hash comparison while cancelling at every checkpoint.

#ifndef IDL_COMMON_GOVERNOR_H_
#define IDL_COMMON_GOVERNOR_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"

namespace idl {

// Budgets for one governed request. 0 always means "unbounded".
struct GovernorLimits {
  // Wall-clock deadline for the whole request, in milliseconds.
  int deadline_ms = 0;
  // Fixpoint passes across all strata of one materialization.
  int max_passes = 0;
  // Body substitutions processed (facts derived) by materializations.
  uint64_t max_derivations = 0;
  // Universe size budget: object-model cells (atoms, tuples, sets — see
  // CountCells in object/value.h), counting the base universe plus every
  // cell-creating change a materialization makes.
  uint64_t max_universe_cells = 0;
  // Interrupt-injection seam for tests: the governor behaves as cancelled
  // from its Nth checkpoint on. Never set in production paths.
  uint64_t cancel_at_checkpoint = 0;

  bool Unlimited() const {
    return deadline_ms == 0 && max_passes == 0 && max_derivations == 0 &&
           max_universe_cells == 0 && cancel_at_checkpoint == 0;
  }
};

// A cancellation token. Copies share one flag, so a handle held by another
// thread cancels the request that is evaluating under it. Cancel() is safe
// to call from any thread at any time; the evaluation notices at its next
// checkpoint and unwinds with kCancelled.
class CancelHandle {
 public:
  CancelHandle() : flag_(std::make_shared<std::atomic<bool>>(false)) {}

  void Cancel() { flag_->store(true, std::memory_order_relaxed); }
  // Re-arms the handle for the next request.
  void Reset() { flag_->store(false, std::memory_order_relaxed); }
  bool cancelled() const { return flag_->load(std::memory_order_relaxed); }

 private:
  friend class ResourceGovernor;
  std::shared_ptr<std::atomic<bool>> flag_;
};

// A snapshot of what a governed request has consumed.
struct GovernorUsage {
  uint64_t checkpoints = 0;   // cooperative polls answered
  int passes = 0;             // fixpoint passes charged
  uint64_t derivations = 0;   // derivation steps charged
  uint64_t peak_cells = 0;    // high-water universe cell account
  int64_t remaining_ms = -1;  // deadline headroom at snapshot; -1 = unbounded
  std::string abort_reason;   // empty until a limit fires; then the status
};

class ResourceGovernor {
 public:
  // Unbounded governor with its own (never-cancelled) token.
  ResourceGovernor() : ResourceGovernor(GovernorLimits()) {}

  // `parent`, when non-null, chains governors: this governor also fails its
  // checkpoints once the parent is cancelled or past its deadline (budget
  // counters stay local). The session uses this so a materialization
  // triggered inside a query still honours the query's deadline and cancel
  // token. The parent must outlive this governor.
  explicit ResourceGovernor(const GovernorLimits& limits,
                            CancelHandle cancel = CancelHandle(),
                            const ResourceGovernor* parent = nullptr);

  ResourceGovernor(const ResourceGovernor&) = delete;
  ResourceGovernor& operator=(const ResourceGovernor&) = delete;

  // The cooperative poll. OK, or the abort status: kCancelled,
  // kDeadlineExceeded, or (from the Charge* methods' budgets) whatever
  // already fired — once a governor has aborted, every later checkpoint
  // returns the same status, so one missed return cannot resurrect a
  // request. Thread-safe; called concurrently from the gateway's site
  // workers and from threads that cancel.
  Status Checkpoint() const;

  // Budget charges. Each implies a checkpoint and returns the abort status
  // when the corresponding budget (or any earlier limit) is exceeded.
  Status ChargePass() const;
  Status ChargeDerivations(uint64_t n) const;
  Status ChargeCells(uint64_t n) const;

  // A checkpoint that always consults the wall clock (Checkpoint() only
  // does so every kTimeCheckStride-th poll, so a governor can be past its
  // deadline without having noticed yet). The federation gateway calls this
  // before dispatching a site RPC so an exhausted request fails fast with
  // kDeadlineExceeded instead of surfacing as a per-site timeout.
  Status CheckDeadlineNow() const;

  // Remaining wall-clock headroom in ms (>= 0), or -1 when unbounded. The
  // federation gateway derives per-site RequestContext deadlines from this.
  int64_t RemainingMs() const;

  bool cancelled() const;
  const GovernorLimits& limits() const { return limits_; }
  GovernorUsage Usage() const;

 private:
  // Classifies the current state; returns OK or the abort status. The
  // first abort is recorded so every later checkpoint repeats it.
  Status CheckNow(bool check_time) const;

  const GovernorLimits limits_;
  const CancelHandle cancel_;
  const ResourceGovernor* const parent_;
  const std::chrono::steady_clock::time_point start_;
  const std::chrono::steady_clock::time_point deadline_;  // start_ if none

  mutable std::atomic<uint64_t> checkpoints_{0};
  mutable std::atomic<int> passes_{0};
  mutable std::atomic<uint64_t> derivations_{0};
  mutable std::atomic<uint64_t> cells_{0};
  // 0 = running; otherwise the StatusCode of the first abort.
  mutable std::atomic<int> abort_code_{0};
};

// Renders the governor section of Explain(): one line of the form
//   governor: passes=U/L derivations=U/L cells=U/L checkpoints=N
//   remaining_ms=R status=S
// where unbounded budgets (and an unset deadline) render their bound as "-"
// and S is "completed" or the abort status. The format is locked by
// tests/explain_format_test.cc.
std::string FormatGovernorUsage(const GovernorUsage& usage,
                                const GovernorLimits& limits);

}  // namespace idl

#endif  // IDL_COMMON_GOVERNOR_H_
