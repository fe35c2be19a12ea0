#ifndef MAYBMS_BASE_QUERY_CONTEXT_H_
#define MAYBMS_BASE_QUERY_CONTEXT_H_

// Resource governance for a single statement: a deadline, a cooperative
// cancellation flag, and atomic world/memory budget counters, polled from
// every long-running loop in the system.
//
// Design rules (they are what keep results deterministic):
//
//  1. TLS plumbing, not parameter plumbing. The statement driver
//     (isql::Session, server::Server) installs the context with a
//     QueryContextScope; every loop polls through GovernPoll(), which
//     reads the thread-local pointer. ThreadPool::ParallelFor propagates
//     the submitting thread's context to its workers for the duration of
//     the task, so chunk-boundary polls see it on every thread. No
//     engine interface changes, and concurrent snapshot readers each
//     carry their own context.
//
//  2. Budgets are charged deterministically, checked wherever charged.
//     ChargeWorlds/ChargeBytes totals are a function of the statement
//     and the data — never of the thread count or schedule — so whether
//     a statement exceeds its budget is thread-count invariant. Which
//     poll OBSERVES the verdict first may vary; the error Status (code
//     and message) is fixed the moment the verdict is set, so the
//     surfaced error is identical at every thread count.
//
//  3. Error messages name the limit, never an iteration index. A
//     deadline error says "statement deadline of N ms exceeded"; a
//     budget error names the budget and its configured value. Indices
//     would vary with scheduling; limits do not.
//
//  4. Unarmed cost is one TLS load and a branch. With a context armed
//     but no limit fired, Check() is a couple of relaxed atomic loads;
//     the deadline clock is read on every kDeadlineCheckInterval-th poll
//     per thread (steady_clock reads are ~25ns — fine per chunk, not
//     per world on sub-microsecond worlds).
//
// Cancellation points NEVER tear state: every caller that polls either
// propagates the error before mutating shared state (compute-then-commit
// in both engines, snapshot/rollback in ApplyDml) or sits before the
// storage commit's root flip (storage/store.cc) — an aborted statement
// leaves the world-set, the published snapshot, and the durable store
// exactly as they were. See "Resource governance" in
// docs/architecture.md for the abort-vs-commit protocol.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "base/result.h"

namespace maybms::base {

/// The limits a statement runs under. Zero always means "unlimited".
struct GovernanceLimits {
  /// Wall-clock budget from statement start, milliseconds.
  uint64_t deadline_ms = 0;

  /// Cap on worlds/alternatives the statement may materialize or
  /// enumerate (charged via ChargeWorlds at fan-out points).
  uint64_t max_worlds = 0;

  /// Cap on bytes of result/world data the statement may accumulate
  /// (charged via ChargeBytes; an estimate, not an allocator hook).
  uint64_t mem_budget_bytes = 0;
};

/// Deterministic kill-point injection for the cancellation battery
/// (tests/governance_test.cc), in the storage::FaultInjector idiom:
/// process-global, armed with a countdown N, the (N+1)-th governed poll
/// — and every poll after it — fails with a fixed kDeadlineExceeded
/// error. Unarmed cost is one relaxed atomic load inside Check().
class PollTrip {
 public:
  /// Fail the (fail_after + 1)-th poll and everything after it.
  static void Arm(uint64_t fail_after);
  static void Disarm();

  /// Polls intercepted since the last Arm; the battery uses it to count
  /// a statement's kill points.
  static uint64_t PollsSinceArm();

  static bool armed();

  /// Internal (QueryContext::Check): true when this poll must fail.
  static bool Next();

  /// The fixed error every tripped poll surfaces.
  static const char* Message();

 private:
  static std::atomic<bool> armed_;
  static std::atomic<uint64_t> remaining_;
  static std::atomic<uint64_t> polls_;
};

/// Per-statement governance state. Thread-safe: one statement's workers
/// all share one context. Construct per statement, install with
/// QueryContextScope, poll with GovernPoll().
class QueryContext {
 public:
  explicit QueryContext(GovernanceLimits limits);

  /// The cooperative cancellation poll. OK until a limit fires or
  /// Cancel() is called; afterwards returns the same verdict Status on
  /// every call (set-once, so every thread reports the identical error).
  [[nodiscard]] Status Check();

  /// Charges `n` worlds against the world budget; fails (and poisons the
  /// context) once the deterministic running total exceeds it.
  [[nodiscard]] Status ChargeWorlds(uint64_t n);

  /// Charges an estimate of `n` bytes against the memory budget.
  [[nodiscard]] Status ChargeBytes(uint64_t n);

  /// External cancellation (connection drop, server drain). The first
  /// verdict wins; `reason` completes "statement cancelled: <reason>".
  void Cancel(const std::string& reason);

  /// Registers a rate-limited external probe (e.g. "has the client hung
  /// up?"), invoked on every kProbeInterval-th Check() on any thread; a
  /// true return cancels with `reason`. The probe must be thread-safe.
  void SetCancelProbe(std::function<bool()> probe, std::string reason);

  bool cancelled() const {
    return cancelled_.load(std::memory_order_acquire);
  }

  /// True when any limit, probe, or the PollTrip hook is active — the
  /// session uses this to decide whether a pre-statement state capture
  /// is needed for abort rollback.
  bool governed() const;

  const GovernanceLimits& limits() const { return limits_; }
  uint64_t worlds_charged() const {
    return worlds_.load(std::memory_order_relaxed);
  }
  uint64_t bytes_charged() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// Check the deadline clock every this many polls per thread.
  static constexpr uint64_t kDeadlineCheckInterval = 16;
  /// Run the cancel probe every this many polls (it may be a syscall).
  static constexpr uint64_t kProbeInterval = 64;

 private:
  /// Records `verdict` as the context's terminal error if none is set
  /// yet, and returns the recorded verdict (the winner, not necessarily
  /// the argument) so concurrent losers surface the identical error.
  Status Fail(Status verdict);

  GovernanceLimits limits_;
  uint64_t deadline_ns_ = 0;  // absolute steady-clock ns; 0 = none

  std::atomic<uint64_t> worlds_{0};
  std::atomic<uint64_t> bytes_{0};
  std::atomic<uint64_t> polls_{0};

  std::atomic<bool> cancelled_{false};
  mutable std::mutex verdict_mu_;  // guards verdict_ and probe state
  Status verdict_;

  std::function<bool()> probe_;
  std::string probe_reason_;
  std::atomic<bool> has_probe_{false};
};

/// The context installed on the current thread, or nullptr.
QueryContext* CurrentQueryContext();

/// RAII install/restore of the thread-local context. Installing nullptr
/// SHIELDS the region: polls inside it are no-ops.
class QueryContextScope {
 public:
  explicit QueryContextScope(QueryContext* ctx);
  ~QueryContextScope();
  QueryContextScope(const QueryContextScope&) = delete;
  QueryContextScope& operator=(const QueryContextScope&) = delete;

 private:
  QueryContext* saved_;
};

/// The universal poll: OK when no context is installed, else
/// CurrentQueryContext()->Check(). Every per-world / per-page /
/// per-sample loop calls this at least once per bounded amount of work.
[[nodiscard]] Status GovernPoll();

/// Budget-charge conveniences for loops that fan out worlds or
/// accumulate result data; no-ops without an installed context.
[[nodiscard]] Status GovernChargeWorlds(uint64_t n);
[[nodiscard]] Status GovernChargeBytes(uint64_t n);

/// Deterministic O(1) footprint estimate for a per-world answer table:
/// rows × max(cols, 1) × 16 bytes (a Value is a small tagged union).
/// Deliberately NOT an allocator measurement — the charged total must be
/// a function of the data alone, identical at every thread count.
inline uint64_t EstimateTableBytes(size_t rows, size_t cols) {
  return static_cast<uint64_t>(rows) *
         static_cast<uint64_t>(cols == 0 ? 1 : cols) * 16;
}

}  // namespace maybms::base

#endif  // MAYBMS_BASE_QUERY_CONTEXT_H_
