#include "base/query_context.h"

#include <chrono>

namespace maybms::base {

namespace {

thread_local QueryContext* tls_query_context = nullptr;

// Per-thread poll counter for amortizing the deadline clock read and the
// cancel probe. Deliberately NOT part of the shared context: a relaxed
// shared counter would bounce a cache line between every worker on every
// poll, which is exactly the hot-path cost governance must not add.
thread_local uint64_t tls_poll_count = 0;

uint64_t SteadyNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

std::atomic<bool> PollTrip::armed_{false};
std::atomic<uint64_t> PollTrip::remaining_{0};
std::atomic<uint64_t> PollTrip::polls_{0};

void PollTrip::Arm(uint64_t fail_after) {
  remaining_.store(fail_after, std::memory_order_relaxed);
  polls_.store(0, std::memory_order_relaxed);
  armed_.store(true, std::memory_order_release);
}

void PollTrip::Disarm() { armed_.store(false, std::memory_order_release); }

uint64_t PollTrip::PollsSinceArm() {
  return polls_.load(std::memory_order_relaxed);
}

bool PollTrip::armed() { return armed_.load(std::memory_order_acquire); }

const char* PollTrip::Message() {
  return "statement deadline exceeded (injected governance trip)";
}

bool PollTrip::Next() {
  if (!armed_.load(std::memory_order_acquire)) return false;
  polls_.fetch_add(1, std::memory_order_relaxed);
  uint64_t remaining = remaining_.load(std::memory_order_relaxed);
  while (remaining > 0) {
    if (remaining_.compare_exchange_weak(remaining, remaining - 1,
                                         std::memory_order_relaxed)) {
      return false;
    }
  }
  // Budget spent: this poll and every later one fails — the statement is
  // dead, exactly like a deadline that already passed.
  return true;
}

QueryContext::QueryContext(GovernanceLimits limits) : limits_(limits) {
  if (limits_.deadline_ms > 0) {
    deadline_ns_ = SteadyNowNs() + limits_.deadline_ms * 1'000'000ULL;
  }
}

bool QueryContext::governed() const {
  return limits_.deadline_ms > 0 || limits_.max_worlds > 0 ||
         limits_.mem_budget_bytes > 0 ||
         has_probe_.load(std::memory_order_acquire) || PollTrip::armed();
}

Status QueryContext::Fail(Status verdict) {
  std::lock_guard<std::mutex> lock(verdict_mu_);
  if (!cancelled_.load(std::memory_order_relaxed)) {
    verdict_ = std::move(verdict);
    cancelled_.store(true, std::memory_order_release);
  }
  return verdict_;
}

Status QueryContext::Check() {
  if (PollTrip::Next()) {
    return Fail(Status(StatusCode::kDeadlineExceeded, PollTrip::Message()));
  }
  if (cancelled_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock(verdict_mu_);
    return verdict_;
  }
  const uint64_t count = ++tls_poll_count;
  if (deadline_ns_ != 0 && count % kDeadlineCheckInterval == 0 &&
      SteadyNowNs() >= deadline_ns_) {
    return Fail(Status::DeadlineExceeded(
        "statement deadline of " + std::to_string(limits_.deadline_ms) +
        " ms exceeded"));
  }
  if (has_probe_.load(std::memory_order_acquire) &&
      count % kProbeInterval == 0) {
    std::function<bool()> probe;
    std::string reason;
    {
      std::lock_guard<std::mutex> lock(verdict_mu_);
      probe = probe_;
      reason = probe_reason_;
    }
    if (probe && probe()) {
      return Fail(Status::DeadlineExceeded("statement cancelled: " + reason));
    }
  }
  return Status::OK();
}

Status QueryContext::ChargeWorlds(uint64_t n) {
  if (n == 0) return Check();
  const uint64_t total =
      worlds_.fetch_add(n, std::memory_order_relaxed) + n;
  if (limits_.max_worlds > 0 && total > limits_.max_worlds) {
    return Fail(Status::ResourceExhausted(
        "statement world budget of " + std::to_string(limits_.max_worlds) +
        " worlds exceeded"));
  }
  return Check();
}

Status QueryContext::ChargeBytes(uint64_t n) {
  if (n == 0) return Check();
  const uint64_t total = bytes_.fetch_add(n, std::memory_order_relaxed) + n;
  if (limits_.mem_budget_bytes > 0 && total > limits_.mem_budget_bytes) {
    // Budgets set in MiB (the session's knob) read in MiB; others in
    // bytes, which a MiB figure would round down to 0.
    constexpr uint64_t kMiB = 1024 * 1024;
    const uint64_t budget = limits_.mem_budget_bytes;
    return Fail(Status::ResourceExhausted(
        "statement memory budget of " +
        (budget % kMiB == 0 ? std::to_string(budget / kMiB) + " MiB"
                            : std::to_string(budget) + " bytes") +
        " exceeded"));
  }
  return Check();
}

void QueryContext::Cancel(const std::string& reason) {
  MAYBMS_IGNORE_STATUS(
      Fail(Status::DeadlineExceeded("statement cancelled: " + reason)));
}

void QueryContext::SetCancelProbe(std::function<bool()> probe,
                                  std::string reason) {
  {
    std::lock_guard<std::mutex> lock(verdict_mu_);
    probe_ = std::move(probe);
    probe_reason_ = std::move(reason);
  }
  has_probe_.store(true, std::memory_order_release);
}

QueryContext* CurrentQueryContext() { return tls_query_context; }

QueryContextScope::QueryContextScope(QueryContext* ctx)
    : saved_(tls_query_context) {
  tls_query_context = ctx;
}

QueryContextScope::~QueryContextScope() { tls_query_context = saved_; }

Status GovernPoll() {
  QueryContext* ctx = tls_query_context;
  if (ctx == nullptr) return Status::OK();
  return ctx->Check();
}

Status GovernChargeWorlds(uint64_t n) {
  QueryContext* ctx = tls_query_context;
  if (ctx == nullptr) return Status::OK();
  return ctx->ChargeWorlds(n);
}

Status GovernChargeBytes(uint64_t n) {
  QueryContext* ctx = tls_query_context;
  if (ctx == nullptr) return Status::OK();
  return ctx->ChargeBytes(n);
}

}  // namespace maybms::base
