#include "exec/parallel_for.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <memory>
#include <string>

#include "common/thread_annotations.h"
#include "governor/memory_budget.h"
#include "obs/trace.h"

namespace teleios::exec {

MorselPlan PlanMorsels(size_t n, size_t grain_hint) {
  MorselPlan plan;
  if (n == 0) return plan;
  size_t grain = grain_hint;
  if (grain == 0) {
    grain = std::clamp<size_t>(n / 64, size_t{4096}, size_t{262144});
  }
  plan.grain = grain;
  plan.count = (n + grain - 1) / grain;
  return plan;
}

namespace {

/// Shared state of one parallel region, owned jointly by the caller and
/// every runner task: a runner may start after the caller returned (it
/// sat in a queue behind other work), and then it only touches this
/// state. The lowest failing morsel index wins so the reported error
/// matches what serial execution would have hit first.
struct RegionState {
  explicit RegionState(size_t morsels) : count(morsels) {}

  const size_t count;
  std::atomic<size_t> cursor{0};
  std::atomic<size_t> executed{0};
  Mutex mu;
  std::condition_variable done_cv;
  size_t finished TELEIOS_GUARDED_BY(mu) = 0;  // claimed morsels settled
  size_t error_morsel TELEIOS_GUARDED_BY(mu) = SIZE_MAX;
  Status error TELEIOS_GUARDED_BY(mu);
  size_t exception_morsel TELEIOS_GUARDED_BY(mu) = SIZE_MAX;
  std::exception_ptr exception TELEIOS_GUARDED_BY(mu);

  void RecordError(size_t morsel, Status status) {
    MutexLock lock(mu);
    if (morsel < error_morsel) {
      error_morsel = morsel;
      error = std::move(status);
    }
  }

  void RecordException(size_t morsel, std::exception_ptr e) {
    MutexLock lock(mu);
    if (morsel < exception_morsel) {
      exception_morsel = morsel;
      exception = e;
    }
  }

  /// A claimed morsel ran or was skipped for cancellation.
  void Settle() {
    MutexLock lock(mu);
    ++finished;
    done_cv.notify_all();
  }

  /// Stops further claims and waits until every claimed morsel settled.
  /// Runners still queued find the cursor exhausted and return at once,
  /// so the caller never waits behind unrelated work in the pool.
  void Close() {
    size_t claimed = std::min(cursor.exchange(count), count);
    MutexLock lock(mu);
    while (finished < claimed) done_cv.wait(lock.native());
  }
};

}  // namespace

Status ParallelFor(size_t n, const ParallelOptions& opts,
                   const MorselBody& body) {
  if (n == 0) return Status::OK();
  MorselPlan plan = PlanMorsels(n, opts.grain);
  ThreadPool* pool = opts.pool != nullptr ? opts.pool : &ThreadPool::Global();
  // Regions opened without an explicit token still honor the governed
  // statement they run inside: the facade installs the per-query token
  // as the thread's CurrentCancel, which is how KillQuery stops a
  // morsel-driven scan whose operator never threaded a token through.
  const CancellationToken* cancel =
      opts.cancel != nullptr ? opts.cancel : CurrentCancel();

  bool serial =
      plan.count == 1 || pool->parallelism() == 1 || pool->OnWorkerThread();
  size_t threads =
      serial ? 1
             : std::min(static_cast<size_t>(pool->parallelism()), plan.count);

  // Record the fan-out/fan-in as one span of the caller's trace; its
  // duration covers dispatch through join.
  std::unique_ptr<obs::TraceSpan> span;
  if (opts.label != nullptr && obs::TraceActive()) {
    span = std::make_unique<obs::TraceSpan>(opts.label);
    span->SetAttr("morsels", std::to_string(plan.count));
    span->SetAttr("grain", std::to_string(plan.grain));
    span->SetAttr("threads", std::to_string(threads));
  }

  if (serial) {
    for (size_t m = 0; m < plan.count; ++m) {
      if (cancel != nullptr) {
        TELEIOS_RETURN_IF_ERROR(cancel->Check());
      }
      TELEIOS_RETURN_IF_ERROR(body(m, plan.Begin(m), plan.End(m, n)));
    }
    return Status::OK();
  }

  auto state = std::make_shared<RegionState>(plan.count);
  // Workers charge the caller's budget, not the process root: a morsel
  // body that reserves memory on a pool thread lands on the same
  // per-query budget as the thread that opened the region.
  governor::MemoryBudget* region_budget = governor::CurrentBudget();
  // Everything but `state` is owned by the caller, which waits only for
  // claimed morsels: a runner touches it only after claiming one.
  auto runner = [state, &body, plan, n, cancel, region_budget] {
    size_t m = state->cursor.fetch_add(1, std::memory_order_relaxed);
    if (m >= plan.count) return;
    governor::ScopedBudget budget_scope(region_budget);
    // Nested regions opened from a morsel body (they run inline on the
    // worker) must see the same token as the thread that opened this
    // region.
    ScopedCancel cancel_scope(cancel);
    for (; m < plan.count;
         m = state->cursor.fetch_add(1, std::memory_order_relaxed)) {
      if (cancel != nullptr && cancel->Expired()) {
        state->Settle();
        return;
      }
      try {
        Status s = body(m, plan.Begin(m), plan.End(m, n));
        if (!s.ok()) state->RecordError(m, std::move(s));
      } catch (...) {
        state->RecordException(m, std::current_exception());
      }
      state->executed.fetch_add(1, std::memory_order_relaxed);
      state->Settle();
    }
  };

  for (size_t t = 1; t < threads; ++t) pool->Submit(runner);
  runner();
  state->Close();

  MutexLock lock(state->mu);
  if (state->exception &&
      state->exception_morsel <= state->error_morsel) {
    std::rethrow_exception(state->exception);
  }
  if (state->error_morsel != SIZE_MAX) return state->error;
  if (state->executed.load(std::memory_order_relaxed) < plan.count) {
    // Cancellation stopped morsels from starting.
    if (cancel != nullptr) {
      Status s = cancel->Check();
      if (!s.ok()) return s;
    }
    return Status::Internal("parallel region lost morsels");
  }
  return Status::OK();
}

}  // namespace teleios::exec
