#ifndef TELEIOS_EXEC_PARALLEL_FOR_H_
#define TELEIOS_EXEC_PARALLEL_FOR_H_

#include <cstddef>
#include <functional>

#include "common/status.h"
#include "common/cancellation.h"
#include "exec/thread_pool.h"

namespace teleios::exec {

/// A deterministic morsel decomposition of `n` items: `count` morsels of
/// `grain` items each (the last one ragged). The decomposition depends
/// only on `n` and the grain hint — never on the thread count — so
/// per-morsel partial results merged in morsel-index order give
/// bit-identical output at any TELEIOS_THREADS setting, floating-point
/// reductions included.
struct MorselPlan {
  size_t grain = 0;
  size_t count = 0;

  size_t Begin(size_t morsel) const { return morsel * grain; }
  size_t End(size_t morsel, size_t n) const {
    size_t end = (morsel + 1) * grain;
    return end < n ? end : n;
  }
};

/// Plans morsels for `n` items. `grain_hint` fixes the morsel size; 0
/// auto-tunes it from the problem size alone (roughly n/64, clamped to
/// [4096, 262144] items) so small inputs stay a single morsel — the
/// serial fast path — and large ones produce enough morsels to balance
/// across workers with headroom for stealing.
MorselPlan PlanMorsels(size_t n, size_t grain_hint = 0);

struct ParallelOptions {
  /// Morsel size; 0 = auto (see PlanMorsels).
  size_t grain = 0;
  /// Checked between morsels; long bodies should poll it too.
  const CancellationToken* cancel = nullptr;
  /// When set and a trace is active on the calling thread, the region is
  /// recorded as one span (attrs: morsels, grain, threads) — this is what
  /// makes parallel regions visible in PROFILE output.
  const char* label = nullptr;
  /// Pool to fan out on; nullptr = the global pool.
  ThreadPool* pool = nullptr;
};

/// `body(morsel, begin, end)` processes items [begin, end) of morsel
/// index `morsel`. Bodies run concurrently and must only touch disjoint
/// state (or their own slot of a pre-sized partials vector).
using MorselBody =
    std::function<Status(size_t morsel, size_t begin, size_t end)>;

/// Runs `body` over every morsel of [0, n). Morsels are claimed from a
/// shared cursor by up to `parallelism` threads (the caller included);
/// with one thread, a single morsel, or when already on a pool worker
/// (no nested fan-out) the morsels run inline in index order — the
/// serial behaviour. Completion follows the morsels, not the runner
/// tasks: the caller claims morsels too and returns once every claimed
/// morsel finished; a runner task still queued behind other work then
/// finds none left and never calls `body`.
///
/// Error contract: every morsel runs even if one fails (no early abort),
/// and the error of the lowest-index failing morsel is returned — the
/// same one serial execution would hit first, keeping error reporting
/// deterministic. Exceptions from `body` are rethrown (lowest morsel
/// index wins) after all morsels finished. Cancellation *does* stop
/// morsels that have not started; if any were skipped the token's status
/// (Cancelled / DeadlineExceeded) is returned.
Status ParallelFor(size_t n, const ParallelOptions& opts,
                   const MorselBody& body);

}  // namespace teleios::exec

#endif  // TELEIOS_EXEC_PARALLEL_FOR_H_
