#include "governor/fault_injection.h"

#include "obs/metrics.h"

namespace teleios::governor {

Status FaultInjectingBudget::Reserve(size_t bytes) {
  if (bytes == 0) return Status::OK();
  if (program_.Next() == FaultStep::kFire) {
    obs::Count("teleios_governor_oom_injected_total");
    return Status::ResourceExhausted("injected allocation failure");
  }
  // Pass-through: MemoryBudget::Reserve charges this node (unlimited)
  // and the wrapped base via the parent chain.
  return MemoryBudget::Reserve(bytes);
}

}  // namespace teleios::governor
