#ifndef TELEIOS_GOVERNOR_FAULT_INJECTION_H_
#define TELEIOS_GOVERNOR_FAULT_INJECTION_H_

#include <cstdint>
#include <string>

#include "common/fault_program.h"
#include "governor/memory_budget.h"

namespace teleios::governor {

/// A deterministic OOM program (run by a FaultProgram, like
/// io::FaultSpec): the `inject_at`-th counted Reserve() after Arm() is
/// refused with kResourceExhausted; with `every_n` > 0 the refusal also
/// repeats every `every_n` reservations after that. Zero-byte
/// reservations are not counted (they never allocate).
struct BudgetFaultSpec {
  uint64_t inject_at = 1;  // 1-based reservation index; 0 disables
  uint64_t every_n = 0;
};

/// Wraps any MemoryBudget and deterministically refuses reservations per
/// an armed BudgetFaultSpec — the allocation-failure analogue of
/// io::FaultInjectingFileSystem. Disarmed it is a transparent
/// pass-through that still counts reservations. Passed-through
/// reservations charge `base`, so accounting exactness (balance to zero)
/// is testable under injection too. Every injected refusal increments
/// `teleios_governor_oom_injected_total`.
///
/// Install it with ScopedBudget (or as a query budget's parent) and
/// every engine charge site becomes a provably exception-safe OOM
/// point: tests sweep `inject_at` over k = 1..N and assert no crash, a
/// clean kResourceExhausted, and zero residual charge.
class FaultInjectingBudget : public MemoryBudget {
 public:
  /// `base` must outlive this wrapper.
  explicit FaultInjectingBudget(MemoryBudget* base)
      : MemoryBudget("oom-injector", kUnlimited, base) {}

  /// Installs `spec` and resets the reservation counter.
  void Arm(const BudgetFaultSpec& spec) { program_.Arm(spec); }
  /// Back to pass-through (the counter keeps its value).
  void Disarm() { program_.Disarm(); }

  /// Reservations counted since the last Arm() (or construction).
  uint64_t reservations() const { return program_.ops(); }
  /// Refusals injected since the last Arm().
  uint64_t injected() const { return program_.faults(); }

  Status Reserve(size_t bytes) override;

 private:
  FaultProgram program_;
};

}  // namespace teleios::governor

#endif  // TELEIOS_GOVERNOR_FAULT_INJECTION_H_
