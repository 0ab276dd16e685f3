#ifndef TELEIOS_COMMON_FAULT_PROGRAM_H_
#define TELEIOS_COMMON_FAULT_PROGRAM_H_

#include <cstdint>

#include "common/thread_annotations.h"

namespace teleios {

/// What an armed FaultProgram does to one operation.
enum class FaultStep {
  kPass,        // the op behaves normally
  kFire,        // the scheduled fault lands on this op
  kAfterCrash,  // a crash-mode fault fired earlier; this op fails too
};

/// The counted fault schedule that every fault injector runs on
/// (io::FaultInjectingFileSystem, server::FaultInjectingTransport,
/// governor::FaultInjectingBudget); each maps a fired op to its own fault
/// kinds. After Arm(), the `inject_at`-th counted op fires; with
/// `every_n` > 0 the fault repeats every `every_n` ops after that; with
/// `crash` every later op fails too, and is no longer counted.
/// `inject_at` = 0 counts ops but never fires: the probe run of a
/// kill-at-every-op sweep. Disarmed (and before the first Arm) every op
/// passes and is still counted.
///
/// Thread-safe: the counters advance under one mutex, so "fire at op k"
/// stays exact when several threads share an injector (which op lands on
/// k then depends on scheduling, but exactly one does).
class FaultProgram {
 public:
  /// Installs the schedule of an injector's spec struct (`inject_at`,
  /// `every_n` and, where it has them, `crash` and the RNG `seed`) and
  /// resets the counters, the crash and the RNG.
  template <typename Spec>
  void Arm(const Spec& spec) {
    bool crash = false;
    uint64_t seed = 1;
    if constexpr (requires { spec.crash; }) crash = spec.crash;
    if constexpr (requires { spec.seed; }) seed = spec.seed;
    Arm(spec.inject_at, spec.every_n, crash, seed);
  }
  void Arm(uint64_t inject_at, uint64_t every_n, bool crash, uint64_t seed)
      TELEIOS_EXCLUDES(mu_);
  /// Back to pass-through, crash cleared; the counters keep their values.
  void Disarm() TELEIOS_EXCLUDES(mu_);

  /// Decides one op. After a crash every op is kAfterCrash. Otherwise an
  /// op that is not `counted` passes, and a counted op fires when the
  /// schedule hits it and the fault `applies` to it (a hit that the
  /// injector's fault kind cannot act on passes and is no fault).
  FaultStep Next(bool counted = true, bool applies = true)
      TELEIOS_EXCLUDES(mu_);
  /// Counts a fault the injector placed outside the schedule.
  void CountFault() TELEIOS_EXCLUDES(mu_);
  /// The next draw of the xorshift64* RNG that Arm() seeded.
  uint64_t NextRandom() TELEIOS_EXCLUDES(mu_);

  /// Counted ops since the last Arm() (or construction).
  uint64_t ops() const TELEIOS_EXCLUDES(mu_);
  /// Faults since the last Arm().
  uint64_t faults() const TELEIOS_EXCLUDES(mu_);

 private:
  mutable Mutex mu_;
  uint64_t inject_at_ TELEIOS_GUARDED_BY(mu_) = 0;
  uint64_t every_n_ TELEIOS_GUARDED_BY(mu_) = 0;
  bool crash_ TELEIOS_GUARDED_BY(mu_) = false;
  bool crashed_ TELEIOS_GUARDED_BY(mu_) = false;
  uint64_t ops_ TELEIOS_GUARDED_BY(mu_) = 0;
  uint64_t faults_ TELEIOS_GUARDED_BY(mu_) = 0;
  uint64_t rng_ TELEIOS_GUARDED_BY(mu_) = 1;
};

}  // namespace teleios

#endif  // TELEIOS_COMMON_FAULT_PROGRAM_H_
