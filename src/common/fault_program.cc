#include "common/fault_program.h"

namespace teleios {

void FaultProgram::Arm(uint64_t inject_at, uint64_t every_n, bool crash,
                       uint64_t seed) {
  MutexLock lock(mu_);
  inject_at_ = inject_at;
  every_n_ = every_n;
  crash_ = crash;
  crashed_ = false;
  ops_ = 0;
  faults_ = 0;
  rng_ = seed ? seed : 1;
}

void FaultProgram::Disarm() {
  MutexLock lock(mu_);
  inject_at_ = 0;
  crashed_ = false;
}

FaultStep FaultProgram::Next(bool counted, bool applies) {
  MutexLock lock(mu_);
  if (crashed_) return FaultStep::kAfterCrash;
  if (!counted) return FaultStep::kPass;
  ++ops_;
  bool hit = inject_at_ > 0 &&
             (ops_ == inject_at_ ||
              (every_n_ > 0 && ops_ > inject_at_ &&
               (ops_ - inject_at_) % every_n_ == 0));
  if (!hit || !applies) return FaultStep::kPass;
  ++faults_;
  crashed_ = crash_;
  return FaultStep::kFire;
}

void FaultProgram::CountFault() {
  MutexLock lock(mu_);
  ++faults_;
}

uint64_t FaultProgram::NextRandom() {
  MutexLock lock(mu_);
  rng_ ^= rng_ >> 12;
  rng_ ^= rng_ << 25;
  rng_ ^= rng_ >> 27;
  return rng_ * 0x2545f4914f6cdd1dull;
}

uint64_t FaultProgram::ops() const {
  MutexLock lock(mu_);
  return ops_;
}

uint64_t FaultProgram::faults() const {
  MutexLock lock(mu_);
  return faults_;
}

}  // namespace teleios
