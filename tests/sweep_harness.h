#ifndef TELEIOS_TESTS_SWEEP_HARNESS_H_
#define TELEIOS_TESTS_SWEEP_HARNESS_H_

// The kill-at-every-op sweep, written once for every fault injector
// (file system, transport, memory budget) and every scenario, plus the
// fixture of the file-system sweeps.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>

#include "io/fault_injection.h"
#include "io/filesystem.h"

namespace teleios {

/// A scratch directory, and `faulty_` installed as the process file
/// system for the length of the test.
class FaultyFileSystemTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           (std::string(::testing::UnitTest::GetInstance()
                            ->current_test_info()
                            ->test_suite_name()) +
            "_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    prev_ = io::SetFileSystem(faulty_.get());
  }
  void TearDown() override {
    io::SetFileSystem(prev_);
    std::filesystem::remove_all(dir_);
  }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
  io::PosixFileSystem posix_;
  std::unique_ptr<io::FaultInjectingFileSystem> faulty_ =
      std::make_unique<io::FaultInjectingFileSystem>(&posix_);
  io::FileSystem* prev_ = nullptr;
};

/// `arm(k)` for any injector: arms it with `spec`, the fault at op k.
template <typename Injector, typename Spec>
auto ArmAt(Injector* injector, Spec spec) {
  return [injector, spec](uint64_t k) mutable {
    spec.inject_at = k;
    injector->Arm(spec);
  };
}

/// Arms at 0 (count, never fire) and returns what `probe` returns: the
/// op count of the scenario run fault-free.
template <typename Arm, typename Probe>
uint64_t ProbeOps(Arm&& arm, Probe&& probe) {
  arm(0);
  return probe();
}

/// N = ProbeOps(arm, probe); prints "[sweep] <name>: N fault points";
/// then for k = 1..N: arm(k) and run(k), which runs the scenario with op
/// k failing, disarms and checks the invariant. A failed probe runs no
/// fault point; the sweep stops at the first fatal failure. Returns N.
template <typename Arm, typename Probe, typename Run>
uint64_t SweepEveryOp(const std::string& name, Arm&& arm, Probe&& probe,
                      Run&& run) {
  const uint64_t n = ProbeOps(arm, probe);
  if (::testing::Test::HasFailure()) return n;
  std::cout << "[sweep] " << name << ": " << n << " fault points\n";
  for (uint64_t k = 1; k <= n; ++k) {
    SCOPED_TRACE(name + ": fault at op " + std::to_string(k));
    arm(k);
    run(k);
    if (::testing::Test::HasFatalFailure()) break;
  }
  return n;
}

}  // namespace teleios

#endif  // TELEIOS_TESTS_SWEEP_HARNESS_H_
