// Tests for the runtime lock-order validator (common/deadlock.{h,cc}).
//
// The engine tests drive the On* hooks directly with fake addresses, so
// they run (and protect the validator) in EVERY build configuration —
// deadlock.cc is always compiled; only the Mutex wrapper calls are
// conditional. The final test exercises real Mutex objects and is
// skipped unless the build was configured with TELEIOS_DEADLOCK_CHECK.

#include "common/deadlock.h"

#include <string>
#include <vector>

#include "common/thread_annotations.h"
#include "gtest/gtest.h"

namespace teleios::deadlock {
namespace {

std::vector<std::string>& Reports() {
  static std::vector<std::string>* reports = new std::vector<std::string>();
  return *reports;
}

void CaptureReport(const std::string& report) {
  Reports().push_back(report);
}

class DeadlockGraphTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ResetGraphForTest();
    Reports().clear();
    previous_ = SetHandler(&CaptureReport);
  }
  void TearDown() override {
    SetHandler(previous_);
    ResetGraphForTest();
  }

  // Balanced scoped acquisition of fake mutex addresses.
  void Acquire(const void* mu) {
    OnAcquire(mu);
    OnAcquired(mu);
  }

  Handler previous_ = nullptr;
};

TEST_F(DeadlockGraphTest, ConsistentOrderReportsNothing) {
  int a = 0, b = 0;
  for (int i = 0; i < 3; ++i) {
    Acquire(&a);
    Acquire(&b);
    OnRelease(&b);
    OnRelease(&a);
  }
  EXPECT_TRUE(Reports().empty());
  EXPECT_EQ(InversionCount(), 0u);
}

TEST_F(DeadlockGraphTest, AbbaInversionIsReportedWithoutOverlap) {
  int a = 0, b = 0;
  // First half of the ABBA pair: a before b. Released before the second
  // half starts, so the two never overlap in time — only the recorded
  // ORDER condemns them.
  Acquire(&a);
  Acquire(&b);
  OnRelease(&b);
  OnRelease(&a);

  Acquire(&b);
  Acquire(&a);  // b held while acquiring a: inversion
  OnRelease(&a);
  OnRelease(&b);

  ASSERT_EQ(Reports().size(), 1u);
  EXPECT_NE(Reports()[0].find("lock-order inversion"), std::string::npos);
  EXPECT_EQ(InversionCount(), 1u);
}

TEST_F(DeadlockGraphTest, TransitiveInversionIsReported) {
  int a = 0, b = 0, c = 0;
  Acquire(&a);
  Acquire(&b);
  OnRelease(&b);
  OnRelease(&a);
  Acquire(&b);
  Acquire(&c);
  OnRelease(&c);
  OnRelease(&b);

  Acquire(&c);
  Acquire(&a);  // c -> a closes a -> b -> c transitively
  OnRelease(&a);
  OnRelease(&c);

  ASSERT_EQ(Reports().size(), 1u);
  EXPECT_EQ(InversionCount(), 1u);
}

TEST_F(DeadlockGraphTest, RecursiveAcquisitionIsReported) {
  int a = 0;
  Acquire(&a);
  OnAcquire(&a);  // same thread, same mutex: certain deadlock
  OnRelease(&a);
  ASSERT_EQ(Reports().size(), 1u);
  EXPECT_NE(Reports()[0].find("recursive acquisition"), std::string::npos);
}

TEST_F(DeadlockGraphTest, TryLockRecordsNoOrderEdges) {
  int a = 0, b = 0;
  // try_lock cannot block, so holding a while try-locking b must not
  // commit an a -> b edge ...
  Acquire(&a);
  OnTryAcquired(&b);
  OnRelease(&b);
  OnRelease(&a);
  // ... and the opposite blocking order afterwards is legal.
  Acquire(&b);
  Acquire(&a);
  OnRelease(&a);
  OnRelease(&b);
  EXPECT_TRUE(Reports().empty());
}

TEST_F(DeadlockGraphTest, DestroyDropsHistoryForRecycledAddress) {
  int a = 0, b = 0;
  Acquire(&a);
  Acquire(&b);
  OnRelease(&b);
  OnRelease(&a);
  OnDestroy(&b);  // b's mutex dies; a new mutex may reuse the address
  Acquire(&b);
  Acquire(&a);
  OnRelease(&a);
  OnRelease(&b);
  EXPECT_TRUE(Reports().empty());
}

TEST_F(DeadlockGraphTest, ResetClearsEdgesAndCounter) {
  int a = 0, b = 0;
  Acquire(&a);
  Acquire(&b);
  OnRelease(&b);
  OnRelease(&a);
  ResetGraphForTest();
  Acquire(&b);
  Acquire(&a);
  OnRelease(&a);
  OnRelease(&b);
  EXPECT_TRUE(Reports().empty());
  EXPECT_EQ(InversionCount(), 0u);
}

/// A lock-order inversion on purpose. TSan's own detector reports it too;
/// scripts/tsan.supp suppresses it by this (unique) function name.
void LockBothWaysOnPurpose(Mutex& first, Mutex& second) {
  {
    MutexLock a(first);
    MutexLock b(second);
  }
  {
    MutexLock b(second);
    MutexLock a(first);  // inversion through the instrumented wrappers
  }
}

TEST_F(DeadlockGraphTest, RealMutexIntegration) {
#if !defined(TELEIOS_DEADLOCK_CHECK)
  GTEST_SKIP() << "build configured without TELEIOS_DEADLOCK_CHECK";
#endif
  Mutex first;
  Mutex second;
  LockBothWaysOnPurpose(first, second);
  ASSERT_EQ(Reports().size(), 1u);
  EXPECT_NE(Reports()[0].find("lock-order inversion"), std::string::npos);
}

}  // namespace
}  // namespace teleios::deadlock
