// The resource governor: hierarchical memory budgets (exact accounting,
// refusal semantics, OOM fault injection), the admission controller
// (bounded slots, bounded FIFO queue, deadline-aware waits), the circuit
// breaker state machine under an injected clock, retry/deadline
// composition, and the end-to-end overload scenario through the
// observatory facade. Everything here is deterministic on one core: the
// breaker never sleeps (injected clock), admission waits are bounded by
// token deadlines of a few tens of milliseconds, and OOM injection is
// counted, not timed.

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/observatory.h"
#include "eo/scene.h"
#include "common/cancellation.h"
#include "governor/admission.h"
#include "governor/circuit_breaker.h"
#include "governor/fault_injection.h"
#include "governor/memory_budget.h"
#include "io/fault_injection.h"
#include "io/filesystem.h"
#include "io/retry.h"
#include "mining/kmeans.h"
#include "noa/chain.h"
#include "sweep_harness.h"

namespace teleios {
namespace {

namespace stdfs = std::filesystem;
using governor::BudgetCharge;
using governor::BudgetFaultSpec;
using governor::CircuitBreaker;
using governor::CircuitBreakerConfig;
using governor::FaultInjectingBudget;
using governor::MemoryBudget;
using governor::ScopedBudget;

// ---------------------------------------------------------------------
// MemoryBudget
// ---------------------------------------------------------------------

TEST(MemoryBudgetTest, ReserveReleaseBalancesToZero) {
  MemoryBudget budget("b", 1000);
  ASSERT_TRUE(budget.Reserve(400).ok());
  ASSERT_TRUE(budget.Reserve(600).ok());
  EXPECT_EQ(budget.used(), 1000u);
  budget.Release(400);
  budget.Release(600);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak(), 1000u);
}

TEST(MemoryBudgetTest, RefusalNamesTheBudgetAndChargesNothing) {
  MemoryBudget budget("tiny-root", 100);
  Status refused = budget.Reserve(101);
  ASSERT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.message().find("tiny-root"), std::string::npos);
  EXPECT_EQ(budget.used(), 0u);
  EXPECT_EQ(budget.peak(), 0u);  // a refusal never inflates the peak
}

TEST(MemoryBudgetTest, OverflowSizedRequestIsRefusedNotWrapped) {
  MemoryBudget budget("b", 1000);
  ASSERT_TRUE(budget.Reserve(500).ok());
  EXPECT_EQ(budget.Reserve(MemoryBudget::kUnlimited).code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(budget.used(), 500u);
  budget.Release(500);
}

TEST(MemoryBudgetTest, ChildChargesEveryAncestor) {
  MemoryBudget root("root", 1000);
  MemoryBudget query("query", MemoryBudget::kUnlimited, &root);
  ASSERT_TRUE(query.Reserve(300).ok());
  EXPECT_EQ(query.used(), 300u);
  EXPECT_EQ(root.used(), 300u);
  query.Release(300);
  EXPECT_EQ(query.used(), 0u);
  EXPECT_EQ(root.used(), 0u);
}

TEST(MemoryBudgetTest, AncestorRefusalRollsBackTheChild) {
  MemoryBudget root("root", 100);
  MemoryBudget query("query", MemoryBudget::kUnlimited, &root);
  Status refused = query.Reserve(200);
  ASSERT_EQ(refused.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.message().find("root"), std::string::npos);
  // Nothing left charged anywhere, no phantom peak in the child.
  EXPECT_EQ(query.used(), 0u);
  EXPECT_EQ(root.used(), 0u);
  EXPECT_EQ(query.peak(), 0u);
}

TEST(MemoryBudgetTest, ZeroByteReserveIsFree) {
  MemoryBudget budget("b", 0);  // refuses any non-zero request
  EXPECT_TRUE(budget.Reserve(0).ok());
  EXPECT_EQ(budget.Reserve(1).code(), StatusCode::kResourceExhausted);
}

TEST(BudgetChargeTest, RaiiReleasesOnScopeExitAndMoves) {
  MemoryBudget budget("b", 1000);
  {
    auto charge = governor::TryCharge(&budget, 128, "test buffer");
    ASSERT_TRUE(charge.ok());
    EXPECT_EQ(budget.used(), 128u);
    BudgetCharge moved = std::move(*charge);
    EXPECT_EQ(budget.used(), 128u);  // moving does not double-release
    moved.reset();
    EXPECT_EQ(budget.used(), 0u);
    moved.reset();  // idempotent
  }
  EXPECT_EQ(budget.used(), 0u);
}

TEST(BudgetChargeTest, TryChargePrefixesTheRefusalWithWhat) {
  MemoryBudget budget("b", 10);
  auto charge = governor::TryCharge(&budget, 100, "sort selection");
  ASSERT_FALSE(charge.ok());
  EXPECT_EQ(charge.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(charge.status().message().find("sort selection"),
            std::string::npos);
}

TEST(ScopedBudgetTest, OverridesAndRestoresTheThreadBudget) {
  MemoryBudget* default_budget = governor::CurrentBudget();
  EXPECT_EQ(default_budget, &governor::ProcessBudget());
  MemoryBudget mine("mine", MemoryBudget::kUnlimited);
  {
    ScopedBudget scope(&mine);
    EXPECT_EQ(governor::CurrentBudget(), &mine);
    auto charge = governor::ChargeCurrent(64, "scratch");
    ASSERT_TRUE(charge.ok());
    EXPECT_EQ(mine.used(), 64u);
  }
  EXPECT_EQ(governor::CurrentBudget(), default_budget);
  EXPECT_EQ(mine.used(), 0u);
}

// ---------------------------------------------------------------------
// FaultInjectingBudget
// ---------------------------------------------------------------------

TEST(FaultInjectingBudgetTest, InjectsAtTheKthReservation) {
  MemoryBudget base("base", MemoryBudget::kUnlimited);
  FaultInjectingBudget injector(&base);
  BudgetFaultSpec spec;
  spec.inject_at = 2;
  injector.Arm(spec);
  ASSERT_TRUE(injector.Reserve(10).ok());
  Status second = injector.Reserve(10);
  ASSERT_EQ(second.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(second.message().find("injected allocation failure"),
            std::string::npos);
  EXPECT_EQ(injector.reservations(), 2u);
  EXPECT_EQ(injector.injected(), 1u);
  // The refused reservation charged nothing; the accepted one did.
  EXPECT_EQ(base.used(), 10u);
  injector.Release(10);
  EXPECT_EQ(base.used(), 0u);
  EXPECT_EQ(injector.used(), 0u);
}

TEST(FaultInjectingBudgetTest, EveryNRepeatsAndZeroBytesAreNotCounted) {
  MemoryBudget base("base", MemoryBudget::kUnlimited);
  FaultInjectingBudget injector(&base);
  BudgetFaultSpec spec;
  spec.inject_at = 1;
  spec.every_n = 2;
  injector.Arm(spec);
  EXPECT_TRUE(injector.Reserve(0).ok());  // not counted, not injected
  EXPECT_FALSE(injector.Reserve(8).ok());  // #1 injected
  EXPECT_TRUE(injector.Reserve(8).ok());   // #2
  EXPECT_FALSE(injector.Reserve(8).ok());  // #3 = 1 + 2 injected
  EXPECT_TRUE(injector.Reserve(8).ok());   // #4
  EXPECT_FALSE(injector.Reserve(8).ok());  // #5 injected
  EXPECT_EQ(injector.injected(), 3u);
  injector.Disarm();
  EXPECT_TRUE(injector.Reserve(8).ok());
  injector.Release(24);
  EXPECT_EQ(base.used(), 0u);
}

// ---------------------------------------------------------------------
// CircuitBreaker (injected clock; no sleeping)
// ---------------------------------------------------------------------

class BreakerTest : public ::testing::Test {
 protected:
  BreakerTest() : breaker_("test-breaker", Config()) {
    now_ = std::chrono::steady_clock::now();
    breaker_.SetClockForTest([this] { return now_; });
  }

  static CircuitBreakerConfig Config() {
    CircuitBreakerConfig config;
    config.failure_threshold = 2;
    config.open_duration = std::chrono::milliseconds(100);
    config.half_open_successes = 1;
    return config;
  }

  void Advance(int ms) { now_ += std::chrono::milliseconds(ms); }

  std::chrono::steady_clock::time_point now_;
  CircuitBreaker breaker_;
};

TEST_F(BreakerTest, TripsAfterConsecutiveFailuresAndSheds) {
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kClosed);
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker_.trips(), 1u);
  Status shed = breaker_.Admit();
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_NE(shed.message().find("test-breaker"), std::string::npos);
}

TEST_F(BreakerTest, SuccessResetsTheConsecutiveCount) {
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordSuccess();  // streak broken
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker_.trips(), 0u);
}

TEST_F(BreakerTest, HalfOpenAdmitsOneProbeThenCloses) {
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();  // open
  Advance(99);
  EXPECT_EQ(breaker_.Admit().code(), StatusCode::kUnavailable);
  Advance(2);  // past the cool-down
  ASSERT_TRUE(breaker_.Admit().ok());  // the probe
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kHalfOpen);
  // A second caller while the probe is in flight is shed.
  EXPECT_EQ(breaker_.Admit().code(), StatusCode::kUnavailable);
  breaker_.RecordSuccess();
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker_.Admit().ok());
  breaker_.RecordSuccess();
}

TEST_F(BreakerTest, FailedProbeReopensForAnotherCoolDown) {
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  Advance(101);
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();  // probe failed
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker_.trips(), 2u);
  EXPECT_EQ(breaker_.Admit().code(), StatusCode::kUnavailable);
}

TEST_F(BreakerTest, RunOnlyCountsInfrastructureFailures) {
  // NotFound is the caller's problem, not the dependency's: it must
  // pass through unchanged and never trip the breaker.
  for (int i = 0; i < 5; ++i) {
    Status s = breaker_.Run([] { return Status::NotFound("no such raster"); });
    EXPECT_EQ(s.code(), StatusCode::kNotFound);
  }
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kClosed);
  // Two I/O errors trip it.
  (void)breaker_.Run([] { return Status::IoError("disk"); });
  (void)breaker_.Run([] { return Status::IoError("disk"); });
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kOpen);
  // Shed calls never invoke the function.
  bool ran = false;
  Status shed = breaker_.Run([&] {
    ran = true;
    return Status::OK();
  });
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_FALSE(ran);
}

TEST_F(BreakerTest, ReconfigureResetsToClosed) {
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  ASSERT_TRUE(breaker_.Admit().ok());
  breaker_.RecordFailure();
  ASSERT_EQ(breaker_.state(), CircuitBreaker::State::kOpen);
  breaker_.Reconfigure(Config());
  EXPECT_EQ(breaker_.state(), CircuitBreaker::State::kClosed);
  EXPECT_TRUE(breaker_.Admit().ok());
  breaker_.RecordSuccess();
}

// ---------------------------------------------------------------------
// AdmissionController
// ---------------------------------------------------------------------

governor::AdmissionConfig AdmitConfig(int max_concurrent, int max_queue,
                                      int max_wait_ms) {
  governor::AdmissionConfig config;
  config.max_concurrent = max_concurrent;
  config.max_queue = max_queue;
  config.max_wait = std::chrono::milliseconds(max_wait_ms);
  return config;
}

TEST(AdmissionTest, TicketReleasesTheSlot) {
  governor::AdmissionController admission(AdmitConfig(1, 0, 0));
  auto first = admission.Admit(nullptr);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(admission.running(), 1);
  // Slot taken, queue capacity zero: shed instantly.
  auto second = admission.Admit(nullptr);
  ASSERT_FALSE(second.ok());
  EXPECT_EQ(second.status().code(), StatusCode::kUnavailable);
  first->reset();
  EXPECT_EQ(admission.running(), 0);
  auto third = admission.Admit(nullptr);
  EXPECT_TRUE(third.ok());
}

TEST(AdmissionTest, ZeroMaxWaitTimesOutWithoutStrandingTheQueue) {
  governor::AdmissionController admission(AdmitConfig(1, 4, 0));
  auto held = admission.Admit(nullptr);
  ASSERT_TRUE(held.ok());
  auto timed_out = admission.Admit(nullptr);
  ASSERT_FALSE(timed_out.ok());
  EXPECT_EQ(timed_out.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(timed_out.status().message().find("timed out"),
            std::string::npos);
  // The give-up waiter removed itself; nothing is left queued.
  EXPECT_EQ(admission.queued(), 0);
}

TEST(AdmissionTest, CancelledTokenReturnsItsStatus) {
  governor::AdmissionController admission(AdmitConfig(1, 4, 10000));
  auto held = admission.Admit(nullptr);
  ASSERT_TRUE(held.ok());
  CancellationToken token;
  token.Cancel();
  auto cancelled = admission.Admit(&token);
  ASSERT_FALSE(cancelled.ok());
  EXPECT_EQ(cancelled.status().code(), StatusCode::kCancelled);
  EXPECT_NE(cancelled.status().message().find("abandoned admission queue"),
            std::string::npos);
  EXPECT_EQ(admission.queued(), 0);
}

TEST(AdmissionTest, DeadlineBoundsTheQueueWait) {
  governor::AdmissionController admission(AdmitConfig(1, 4, 10000));
  auto held = admission.Admit(nullptr);
  ASSERT_TRUE(held.ok());
  CancellationToken token;
  token.CancelAfter(std::chrono::milliseconds(30));
  auto start = std::chrono::steady_clock::now();
  auto expired = admission.Admit(&token);
  auto waited = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  // The wait ended near the 30ms deadline, nowhere near max_wait=10s.
  EXPECT_LT(waited, std::chrono::seconds(5));
  EXPECT_EQ(admission.queued(), 0);
}

// ---------------------------------------------------------------------
// RetryPolicy + CancellationToken (the PR's retry/deadline fix)
// ---------------------------------------------------------------------

TEST(RetryDeadlineTest, ExpiredTokenStopsRetriesAndKeepsTheLastError) {
  CancellationToken token;
  token.CancelAfter(std::chrono::nanoseconds(0));  // already expired
  io::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.cancel = &token;
  int calls = 0;
  Status s = io::WithRetry(policy, "flaky op", [&] {
    ++calls;
    return Status::IoError("disk hiccup");
  });
  EXPECT_EQ(calls, 1);  // no retry once the budget is spent
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  // The cause of the final failed attempt is not lost.
  EXPECT_NE(s.message().find("disk hiccup"), std::string::npos);
  EXPECT_NE(s.message().find("last error"), std::string::npos);
}

TEST(RetryDeadlineTest, BackoffNeverOvershootsTheDeadline) {
  CancellationToken token;
  token.CancelAfter(std::chrono::milliseconds(50));
  io::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.base_backoff_ms = 60000;  // sleeping would blow the deadline
  policy.cancel = &token;
  int calls = 0;
  auto start = std::chrono::steady_clock::now();
  Status s = io::WithRetry(policy, "slow-retry op", [&] {
    ++calls;
    return Status::IoError("transient");
  });
  auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(s.code(), StatusCode::kDeadlineExceeded);
  EXPECT_NE(s.message().find("overshoot"), std::string::npos);
  // It refused to sleep rather than discovering the deadline afterwards.
  EXPECT_LT(elapsed, std::chrono::seconds(5));
}

TEST(RetryDeadlineTest, CancelledTokenStopsBetweenAttempts) {
  CancellationToken token;
  io::RetryPolicy policy;
  policy.max_attempts = 5;
  policy.cancel = &token;
  int calls = 0;
  Status s = io::WithRetry(policy, "op", [&] {
    ++calls;
    token.Cancel();  // cancelled mid-flight after the first attempt
    return Status::IoError("fault");
  });
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(s.code(), StatusCode::kCancelled);
}

TEST(RetryDeadlineTest, TokenWithoutDeadlineDoesNotLimitRetries) {
  CancellationToken token;  // live, no deadline
  io::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.cancel = &token;
  int calls = 0;
  Status s = io::WithRetry(policy, "op", [&] {
    ++calls;
    return Status::IoError("persistent");
  });
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

// ---------------------------------------------------------------------
// k-means under a budget (mining tier)
// ---------------------------------------------------------------------

TEST(GovernedEngineTest, KMeansRespectsTheThreadBudget) {
  std::vector<std::vector<double>> data;
  for (int i = 0; i < 200; ++i) {
    data.push_back({static_cast<double>(i % 17), static_cast<double>(i % 5),
                    static_cast<double>(i)});
  }
  MemoryBudget tiny("tiny", 16);
  {
    ScopedBudget scope(&tiny);
    auto refused = mining::KMeans(data, 3);
    ASSERT_FALSE(refused.ok());
    EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(tiny.used(), 0u);  // balance survives the error path
  MemoryBudget roomy("roomy", 16u << 20);
  {
    ScopedBudget scope(&roomy);
    auto fits = mining::KMeans(data, 3);
    ASSERT_TRUE(fits.ok()) << fits.status().ToString();
    EXPECT_EQ(fits->centroids.size(), 3u);
  }
  EXPECT_EQ(roomy.used(), 0u);
}

// ---------------------------------------------------------------------
// Observatory facade: budgets, admission, OOM sweeps, overload E2E
// ---------------------------------------------------------------------

class GovernedObservatoryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = stdfs::temp_directory_path() /
           ("governor_test_" + std::to_string(::getpid()));
    stdfs::create_directories(dir_);
    eo::SceneSpec spec;
    spec.width = 64;
    spec.height = 64;
    spec.num_fires = 3;
    for (const char* name : {"alpha", "beta", "gamma", "delta"}) {
      spec.name = name;
      spec.seed += 13;
      auto scene = eo::GenerateScene(spec);
      ASSERT_TRUE(scene.ok());
      ASSERT_TRUE(vault::WriteTer(scene->ToTerRaster(),
                                  (dir_ / (std::string(name) + ".ter"))
                                      .string())
                      .ok());
    }
    ASSERT_TRUE(veo_.AttachArchive(dir_.string()).ok());
  }
  void TearDown() override { stdfs::remove_all(dir_); }

  static noa::ChainConfig FireConfig() {
    noa::ChainConfig config;
    config.classifier.kind = noa::ClassifierKind::kThreshold;
    config.classifier.threshold_kelvin = 315.0;
    return config;
  }

  stdfs::path dir_;
  core::VirtualEarthObservatory veo_;
};

TEST_F(GovernedObservatoryTest, QueryFailsCleanlyUnderATinyBudget) {
  MemoryBudget tiny("tiny-root", 16);
  Result<storage::Table> starved = [&] {
    ScopedBudget scope(&tiny);
    return veo_.Sql("SELECT satellite, count(*) AS n FROM vault_rasters "
                    "GROUP BY satellite");
  }();
  ASSERT_FALSE(starved.ok());
  EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(tiny.used(), 0u);
  // The same statement succeeds with room, and the governor leaves no
  // residue: an ungoverned rerun gives the identical table.
  MemoryBudget roomy("roomy-root", 64u << 20);
  Result<storage::Table> governed = [&] {
    ScopedBudget scope(&roomy);
    return veo_.Sql("SELECT satellite, count(*) AS n FROM vault_rasters "
                    "GROUP BY satellite");
  }();
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  EXPECT_EQ(roomy.used(), 0u);
  auto ungoverned = veo_.Sql(
      "SELECT satellite, count(*) AS n FROM vault_rasters "
      "GROUP BY satellite");
  ASSERT_TRUE(ungoverned.ok());
  EXPECT_EQ(governed->ToString(1000), ungoverned->ToString(1000));
}

TEST_F(GovernedObservatoryTest, OomInjectionSweepNeverCrashesOrLeaks) {
  ASSERT_TRUE(veo_.RegisterRaster("alpha").ok());
  const std::string query =
      "SELECT count(*) AS n FROM alpha WHERE LANDMASK > 0.5";
  MemoryBudget root("sweep-root", MemoryBudget::kUnlimited);
  FaultInjectingBudget injector(&root);
  ScopedBudget scope(&injector);

  // Baseline: armed at 0, a pass-through that learns the reservation
  // count. Then refuse the k-th reservation for every k: each run must
  // fail with a clean kResourceExhausted (no crash, no bad_alloc escape)
  // and leave the budget balanced at zero.
  std::optional<Result<storage::Table>> baseline;
  uint64_t reservations = SweepEveryOp(
      "oom", ArmAt(&injector, BudgetFaultSpec{}),
      [&] {
        baseline = veo_.SciQl(query);
        EXPECT_TRUE(baseline->ok()) << baseline->status().ToString();
        return injector.reservations();
      },
      [&](uint64_t) {
        auto starved = veo_.SciQl(query);
        ASSERT_FALSE(starved.ok());
        EXPECT_EQ(starved.status().code(), StatusCode::kResourceExhausted)
            << starved.status().ToString();
        EXPECT_EQ(root.used(), 0u);
        EXPECT_EQ(injector.used(), 0u);
      });
  ASSERT_GT(reservations, 0u) << "query must exercise budget charges";
  ASSERT_TRUE(baseline->ok());

  // Disarmed again the result is bit-identical to the baseline.
  injector.Disarm();
  auto recovered = veo_.SciQl(query);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_EQ(recovered->ToString(1000), (*baseline)->ToString(1000));
}

TEST_F(GovernedObservatoryTest, AdmissionShedsWhenSaturated) {
  veo_.SetAdmissionConfig(AdmitConfig(1, 0, 0));
  auto held = veo_.admission().Admit(nullptr);
  ASSERT_TRUE(held.ok());
  auto shed = veo_.Sql("SELECT name FROM vault_rasters");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  held->reset();
  auto admitted = veo_.Sql("SELECT name FROM vault_rasters");
  EXPECT_TRUE(admitted.ok()) << admitted.status().ToString();
  veo_.SetAdmissionConfig(governor::AdmissionConfig{});
}

TEST_F(GovernedObservatoryTest, AdmissionHonoursTheCallersDeadline) {
  veo_.SetAdmissionConfig(AdmitConfig(1, 4, 10000));
  auto held = veo_.admission().Admit(nullptr);
  ASSERT_TRUE(held.ok());
  CancellationToken token;
  token.CancelAfter(std::chrono::milliseconds(30));
  auto expired = veo_.Sql("SELECT name FROM vault_rasters", &token);
  ASSERT_FALSE(expired.ok());
  EXPECT_EQ(expired.status().code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(veo_.admission().queued(), 0);
  held->reset();
  veo_.SetAdmissionConfig(governor::AdmissionConfig{});
}

TEST_F(GovernedObservatoryTest, ProfileShowsTheAdmitSpan) {
  auto profile = veo_.Sql("PROFILE SELECT name FROM vault_rasters");
  ASSERT_TRUE(profile.ok()) << profile.status().ToString();
  std::set<std::string> spans;
  for (size_t r = 0; r < profile->num_rows(); ++r) {
    spans.insert(profile->Get(r, 0).AsString());
  }
  EXPECT_TRUE(spans.count("governor.admit"))
      << "PROFILE output must surface queue wait";
}

TEST_F(GovernedObservatoryTest, GovernorMetricsAreExposed) {
  ASSERT_TRUE(veo_.Sql("SELECT name FROM vault_rasters").ok());
  std::string text = veo_.MetricsText();
  EXPECT_NE(text.find("teleios_governor_admission_admitted_total"),
            std::string::npos);
  EXPECT_NE(text.find("teleios_governor_query_peak_bytes"),
            std::string::npos);
  EXPECT_NE(text.find("teleios_governor_query_leak_bytes"),
            std::string::npos);
}

TEST_F(GovernedObservatoryTest, VaultIngestBreakerTripsAndRecovers) {
  auto now = std::chrono::steady_clock::now();
  veo_.vault().ingest_breaker().SetClockForTest([&now] { return now; });

  io::PosixFileSystem posix;
  io::FaultInjectingFileSystem faulty(&posix);
  io::ScopedFileSystem fs_scope(&faulty);
  io::FaultSpec spec;
  spec.kind = io::FaultKind::kIoError;
  spec.inject_at = 1;
  spec.every_n = 1;  // every operation fails
  faulty.Arm(spec);

  // Three distinct rasters fail ingestion (each quarantined after its
  // retries); the third consecutive infrastructure failure trips the
  // breaker, so the fourth is shed before doing any I/O.
  for (const char* name : {"alpha", "beta", "gamma"}) {
    auto r = veo_.vault().GetRasterArray(name);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError) << name;
  }
  EXPECT_EQ(veo_.vault().ingest_breaker().state(),
            CircuitBreaker::State::kOpen);
  uint64_t ops_before = faulty.ops();
  auto shed = veo_.vault().GetRasterArray("delta");
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(faulty.ops(), ops_before);  // shed without touching the disk

  // Recovery: the fault clears, the cool-down elapses, the half-open
  // probe succeeds and ingestion works again.
  faulty.Disarm();
  now += std::chrono::milliseconds(1000);
  auto healed = veo_.vault().GetRasterArray("delta");
  ASSERT_TRUE(healed.ok()) << healed.status().ToString();
  EXPECT_EQ(veo_.vault().ingest_breaker().state(),
            CircuitBreaker::State::kClosed);
  veo_.vault().ingest_breaker().SetClockForTest(nullptr);
}

TEST_F(GovernedObservatoryTest, ExportBreakerShedsAfterPersistentFailures) {
  noa::ProcessingChain chain(&veo_.vault(), &veo_.sciql(), &veo_.strabon(),
                             &veo_.catalog());
  auto now = std::chrono::steady_clock::now();
  chain.export_breaker().SetClockForTest([&now] { return now; });

  noa::ChainConfig config = FireConfig();
  // A file where the output directory should be: every export fails.
  stdfs::path blocker = dir_ / "not_a_directory";
  ASSERT_TRUE(io::GetFileSystem()->WriteFileAtomic(blocker.string(), "x").ok());
  config.output_dir = (blocker / "out").string();

  auto batch = chain.RunBatch({"alpha", "beta", "gamma", "delta"}, config);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->failures.size(), 4u);
  EXPECT_TRUE(batch->product_ids.empty());
  EXPECT_GE(chain.export_breaker().trips(), 1u);
  // Once the breaker tripped, later products shed with kUnavailable
  // instead of burning a retry budget each.
  bool saw_shed = false;
  for (const noa::ChainFailure& failure : batch->failures) {
    EXPECT_FALSE(failure.status.ok());
    saw_shed = saw_shed ||
               failure.status.code() == StatusCode::kUnavailable;
  }
  EXPECT_TRUE(saw_shed);

  // Recovery: cool-down elapses, a valid output directory, and the next
  // run (different classifier => different product ids) fully succeeds.
  now += std::chrono::milliseconds(1000);
  noa::ChainConfig good = FireConfig();
  good.classifier.kind = noa::ClassifierKind::kContextual;
  good.output_dir = (dir_ / "products").string();
  ASSERT_TRUE(io::GetFileSystem()->CreateDir(good.output_dir).ok());
  auto recovered = chain.RunBatch({"alpha", "beta"}, good);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  EXPECT_TRUE(recovered->failures.empty());
  EXPECT_EQ(recovered->product_ids.size(), 2u);
  EXPECT_EQ(chain.export_breaker().state(), CircuitBreaker::State::kClosed);
}

TEST_F(GovernedObservatoryTest, OverloadEndToEnd) {
  // Acceptance scenario: a batch plus queries against an undersized
  // budget shed cleanly (kResourceExhausted / kUnavailable, zero
  // crashes), the budget balances to zero, and once the budget is
  // raised the results are identical to an ungoverned run.
  MemoryBudget starved_root("starved", 1024);
  {
    ScopedBudget scope(&starved_root);
    auto batch =
        veo_.RunFireChainBatch({"alpha", "beta", "gamma"}, FireConfig());
    // Either the whole batch was refused or every product failed; both
    // are clean sheds, not crashes.
    if (batch.ok()) {
      EXPECT_EQ(batch->failures.size(), 3u);
      for (const noa::ChainFailure& failure : batch->failures) {
        EXPECT_EQ(failure.status.code(), StatusCode::kResourceExhausted)
            << failure.status.ToString();
      }
    } else {
      EXPECT_EQ(batch.status().code(), StatusCode::kResourceExhausted);
    }
    auto q = veo_.Sql("SELECT satellite, count(*) AS n FROM vault_rasters "
                      "GROUP BY satellite");
    EXPECT_TRUE(q.ok() ||
                q.status().code() == StatusCode::kResourceExhausted);
  }
  EXPECT_EQ(starved_root.used(), 0u);

  // Raise the budget: the identical batch now fully succeeds...
  MemoryBudget roomy_root("roomy", 256u << 20);
  Result<noa::ChainResult> governed = [&] {
    ScopedBudget scope(&roomy_root);
    return veo_.RunFireChainBatch({"alpha", "beta", "gamma"}, FireConfig());
  }();
  ASSERT_TRUE(governed.ok()) << governed.status().ToString();
  EXPECT_TRUE(governed->failures.empty());
  ASSERT_EQ(governed->product_ids.size(), 3u);
  EXPECT_EQ(roomy_root.used(), 0u);
  EXPECT_GT(roomy_root.peak(), 0u);

  // ... and matches an ungoverned run of the same inputs on a fresh
  // observatory, product for product and hotspot for hotspot.
  core::VirtualEarthObservatory fresh;
  ASSERT_TRUE(fresh.AttachArchive(dir_.string()).ok());
  auto baseline =
      fresh.RunFireChainBatch({"alpha", "beta", "gamma"}, FireConfig());
  ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
  EXPECT_EQ(governed->product_ids, baseline->product_ids);
  ASSERT_EQ(governed->hotspots.size(), baseline->hotspots.size());
  for (size_t i = 0; i < governed->hotspots.size(); ++i) {
    EXPECT_EQ(governed->hotspots[i].confidence,
              baseline->hotspots[i].confidence)
        << "hotspot " << i;
  }
}

}  // namespace
}  // namespace teleios
