#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>

#include "common/fault_program.h"
#include "common/logging.h"
#include "common/status.h"
#include "common/strings.h"
#include "common/value.h"

namespace teleios {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kOk);
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("table 'x'");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "table 'x'");
  EXPECT_EQ(st.ToString(), "NotFound: table 'x'");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kUnavailable); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, GovernorCodesRoundTrip) {
  // The resource-governor codes added with the overload-protection work.
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnavailable), "Unavailable");
  Status exhausted = Status::ResourceExhausted("budget refused");
  EXPECT_EQ(exhausted.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(exhausted.message(), "budget refused");
  Status shed = Status::Unavailable("shedding load");
  EXPECT_EQ(shed.code(), StatusCode::kUnavailable);
  EXPECT_EQ(shed.message(), "shedding load");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::ParseError("bad"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kParseError);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, MoveOnlyValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(5));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

Result<int> HelperReturnsEarly(bool fail) {
  TELEIOS_ASSIGN_OR_RETURN(int v, fail ? Result<int>(Status::Internal("x"))
                                       : Result<int>(7));
  return v + 1;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(*HelperReturnsEarly(false), 8);
  EXPECT_FALSE(HelperReturnsEarly(true).ok());
}

TEST(StringsTest, Split) {
  auto parts = StrSplit("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, SplitEmpty) {
  auto parts = StrSplit("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringsTest, Join) {
  EXPECT_EQ(StrJoin({"x", "y", "z"}, ", "), "x, y, z");
  EXPECT_EQ(StrJoin({}, ","), "");
}

TEST(StringsTest, Trim) {
  EXPECT_EQ(StrTrim("  hello \t\n"), "hello");
  EXPECT_EQ(StrTrim(""), "");
  EXPECT_EQ(StrTrim("   "), "");
}

TEST(StringsTest, CaseHelpers) {
  EXPECT_EQ(StrLower("SeLeCt"), "select");
  EXPECT_TRUE(StrEqualsIgnoreCase("WHERE", "where"));
  EXPECT_FALSE(StrEqualsIgnoreCase("WHERE", "wher"));
  EXPECT_TRUE(StrStartsWith("teleios.ter", "teleios"));
  EXPECT_TRUE(StrEndsWith("teleios.ter", ".ter"));
  EXPECT_FALSE(StrEndsWith("x", ".ter"));
}

TEST(StringsTest, ParseNumbers) {
  EXPECT_EQ(*ParseInt64("-42"), -42);
  EXPECT_FALSE(ParseInt64("4x").ok());
  EXPECT_FALSE(ParseInt64("").ok());
  EXPECT_DOUBLE_EQ(*ParseDouble("3.5e2"), 350.0);
  EXPECT_FALSE(ParseDouble("abc").ok());
}

TEST(StringsTest, Format) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value().type(), ValueType::kNull);
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(true).type(), ValueType::kBool);
  EXPECT_EQ(Value(int64_t{3}).AsInt64(), 3);
  EXPECT_DOUBLE_EQ(Value(2.5).AsFloat64(), 2.5);
  EXPECT_EQ(Value("hi").AsString(), "hi");
}

TEST(ValueTest, NumericCoercion) {
  EXPECT_DOUBLE_EQ(*Value(int64_t{4}).ToDouble(), 4.0);
  EXPECT_EQ(*Value(4.9).ToInt64(), 4);
  EXPECT_FALSE(Value("x").ToDouble().ok());
}

TEST(ValueTest, Truthiness) {
  EXPECT_FALSE(Value().Truthy());
  EXPECT_FALSE(Value(int64_t{0}).Truthy());
  EXPECT_TRUE(Value(int64_t{-1}).Truthy());
  EXPECT_FALSE(Value("").Truthy());
  EXPECT_TRUE(Value("x").Truthy());
}

TEST(ValueTest, CompareNumericAcrossTypes) {
  EXPECT_EQ(Value(int64_t{2}).Compare(Value(2.0)), 0);
  EXPECT_LT(Value(int64_t{1}).Compare(Value(1.5)), 0);
  EXPECT_GT(Value(2.5).Compare(Value(int64_t{2})), 0);
}

TEST(ValueTest, NullSortsFirst) {
  EXPECT_LT(Value().Compare(Value(int64_t{0})), 0);
  EXPECT_EQ(Value().Compare(Value()), 0);
}

TEST(ValueTest, StringCompare) {
  EXPECT_LT(Value("apple").Compare(Value("banana")), 0);
  EXPECT_EQ(Value("a").Compare(Value("a")), 0);
}

TEST(ValueTest, NanSortsAfterEveryNumberAndEqualsNan) {
  const Value nan(std::numeric_limits<double>::quiet_NaN());
  EXPECT_GT(nan.Compare(Value(1.0)), 0);
  EXPECT_LT(Value(std::numeric_limits<double>::infinity()).Compare(nan), 0);
  EXPECT_GT(nan.Compare(Value(int64_t{5})), 0);
  EXPECT_EQ(nan.Compare(Value(-std::nan(""))), 0);
  EXPECT_LT(Value().Compare(nan), 0);  // NULL still first
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(int64_t{12}).ToString(), "12");
  EXPECT_EQ(Value("s").ToString(), "s");
}

TEST(LoggingTest, LevelGate) {
  LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  TELEIOS_LOG(Info) << "suppressed";
  SetLogLevel(old);
}

TEST(LoggingTest, ParseLogLevel) {
  LogLevel level = LogLevel::kInfo;
  EXPECT_TRUE(ParseLogLevel("debug", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("WARNING", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("warn", &level));
  EXPECT_EQ(level, LogLevel::kWarning);
  EXPECT_TRUE(ParseLogLevel("  Error ", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_TRUE(ParseLogLevel("0", &level));
  EXPECT_EQ(level, LogLevel::kDebug);
  EXPECT_TRUE(ParseLogLevel("3", &level));
  EXPECT_EQ(level, LogLevel::kError);
  EXPECT_FALSE(ParseLogLevel("loud", &level));
  EXPECT_FALSE(ParseLogLevel("", &level));
  EXPECT_EQ(level, LogLevel::kError);  // untouched on failure
}

// --- the counted fault schedule shared by every injector --------------

/// The fate of the next `n` counted ops: '.' pass, 'F' fire, 'X' after
/// the crash.
std::string Steps(FaultProgram& program, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += ".FX"[static_cast<int>(program.Next())];
  return out;
}

TEST(FaultProgramTest, InjectAtFiresExactlyAtTheKthOp) {
  FaultProgram program;
  program.Arm(/*inject_at=*/3, /*every_n=*/0, /*crash=*/false, /*seed=*/1);
  EXPECT_EQ(Steps(program, 5), "..F..");
  EXPECT_EQ(program.ops(), 5u);
  EXPECT_EQ(program.faults(), 1u);
}

TEST(FaultProgramTest, EveryNRepeatsAfterTheFirstFault) {
  FaultProgram program;
  program.Arm(/*inject_at=*/2, /*every_n=*/3, /*crash=*/false, /*seed=*/1);
  EXPECT_EQ(Steps(program, 9), ".F..F..F.");
  EXPECT_EQ(program.faults(), 3u);
}

TEST(FaultProgramTest, CrashFailsEverythingAfterTheFirstFault) {
  FaultProgram program;
  program.Arm(/*inject_at=*/2, /*every_n=*/0, /*crash=*/true, /*seed=*/1);
  EXPECT_EQ(Steps(program, 4), ".FXX");
  EXPECT_EQ(program.Next(/*counted=*/false), FaultStep::kAfterCrash);
  EXPECT_EQ(program.ops(), 2u);  // ops after the crash are not counted
  program.Disarm();
  EXPECT_EQ(Steps(program, 2), "..");
}

TEST(FaultProgramTest, InjectAtZeroCountsButNeverFires) {
  FaultProgram program;
  EXPECT_EQ(Steps(program, 3), "...");  // never armed: counting already
  EXPECT_EQ(program.ops(), 3u);
  program.Arm(/*inject_at=*/0, /*every_n=*/1, /*crash=*/true, /*seed=*/1);
  EXPECT_EQ(Steps(program, 50), std::string(50, '.'));
  EXPECT_EQ(program.Next(/*counted=*/false), FaultStep::kPass);
  EXPECT_EQ(program.ops(), 50u);
  EXPECT_EQ(program.faults(), 0u);
}

TEST(FaultProgramTest, HitThatDoesNotApplyIsNoFault) {
  FaultProgram program;
  program.Arm(/*inject_at=*/1, /*every_n=*/0, /*crash=*/true, /*seed=*/1);
  EXPECT_EQ(program.Next(/*counted=*/true, /*applies=*/false),
            FaultStep::kPass);
  EXPECT_EQ(program.faults(), 0u);
  EXPECT_EQ(Steps(program, 1), ".");  // no crash either
}

TEST(FaultProgramTest, ArmResetsTheCountersTheCrashAndTheRng) {
  FaultProgram program;
  program.Arm(/*inject_at=*/1, /*every_n=*/0, /*crash=*/true, /*seed=*/7);
  const uint64_t first_draw = program.NextRandom();
  EXPECT_EQ(Steps(program, 2), "FX");
  program.Arm(/*inject_at=*/2, /*every_n=*/0, /*crash=*/false, /*seed=*/7);
  EXPECT_EQ(program.ops(), 0u);
  EXPECT_EQ(program.faults(), 0u);
  EXPECT_EQ(program.NextRandom(), first_draw);
  EXPECT_EQ(Steps(program, 3), ".F.");
}

}  // namespace
}  // namespace teleios
