// Tests for util/: Status, Result, Rng, TableWriter, json::Writer,
// Stopwatch.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <thread>

#include "util/csv.h"
#include "util/json.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/stopwatch.h"

namespace rfid {
namespace {

// ---------------------------------------------------------------- Status ---

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::Invalid("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Invalid("boom").message(), "boom");
}

TEST(StatusTest, ToStringIncludesCodeNameAndMessage) {
  const Status s = Status::NotFound("tag 7");
  EXPECT_EQ(s.ToString(), "NotFound: tag 7");
}

TEST(StatusTest, StatusCodeNameCoversAllCodes) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kOk), "OK");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kIOError), "IOError");
}

TEST(StatusTest, ReturnNotOkMacroPropagates) {
  auto fails = []() -> Status { return Status::Invalid("inner"); };
  auto outer = [&]() -> Status {
    RFID_RETURN_NOT_OK(fails());
    return Status::OK();
  };
  EXPECT_EQ(outer().code(), StatusCode::kInvalidArgument);
}

// ---------------------------------------------------------------- Result ---

TEST(ResultTest, HoldsValue) {
  Result<int> r(42);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> r(Status::NotFound("nope"));
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.value_or(-1), -1);
}

TEST(ResultTest, ValueOrReturnsValueWhenOk) {
  Result<std::string> r(std::string("hello"));
  EXPECT_EQ(r.value_or("fallback"), "hello");
}

TEST(ResultTest, MoveOutValue) {
  Result<std::unique_ptr<int>> r(std::make_unique<int>(7));
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 7);
}

// ------------------------------------------------------------------- Rng ---

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, ReseedReproduces) {
  Rng a(99);
  std::vector<uint64_t> first;
  for (int i = 0; i < 10; ++i) first.push_back(a.NextU64());
  a.Seed(99);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(a.NextU64(), first[i]);
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.NextDouble();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRespectsBounds) {
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.Uniform(-3.0, 7.5);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 7.5);
  }
}

TEST(RngTest, UniformIntCoversRangeWithoutBias) {
  Rng rng(7);
  constexpr uint64_t kBuckets = 10;
  std::vector<int> counts(kBuckets, 0);
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.UniformInt(kBuckets)];
  for (uint64_t b = 0; b < kBuckets; ++b) {
    EXPECT_NEAR(counts[b], kDraws / kBuckets, 500) << "bucket " << b;
  }
}

TEST(RngTest, UniformIntOneIsAlwaysZero) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.UniformInt(1), 0u);
}

TEST(RngTest, GaussianMomentsMatchStandardNormal) {
  Rng rng(9);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sum_sq += g * g;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.01);
  EXPECT_NEAR(sum_sq / kN, 1.0, 0.02);
}

TEST(RngTest, GaussianWithParamsShiftsAndScales) {
  Rng rng(10);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double g = rng.Gaussian(5.0, 2.0);
    sum += g;
    sum_sq += g * g;
  }
  const double mean = sum / kN;
  const double var = sum_sq / kN - mean * mean;
  EXPECT_NEAR(mean, 5.0, 0.05);
  EXPECT_NEAR(var, 4.0, 0.1);
}

TEST(RngTest, BernoulliFrequencyMatchesP) {
  Rng rng(11);
  constexpr int kN = 100000;
  int hits = 0;
  for (int i = 0; i < kN; ++i) hits += rng.Bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(12);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, CategoricalMatchesWeights) {
  Rng rng(13);
  const std::vector<double> weights = {1.0, 3.0, 6.0};
  std::vector<int> counts(3, 0);
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) ++counts[rng.Categorical(weights)];
  EXPECT_NEAR(counts[0] / static_cast<double>(kN), 0.1, 0.01);
  EXPECT_NEAR(counts[1] / static_cast<double>(kN), 0.3, 0.01);
  EXPECT_NEAR(counts[2] / static_cast<double>(kN), 0.6, 0.01);
}

TEST(RngTest, CategoricalSingleElement) {
  Rng rng(14);
  EXPECT_EQ(rng.Categorical({5.0}), 0u);
}

TEST(RngTest, CategoricalZeroWeightNeverChosen) {
  Rng rng(15);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(rng.Categorical(weights), 1u);
}

// ----------------------------------------------------------- TableWriter ---

TEST(TableWriterTest, CsvOutput) {
  TableWriter t({"a", "b"});
  ASSERT_TRUE(t.AddRow(std::vector<std::string>{"1", "2"}).ok());
  std::ostringstream os;
  t.WriteCsv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(TableWriterTest, RejectsWrongArity) {
  TableWriter t({"a", "b", "c"});
  EXPECT_FALSE(t.AddRow(std::vector<std::string>{"1"}).ok());
  EXPECT_EQ(t.num_rows(), 0u);
}

TEST(TableWriterTest, DoubleRowsUsePrecision) {
  TableWriter t({"x"});
  ASSERT_TRUE(t.AddRow(std::vector<double>{1.23456}, 2).ok());
  std::ostringstream os;
  t.WriteCsv(os);
  EXPECT_EQ(os.str(), "x\n1.23\n");
}

TEST(TableWriterTest, AlignedOutputPadsColumns) {
  TableWriter t({"name", "v"});
  ASSERT_TRUE(t.AddRow(std::vector<std::string>{"longvalue", "1"}).ok());
  std::ostringstream os;
  t.WriteAligned(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("name    "), std::string::npos);
  EXPECT_NE(out.find("longvalue"), std::string::npos);
}

TEST(FormatDoubleTest, Precision) {
  EXPECT_EQ(FormatDouble(3.14159, 3), "3.142");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

// ------------------------------------------------------------ json::Writer ---

TEST(JsonWriterTest, EscapesEveryControlByte) {
  json::Writer w;
  // 23 bytes: the NUL is part of the string.
  w.String(std::string("q\" b\\ \b\f\n\r\t \x01 \x1f \x7f \0 end", 23));
  EXPECT_EQ(w.str(),
            "\"q\\\" b\\\\ \\b\\f\\n\\r\\t \\u0001 \\u001f \x7f \\u0000 "
            "end\"");
}

TEST(JsonWriterTest, EscapesKeysLikeValues) {
  json::Writer w;
  w.BeginObject().Key("a\"\n").String("").EndObject();
  EXPECT_EQ(w.str(), "{\"a\\\"\\n\":\"\"}");
}

TEST(JsonWriterTest, NonFiniteDoublesAreNull) {
  json::Writer w;
  w.BeginArray()
      .Double(std::nan(""))
      .Double(HUGE_VAL)
      .Double(-HUGE_VAL)
      .EndArray();
  EXPECT_EQ(w.str(), "[null,null,null]");
}

TEST(JsonWriterTest, DoublesRoundTrip) {
  json::Writer w;
  w.BeginArray().Double(0.1).Double(1.5).Double(-2.0).Double(1e300).EndArray();
  EXPECT_EQ(w.str(), "[0.10000000000000001,1.5,-2,1.0000000000000001e+300]");
}

TEST(JsonWriterTest, IntegersSpanSixtyFourBits) {
  json::Writer w;
  w.BeginArray()
      .Uint(UINT64_MAX)
      .Uint(0)
      .Int(-42)
      .Int(INT64_MIN)
      .Bool(true)
      .Bool(false)
      .EndArray();
  EXPECT_EQ(w.str(),
            "[18446744073709551615,0,-42,-9223372036854775808,true,false]");
}

TEST(JsonWriterTest, EmptyContainers) {
  json::Writer object;
  object.BeginObject().EndObject();
  EXPECT_EQ(object.str(), "{}");
  json::Writer array;
  array.BeginArray().EndArray();
  EXPECT_EQ(array.str(), "[]");
}

TEST(JsonWriterTest, NestedContainersPlaceCommasBetweenMembersOnly) {
  json::Writer w;
  w.BeginObject();
  w.Key("a").BeginArray().EndArray();
  w.Key("b").BeginObject().EndObject();
  w.Key("c").BeginArray().Int(1).BeginObject().Key("d").Int(2).EndObject();
  w.BeginArray().EndArray().Int(3).EndArray();
  w.Key("e").BeginObject().Key("f").BeginObject().Key("g").Bool(false);
  w.EndObject().Key("h").String("x").EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(),
            "{\"a\":[],\"b\":{},\"c\":[1,{\"d\":2},[],3],"
            "\"e\":{\"f\":{\"g\":false},\"h\":\"x\"}}");
}

// ------------------------------------------------------------- Stopwatch ---

TEST(StopwatchTest, MeasuresElapsedTime) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  const double ms = w.ElapsedMillis();
  EXPECT_GE(ms, 15.0);
  EXPECT_LT(ms, 500.0);
}

TEST(StopwatchTest, StartResets) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  w.Start();
  EXPECT_LT(w.ElapsedMillis(), 15.0);
}

TEST(StopwatchTest, UnitsAreConsistent) {
  Stopwatch w;
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  const double s = w.ElapsedSeconds();
  const double ms = w.ElapsedMillis();
  EXPECT_NEAR(ms / 1000.0, s, 0.05);
}

}  // namespace
}  // namespace rfid
