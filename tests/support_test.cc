// Tests of the support utilities (checking macros, RNG, the JSON object
// builder) and the GPU target specs.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <optional>
#include <set>

#include "serving/protocol.h"
#include "support/check.h"
#include "support/json.h"
#include "support/rng.h"
#include "target/gpu_spec.h"

namespace alcop {
namespace {

TEST(CheckTest, PassingCheckDoesNotThrow) {
  EXPECT_NO_THROW(ALCOP_CHECK(true) << "never seen");
  EXPECT_NO_THROW(ALCOP_CHECK_EQ(2, 2));
  EXPECT_NO_THROW(ALCOP_CHECK_LT(1, 2));
}

TEST(CheckTest, FailingCheckThrowsWithMessage) {
  try {
    ALCOP_CHECK_EQ(2, 3) << "extra context";
    FAIL() << "expected CheckError";
  } catch (const CheckError& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("2 == 3"), std::string::npos) << what;
    EXPECT_NE(what.find("(2 vs 3)"), std::string::npos);
    EXPECT_NE(what.find("extra context"), std::string::npos);
    EXPECT_NE(what.find("support_test.cc"), std::string::npos);
  }
}

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.UniformInt(0, 1000), b.UniformInt(0, 1000));
  }
}

TEST(RngTest, UniformIntStaysInRange) {
  Rng rng(7);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(3, 7);
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 7);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u) << "all values of a small range must appear";
}

TEST(RngTest, UniformRealInRange) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double v = rng.Uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(RngTest, ChoiceRespectsWeights) {
  Rng rng(11);
  int counts[3] = {0, 0, 0};
  for (int i = 0; i < 3000; ++i) {
    ++counts[rng.Choice({1.0, 0.0, 9.0})];
  }
  EXPECT_EQ(counts[1], 0);
  EXPECT_GT(counts[2], counts[0] * 4);
}

TEST(RngTest, ChoiceInvalidWeightsThrow) {
  Rng rng(1);
  EXPECT_THROW(rng.Choice({}), CheckError);
  EXPECT_THROW(rng.Choice({0.0, 0.0}), CheckError);
}

TEST(RngTest, ShuffleIsAPermutation) {
  Rng rng(5);
  std::vector<int> values = {1, 2, 3, 4, 5, 6, 7, 8};
  std::vector<int> shuffled = values;
  rng.Shuffle(shuffled);
  std::multiset<int> a(values.begin(), values.end());
  std::multiset<int> b(shuffled.begin(), shuffled.end());
  EXPECT_EQ(a, b);
}

TEST(JsonObjectTest, EscapesKeysAndStrings) {
  EXPECT_EQ(support::JsonObject()
                .Str("s", "q\"b\\t\tr\rn\nc\x01")
                .Str("k\"ey", "")
                .Object(),
            R"({"s":"q\"b\\t\tr\rn\nc\u0001","k\"ey":""})");
}

TEST(JsonObjectTest, NonFiniteNumbersPrintAsNull) {
  double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(support::JsonObject()
                .Num("nan", std::numeric_limits<double>::quiet_NaN())
                .Num("pos", inf)
                .Num("neg", -inf)
                .Num("third", 1.0 / 3.0)
                .Num("whole", 3.0)
                .Object(),
            R"({"nan":null,"pos":null,"neg":null,)"
            R"("third":0.33333333333333331,"whole":3})");
}

TEST(JsonObjectTest, IntegersPrintExactlyAtTheirLimits) {
  EXPECT_EQ(support::JsonObject()
                .Int("min", std::numeric_limits<int64_t>::min())
                .Int("max", std::numeric_limits<int64_t>::max())
                .Uint("umax", std::numeric_limits<uint64_t>::max())
                .Bool("yes", true)
                .Bool("no", false)
                .Object(),
            R"({"min":-9223372036854775808,"max":9223372036854775807,)"
            R"("umax":18446744073709551615,"yes":true,"no":false})");
}

TEST(JsonObjectTest, RawNestsAndAppendSplicesMembers) {
  EXPECT_EQ(support::JsonObject().Object(), "{}");
  std::string inner = support::JsonObject().Int("a", 1).Object();
  EXPECT_EQ(support::JsonObject()
                .Raw("empty", support::JsonObject().Object())
                .Raw("inner", inner)
                .Raw("list", support::JsonArray({inner, "[]", "2"}))
                .Raw("none", support::JsonArray({}))
                .Object(),
            R"({"empty":{},"inner":{"a":1},"list":[{"a":1},[],2],"none":[]})");
  support::JsonObject tail;
  tail.Str("b", "x");
  EXPECT_EQ(support::JsonObject().Int("a", 1).Append(tail).Object(),
            R"({"a":1,"b":"x"})");
  EXPECT_EQ(support::JsonObject().Append(tail).Object(), R"({"b":"x"})");
}

TEST(JsonObjectTest, RoundTripsThroughTheProtocolParser) {
  std::string nasty = "a\"b\\c\nd\te\rf\x01g";
  std::string json =
      support::JsonObject()
          .Str("s", nasty)
          .Num("x", 1234.5678901234567)
          .Int("i", -(int64_t{1} << 53))
          .Raw("o", support::JsonObject().Bool("t", true).Object())
          .Object();
  std::optional<serving::JsonValue> parsed = serving::ParseJson(json);
  ASSERT_TRUE(parsed.has_value()) << json;
  EXPECT_EQ(parsed->Find("s")->StringOr(""), nasty);
  EXPECT_EQ(parsed->Find("x")->NumberOr(0), 1234.5678901234567);
  EXPECT_EQ(parsed->Find("i")->NumberOr(0), -9007199254740992.0);
  EXPECT_TRUE(parsed->Find("o")->Find("t")->BoolOr(false));
}

TEST(GpuSpecTest, AmpereAsyncCapabilityTable) {
  target::GpuSpec spec = target::AmpereSpec();
  using ir::MemScope;
  EXPECT_TRUE(spec.SupportsAsyncCopy(MemScope::kGlobal, MemScope::kShared,
                                     /*has_fused_op=*/false));
  EXPECT_FALSE(spec.SupportsAsyncCopy(MemScope::kGlobal, MemScope::kShared,
                                      /*has_fused_op=*/true));
  EXPECT_TRUE(spec.SupportsAsyncCopy(MemScope::kShared, MemScope::kRegister,
                                     /*has_fused_op=*/true));
  EXPECT_FALSE(spec.SupportsAsyncCopy(MemScope::kGlobal, MemScope::kRegister,
                                      /*has_fused_op=*/false));
}

TEST(GpuSpecTest, VoltaLacksCpAsync) {
  target::GpuSpec spec = target::VoltaLikeSpec();
  using ir::MemScope;
  EXPECT_FALSE(spec.SupportsAsyncCopy(MemScope::kGlobal, MemScope::kShared,
                                      /*has_fused_op=*/false));
  EXPECT_TRUE(spec.SupportsAsyncCopy(MemScope::kShared, MemScope::kRegister,
                                     /*has_fused_op=*/false));
}

TEST(GpuSpecTest, GenerationsScaleSensibly) {
  target::GpuSpec volta = target::VoltaLikeSpec();
  target::GpuSpec ampere = target::AmpereSpec();
  target::GpuSpec hopper = target::HopperLikeSpec();
  EXPECT_LT(volta.tc_flops_per_sm_per_cycle, ampere.tc_flops_per_sm_per_cycle);
  EXPECT_LT(ampere.tc_flops_per_sm_per_cycle, hopper.tc_flops_per_sm_per_cycle);
  // Compute grows faster than bandwidth: the pipelining motivation.
  double ampere_intensity = ampere.tc_flops_per_sm_per_cycle * ampere.num_sms /
                            ampere.dram_bw_bytes_per_cycle;
  double hopper_intensity = hopper.tc_flops_per_sm_per_cycle * hopper.num_sms /
                            hopper.dram_bw_bytes_per_cycle;
  EXPECT_GT(hopper_intensity, ampere_intensity);
}

TEST(GpuSpecTest, CyclesToUs) {
  target::GpuSpec spec = target::AmpereSpec();
  EXPECT_NEAR(spec.CyclesToUs(1410.0), 1.0, 1e-9);  // 1.41 GHz
}

}  // namespace
}  // namespace alcop
