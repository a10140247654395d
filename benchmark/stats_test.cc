#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

#include "core_speed.h"
#include "json.h"
#include "stats.h"
#include "trace.h"

namespace vsd::benchmark {
namespace {

std::vector<double> Ramp(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(PercentileRule, P99NeedsTenSamplesBeyond) {
  const Percentile with_1000 = NearestRank(Ramp(1000), 0.99);
  EXPECT_EQ(with_1000.value, 990.0);
  EXPECT_EQ(with_1000.beyond, 10);
  EXPECT_TRUE(with_1000.supported());

  const Percentile with_999 = NearestRank(Ramp(999), 0.99);
  EXPECT_EQ(with_999.beyond, 9);
  EXPECT_FALSE(with_999.supported());
}

TEST(PercentileRule, HighestSupportedFallsBackToWhatTheSampleAllows) {
  EXPECT_EQ(HighestSupported(Ramp(10000)).p, 0.999);
  EXPECT_EQ(HighestSupported(Ramp(5000)).p, 0.99);
  EXPECT_EQ(HighestSupported(Ramp(100)).p, 0.9);
  EXPECT_EQ(HighestSupported(Ramp(12)).p, 0.5);
}

TEST(Quartiles, MatchPythonStatisticsQuantiles) {
  // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
  const Quartiles q = QuartilesOf(Ramp(10));
  EXPECT_DOUBLE_EQ(q.q1, 2.75);
  EXPECT_DOUBLE_EQ(q.median, 5.5);
  EXPECT_DOUBLE_EQ(q.q3, 8.25);
  // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
  const Quartiles two = QuartilesOf({3.0, 1.0});
  EXPECT_DOUBLE_EQ(two.q1, 0.5);
  EXPECT_DOUBLE_EQ(two.median, 2.0);
  EXPECT_DOUBLE_EQ(two.q3, 3.5);
  EXPECT_DOUBLE_EQ(QuartilesOf({2.0, 4.0, 6.0}).RelativeSpread(), 1.0);
}

TEST(BaselineSpeed, ScalesByTheReferenceLoop) {
  // A core running the reference loop at half speed ran the operation at
  // half speed too.
  EXPECT_DOUBLE_EQ(AtBaselineSpeed(3.0, 2.0 * kBaselineReferenceUs), 1.5);
  EXPECT_DOUBLE_EQ(AtBaselineSpeed(3.0, kBaselineReferenceUs), 3.0);
  EXPECT_DOUBLE_EQ(AtBaselineSpeed(3.0, 0.0), 3.0);
}

TEST(BaselineSpeed, SamplerSamplesOnOneCpuAndRestoresTheMask) {
  cpu_set_t before{};
  ASSERT_EQ(sched_getaffinity(0, sizeof(before), &before), 0);
  {
    CoreSpeedSampler sampler(std::chrono::microseconds(200));
    cpu_set_t during{};
    ASSERT_EQ(sched_getaffinity(0, sizeof(during), &during), 0);
    EXPECT_EQ(CPU_COUNT(&during), 1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_GT(sampler.TakeMeanUs(), 0.0);
  }
  cpu_set_t after{};
  ASSERT_EQ(sched_getaffinity(0, sizeof(after), &after), 0);
  EXPECT_TRUE(CPU_EQUAL(&before, &after));
}

TEST(DueLatency, CountsGeneratorLatenessAndServeTime) {
  const int64_t due = 5'000'000'000;
  // Submitted 1.5 ms late, then 3 ms inside the serving layer.
  EXPECT_DOUBLE_EQ(DueLatencyMs(due, due + 1'500'000, 3000), 4.5);
  EXPECT_DOUBLE_EQ(DueLatencyMs(due, due, 250), 0.25);
}

PhaseOutcome Phase(double rate, int ok, double ok_ms, int missed) {
  PhaseOutcome phase;
  phase.rate = rate;
  phase.latency_ms.assign(static_cast<size_t>(ok), ok_ms);
  phase.latency_ms.insert(phase.latency_ms.end(), static_cast<size_t>(missed),
                          kMissed);
  phase.failed = missed;
  return phase;
}

TEST(DueLatency, FailedRequestsMissEveryLimit) {
  // One miss in 1000 sits beyond p99 and keeps the share at the limit.
  EXPECT_TRUE(MeetsSlo(Phase(1000, 999, 3.0, 1), SloRule{}));
  // Eleven misses reach the p99 rank itself.
  const PhaseOutcome phase = Phase(1000, 989, 3.0, 11);
  EXPECT_EQ(NearestRank(phase.latency_ms, 0.99).value, kMissed);
  EXPECT_FALSE(MeetsSlo(phase, SloRule{}));
  // Two misses in 1000 stay beyond p99 but exceed the failed share.
  EXPECT_FALSE(MeetsSlo(Phase(1000, 998, 3.0, 2), SloRule{}));
}

TEST(MaxRpsSlo, PicksTheHighestRateThatMeetsEveryCondition) {
  std::vector<PhaseOutcome> phases = {
      Phase(1000, 1200, 4.0, 0), Phase(1500, 1800, 6.0, 0),
      Phase(2000, 2400, 20.0, 0), Phase(2500, 3000, 80.0, 0),
      Phase(3000, 3600, 400.0, 0)};
  EXPECT_EQ(MaxRpsWithinSlo(phases, SloRule{}), 2000.0);

  phases[2].drain_ms = 300.0;  // Backlog still draining: fails.
  EXPECT_EQ(MaxRpsWithinSlo(phases, SloRule{}), 1500.0);

  phases[1].latency_ms.resize(900);  // p99 unsupported: fails.
  EXPECT_EQ(MaxRpsWithinSlo(phases, SloRule{}), 1000.0);

  EXPECT_EQ(MaxRpsWithinSlo({Phase(1000, 500, 1.0, 0)}, SloRule{}), 0.0);
}

TEST(GeneratorLateness, InvalidatesAPhase) {
  PhaseOutcome phase = Phase(1500, 1800, 4.0, 0);
  phase.gen_late_us_p99 = 999.0;
  EXPECT_TRUE(phase.valid());
  EXPECT_TRUE(MeetsSlo(phase, SloRule{}));
  phase.gen_late_us_p99 = 1001.0;
  EXPECT_FALSE(phase.valid());
  EXPECT_FALSE(MeetsSlo(phase, SloRule{}));
  EXPECT_EQ(MaxRpsWithinSlo({phase}, SloRule{}), 0.0);
}

TEST(SelfTime, SubtractsTheUnionOfChildrenClippedToTheParent) {
  std::vector<Span> spans(5);
  spans[0] = {"root", 0, 100, -1};
  spans[1] = {"a", 10, 30, 0};
  spans[2] = {"b", 20, 50, 0};    // Overlaps a: counted once.
  spans[3] = {"c", 90, 120, 0};   // Clipped to the parent's end.
  spans[4] = {"a.child", 15, 20, 1};  // Grandchild: only a loses it.
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 5);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[4], 5);
}

TEST(SelfTime, ScopedSpansNestPerThread) {
  Tracer& tracer = Tracer::Get();
  tracer.Enable(true);
  int outer_id = -1;
  {
    ScopedSpan outer("outer");
    outer_id = outer.id();
    ScopedSpan inner("inner");
    EXPECT_EQ(ScopedSpan::Current(), inner.id());
  }
  EXPECT_EQ(ScopedSpan::Current(), -1);
  tracer.Enable(false);
  EXPECT_EQ(tracer.Record("off", 0, 1, -1), -1);
  const std::vector<Span> spans = tracer.Spans();
  ASSERT_GE(outer_id, 0);
  EXPECT_EQ(spans[static_cast<size_t>(outer_id) + 1].parent, outer_id);
  const auto totals = TotalsByName(spans);
  EXPECT_LE(totals.at("outer").self_ns, totals.at("outer").total_ns);
}

TEST(Verdict, FollowsTheBoundAndThePairRule) {
  const std::vector<double> base = {100, 101, 99, 100, 102, 98, 100, 101,
                                    99, 100};
  std::vector<double> same = base;
  std::vector<double> worse;
  std::vector<double> better;
  for (double v : base) {
    worse.push_back(v * 1.2);
    better.push_back(v * 0.8);
  }
  EXPECT_EQ(Compare(base, same, 0.1, false).verdict, Verdict::kSame);
  EXPECT_EQ(Compare(base, worse, 0.1, false).verdict, Verdict::kWorse);
  EXPECT_NEAR(Compare(base, worse, 0.1, false).worse_by, 0.2, 1e-9);
  EXPECT_EQ(Compare(base, better, 0.1, false).verdict, Verdict::kBetter);
  // For a higher-is-better metric the same numbers flip.
  EXPECT_EQ(Compare(base, worse, 0.1, true).verdict, Verdict::kBetter);
  const std::vector<double> noisy = {50, 150, 80, 130, 100, 60, 140, 90,
                                     120, 70};
  EXPECT_EQ(Compare(noisy, noisy, 0.1, false).verdict, Verdict::kUnresolved);
}

TEST(Json, WrittenRecordsParseBack) {
  JsonWriter writer;
  writer.BeginObject()
      .Key("name").Value("a \"quoted\"\n")
      .Key("x").Value(0.1)
      .Key("n").Value(int64_t{42})
      .Key("ok").Value(true)
      .Key("list").BeginArray().Value(1.5).Raw("{\"k\":null}").EndArray()
      .EndObject();
  const auto parsed = ParseJson(writer.str());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Find("name")->string, "a \"quoted\"\n");
  EXPECT_EQ(parsed->Find("x")->number, 0.1);
  EXPECT_EQ(parsed->Find("n")->number, 42.0);
  EXPECT_TRUE(parsed->Find("ok")->boolean);
  ASSERT_EQ(parsed->Find("list")->array.size(), 2u);
  EXPECT_EQ(parsed->Find("list")->array[1].Find("k")->type,
            JsonValue::Type::kNull);
  EXPECT_FALSE(ParseJson("{\"a\": }").has_value());
  EXPECT_FALSE(ParseJson("[1, 2").has_value());
}

}  // namespace
}  // namespace vsd::benchmark
