#include "exec/aqe.h"

#include <gtest/gtest.h>

#include "plan/cardinality.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

CostModelParams NoNoise() {
  CostModelParams p;
  p.noise_sigma = 0.0;
  return p;
}

struct Fixture {
  std::vector<TableStats> catalog = TpchCatalog(10);
  ClusterSpec cluster;
  Simulator sim{cluster, NoNoise()};

  Query Q(int qid) { return *MakeTpchQuery(qid, &catalog); }
};

TEST(AqeDriverTest, RunsAllSubqueries) {
  Fixture fx;
  auto q = fx.Q(3);
  AqeDriver driver(&q.plan, &fx.sim);
  auto defaults = DefaultSparkConfig();
  auto r = driver.Run(DecodeContext(defaults), {DecodePlan(defaults)},
                      {DecodeStage(defaults)}, nullptr, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->exec.latency, 0.0);
  EXPECT_GE(r->waves, 2);
  // Every subQ executed exactly once.
  EXPECT_EQ(r->exec.stages.size(), driver.subqueries().size());
}

TEST(AqeDriverTest, AdaptiveVsStaticSameJoinCountWhenNoMisestimate) {
  Fixture fx;
  auto q = fx.Q(1);  // no joins at all
  AqeDriver driver(&q.plan, &fx.sim);
  auto defaults = DefaultSparkConfig();
  auto adaptive = driver.Run(DecodeContext(defaults), {DecodePlan(defaults)},
                             {DecodeStage(defaults)}, nullptr, 1, true);
  auto fixed = driver.Run(DecodeContext(defaults), {DecodePlan(defaults)},
                          {DecodeStage(defaults)}, nullptr, 1, false);
  ASSERT_TRUE(adaptive.ok());
  ASSERT_TRUE(fixed.ok());
  EXPECT_EQ(adaptive->exec.smj + adaptive->exec.shj + adaptive->exec.bhj, 0);
  EXPECT_EQ(fixed->waves, 1);
}

TEST(AqeDriverTest, ReplanningUsesTrueCardinalities) {
  // With a generous broadcast threshold and heavy underestimation, the
  // adaptive driver demotes broadcasts that static planning would keep.
  Fixture fx;
  auto q = fx.Q(9);
  AqeDriver driver(&q.plan, &fx.sim);
  auto conf = DefaultSparkConfig();
  conf[kBroadcastJoinThresholdMb] = 64;
  auto adaptive = driver.Run(DecodeContext(conf), {DecodePlan(conf)},
                             {DecodeStage(conf)}, nullptr, 1, true);
  ASSERT_TRUE(adaptive.ok());
  EXPECT_GT(adaptive->replans, 1);
  EXPECT_EQ(static_cast<int>(adaptive->final_joins.size()),
            q.plan.CountOps(OpType::kJoin));
}

TEST(AqeDriverTest, JoinCensusMatchesDecisions) {
  Fixture fx;
  auto q = fx.Q(5);
  AqeDriver driver(&q.plan, &fx.sim);
  auto defaults = DefaultSparkConfig();
  auto r = driver.Run(DecodeContext(defaults), {DecodePlan(defaults)},
                      {DecodeStage(defaults)}, nullptr, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->exec.smj + r->exec.shj + r->exec.bhj,
            static_cast<int>(r->final_joins.size()));
}

// Hook that records invocations.
class RecordingHooks : public AqeHooks {
 public:
  void OnPlanCollapsed(const LogicalPlan&, const std::vector<SubQuery>&,
                       const std::vector<bool>& completed,
                       std::vector<PlanParams>*) override {
    ++collapsed_calls;
    int done = 0;
    for (bool c : completed) done += c;
    completed_progression.push_back(done);
  }
  int collapsed_calls = 0;
  std::vector<int> completed_progression;
};

TEST(AqeDriverTest, HooksInvokedEachWave) {
  Fixture fx;
  auto q = fx.Q(3);
  AqeDriver driver(&q.plan, &fx.sim);
  RecordingHooks hooks;
  auto defaults = DefaultSparkConfig();
  auto r = driver.Run(DecodeContext(defaults), {DecodePlan(defaults)},
                      {DecodeStage(defaults)}, &hooks, 1);
  ASSERT_TRUE(r.ok());
  // Collapsed-plan hook fires between waves (waves - 1 times).
  EXPECT_EQ(hooks.collapsed_calls, r->waves - 1);
  // Completion progresses monotonically.
  for (size_t i = 1; i < hooks.completed_progression.size(); ++i) {
    EXPECT_GT(hooks.completed_progression[i],
              hooks.completed_progression[i - 1]);
  }
}

// Hook that rewrites theta_p on every wave: each wave still costs exactly
// one re-plan.
class ThetaPChangingHooks : public AqeHooks {
 public:
  void OnPlanCollapsed(const LogicalPlan&, const std::vector<SubQuery>& subqs,
                       const std::vector<bool>&,
                       std::vector<PlanParams>* theta_p) override {
    ++calls;
    theta_p->assign(subqs.size(), PlanParams{});
    (*theta_p)[0].shuffle_partitions = 100 + calls;
  }
  int calls = 0;
};

TEST(AqeDriverTest, ReplansOncePerWave) {
  Fixture fx;
  auto q = fx.Q(3);
  AqeDriver driver(&q.plan, &fx.sim);
  ThetaPChangingHooks hooks;
  auto defaults = DefaultSparkConfig();
  auto r = driver.Run(DecodeContext(defaults), {DecodePlan(defaults)},
                      {DecodeStage(defaults)}, &hooks, 1);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r->waves, 1);
  EXPECT_EQ(hooks.calls, r->waves - 1);
  EXPECT_EQ(r->replans, r->waves);
}

TEST(AqeDriverTest, NonAdaptiveInterleavingVariesWithSeed) {
  // Figure 16: with AQE off, stage interleaving is random and latency
  // varies run to run; with AQE on it is stable.
  Fixture fx;
  auto q = fx.Q(3);
  CostModelParams noisy = NoNoise();
  Simulator sim(fx.cluster, noisy);
  auto defaults = DefaultSparkConfig();
  const ContextParams tc = DecodeContext(defaults);
  const PlanParams tp = DecodePlan(defaults);
  const StageParams ts = DecodeStage(defaults);
  AqeDriver driver(&q.plan, &sim);
  auto a1 = driver.Run(tc, {tp}, {ts}, nullptr, 1, true);
  auto a2 = driver.Run(tc, {tp}, {ts}, nullptr, 1, true);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  EXPECT_DOUBLE_EQ(a1->exec.latency, a2->exec.latency);
}

}  // namespace
}  // namespace sparkopt
