#include "obs/report.h"

#include <gtest/gtest.h>

#include "obs/trace.h"
#include "tuner/tuner.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

obs::TuningReport SampleReport() {
  obs::TuningReport r;
  r.query = "TPCH-Q3";
  r.method = "HMOOC3+";
  r.compile_solve_seconds = 0.42;
  r.compile_evaluations = 12345;
  r.runtime_resolves = {{"lqp", 0.002, 0.5}, {"lqp", 0.001, 0.75}};
  r.runtime_overhead_seconds = 0.3;
  r.lqp_sent = 2;
  r.lqp_pruned = 3;
  r.model_inferences = 100;
  r.inference_us = {100, 5000.0, 50.0, 45.0, 90.0, 99.0};
  r.sim_stages = 7;
  r.sim_tasks = 512;
  r.sim_spilled_tasks = 3;
  r.sim_shuffle_read_bytes = 1.5e9;
  r.sim_io_bytes = 2.5e9;
  r.aqe_waves = 4;
  r.aqe_replans = 5;
  r.pareto_size = 2;
  r.pareto = {{10.0, 0.5}, {12.0, 0.4}};
  r.chosen = {10.0, 0.5};
  r.exec_latency_seconds = 9.8;
  r.exec_cost_dollars = 0.51;
  return r;
}

TEST(TuningReportTest, RuntimeResolveSeconds) {
  const auto r = SampleReport();
  EXPECT_NEAR(r.RuntimeResolveSeconds(), 0.003, 1e-12);
  EXPECT_EQ(obs::TuningReport{}.RuntimeResolveSeconds(), 0.0);
}

TEST(TuningReportTest, JsonRoundTrip) {
  const auto r = SampleReport();
  auto back_or = obs::TuningReport::FromJson(r.ToJson());
  ASSERT_TRUE(back_or.ok()) << back_or.status().ToString();
  const auto& b = *back_or;
  EXPECT_EQ(b.query, r.query);
  EXPECT_EQ(b.method, r.method);
  EXPECT_DOUBLE_EQ(b.compile_solve_seconds, r.compile_solve_seconds);
  EXPECT_EQ(b.compile_evaluations, r.compile_evaluations);
  ASSERT_EQ(b.runtime_resolves.size(), 2u);
  EXPECT_EQ(b.runtime_resolves[0].kind, "lqp");
  EXPECT_DOUBLE_EQ(b.runtime_resolves[0].seconds, 0.002);
  EXPECT_DOUBLE_EQ(b.runtime_resolves[1].at_seconds, 0.75);
  EXPECT_DOUBLE_EQ(b.runtime_overhead_seconds, r.runtime_overhead_seconds);
  EXPECT_EQ(b.lqp_sent, 2);
  EXPECT_EQ(b.lqp_pruned, 3);
  EXPECT_EQ(b.model_inferences, 100u);
  EXPECT_EQ(b.inference_us.count, 100u);
  EXPECT_DOUBLE_EQ(b.inference_us.p95, 90.0);
  EXPECT_EQ(b.sim_stages, 7);
  EXPECT_EQ(b.sim_tasks, 512);
  EXPECT_EQ(b.sim_spilled_tasks, 3);
  EXPECT_DOUBLE_EQ(b.sim_shuffle_read_bytes, 1.5e9);
  EXPECT_DOUBLE_EQ(b.sim_io_bytes, 2.5e9);
  EXPECT_EQ(b.aqe_waves, 4);
  EXPECT_EQ(b.aqe_replans, 5);
  EXPECT_EQ(b.pareto_size, 2u);
  ASSERT_EQ(b.pareto.size(), 2u);
  EXPECT_DOUBLE_EQ(b.pareto[1][0], 12.0);
  EXPECT_DOUBLE_EQ(b.chosen[0], 10.0);
  EXPECT_DOUBLE_EQ(b.exec_latency_seconds, 9.8);
  EXPECT_DOUBLE_EQ(b.exec_cost_dollars, 0.51);
}

TEST(TuningReportTest, FromJsonRejectsMalformedInput) {
  EXPECT_FALSE(obs::TuningReport::FromJson("{not json").ok());
  EXPECT_FALSE(obs::TuningReport::FromJson("[1,2,3]").ok());
}

TEST(TuningReportTest, ToTextMentionsKeyFigures) {
  const std::string text = SampleReport().ToText();
  EXPECT_NE(text.find("TPCH-Q3"), std::string::npos);
  EXPECT_NE(text.find("HMOOC3+"), std::string::npos);
  EXPECT_NE(text.find("12345 model evals"), std::string::npos);
  EXPECT_NE(text.find("512 tasks"), std::string::npos);
  EXPECT_NE(text.find("lqp re-solve"), std::string::npos);
}

TEST(TuningReportTest, EndToEndOverTpchQuery) {
  TunerOptions o;
  o.hmooc.theta_c_samples = 24;
  o.hmooc.clusters = 6;
  o.hmooc.theta_p_samples = 32;
  o.hmooc.enriched_samples = 8;
  Tuner tuner(o);
  auto catalog = TpchCatalog(10);
  auto q = *MakeTpchQuery(3, &catalog);

  obs::Session session;
  auto out = tuner.Run(q, TuningMethod::kHmooc3Plus);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const obs::TuningReport report = BuildTuningReport(*out, session);

  EXPECT_EQ(report.query, q.name);
  EXPECT_EQ(report.method, "HMOOC3+");
  EXPECT_GT(report.compile_solve_seconds, 0.0);
  EXPECT_GT(report.compile_evaluations, 0u);
  EXPECT_GT(report.model_inferences, 0u);
  EXPECT_GT(report.inference_us.p50, 0.0);
  EXPECT_GT(report.sim_stages, 0);
  EXPECT_GT(report.sim_tasks, 0);
  EXPECT_GT(report.aqe_waves, 0);
  EXPECT_GT(report.pareto_size, 0u);
  EXPECT_EQ(report.pareto.size(), report.pareto_size);
  EXPECT_GT(report.exec_latency_seconds, 0.0);
  EXPECT_GT(report.exec_cost_dollars, 0.0);
  // Runtime requests were either sent (producing resolve spans) or pruned.
  EXPECT_GT(report.lqp_sent + report.lqp_pruned, 0);
  EXPECT_EQ(report.runtime_resolves.size(),
            static_cast<size_t>(report.lqp_sent));

  // The full report survives a JSON round-trip.
  auto back = obs::TuningReport::FromJson(report.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->query, report.query);
  EXPECT_EQ(back->sim_tasks, report.sim_tasks);
  EXPECT_EQ(back->model_inferences, report.model_inferences);
  EXPECT_DOUBLE_EQ(back->exec_latency_seconds, report.exec_latency_seconds);
  // And renders as text without crashing.
  EXPECT_FALSE(report.ToText().empty());
}

}  // namespace
}  // namespace sparkopt
