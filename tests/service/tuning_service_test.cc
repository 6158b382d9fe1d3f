#include "service/tuning_service.h"

#include <gtest/gtest.h>

#include <cmath>
#include <future>
#include <limits>
#include <vector>

#include "obs/openmetrics.h"
#include "obs/trace.h"
#include "service/model_bootstrap.h"
#include "tuner/tuner.h"
#include "workload/tpch.h"

namespace sparkopt {
namespace {

HmoocOptions FastHmooc() {
  HmoocOptions h;
  h.theta_c_samples = 24;
  h.clusters = 6;
  h.theta_p_samples = 32;
  h.enriched_samples = 8;
  return h;
}

std::shared_ptr<ServiceArtifacts> MakeArtifacts(bool learned) {
  auto a = std::make_shared<ServiceArtifacts>();
  a->name = learned ? "learned" : "analytic";
  a->hmooc = FastHmooc();
  const auto* catalog = a->AddCatalog(TpchCatalog(10));
  EXPECT_TRUE(a->AddQuery(*MakeTpchQuery(3, catalog)).ok());
  EXPECT_TRUE(a->AddQuery(*MakeTpchQuery(5, catalog)).ok());
  if (learned) {
    BootstrapOptions bo;
    bo.samples_per_query = 12;
    bo.hidden = {16, 8};
    bo.epochs = 20;
    auto reg = FitSubQRegressor(
        {a->FindQuery("TPCH-Q3"), a->FindQuery("TPCH-Q5")}, a->cluster,
        a->cost_params, a->prices, bo);
    EXPECT_TRUE(reg.ok()) << reg.status().ToString();
    a->subq_model = *reg;
  }
  return a;
}

/// The standalone reference the service must reproduce bit for bit.
TuningOutcome DirectRun(const ServiceArtifacts& a, const std::string& query,
                        uint64_t service_seed,
                        const std::vector<double>& pref = {0.9, 0.1}) {
  TunerOptions to;
  to.cluster = a.cluster;
  to.cost_params = a.cost_params;
  to.prices = a.prices;
  to.hmooc = a.hmooc;
  to.eval_cache_capacity = a.eval_cache_capacity;
  to.seed = service_seed;
  to.preference = pref;
  if (a.subq_model.trained()) to.learned_subq_model = &a.subq_model;
  Tuner tuner(to);
  auto out = tuner.Run(*a.FindQuery(query), TuningMethod::kHmooc3);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return *out;
}

MooRunResult DirectSolve(const ServiceArtifacts& a, const std::string& query,
                         uint64_t service_seed) {
  return DirectRun(a, query, service_seed).moo;
}

void ExpectSameFront(const MooRunResult& got, const MooRunResult& want) {
  ASSERT_EQ(got.pareto.size(), want.pareto.size());
  for (size_t i = 0; i < got.pareto.size(); ++i) {
    // operator== on vector<double> is exact: any drift is a bug.
    EXPECT_EQ(got.pareto[i].objectives, want.pareto[i].objectives)
        << "objectives of solution " << i;
    EXPECT_EQ(got.pareto[i].conf, want.pareto[i].conf)
        << "conf of solution " << i;
    EXPECT_EQ(got.pareto[i].per_subq_conf, want.pareto[i].per_subq_conf)
        << "per-subq conf of solution " << i;
  }
}

TEST(TuningServiceTest, SolvesAreBitwiseIdenticalToDirectTuner) {
  for (const bool learned : {false, true}) {
    auto artifacts = MakeArtifacts(learned);
    ArtifactRegistry registry;
    registry.Publish(artifacts);
    const MooRunResult want_q3 = DirectSolve(*artifacts, "TPCH-Q3", 17);
    const MooRunResult want_q5 = DirectSolve(*artifacts, "TPCH-Q5", 17);

    for (const int sessions : {1, 2, 4}) {
      TuningServiceOptions opts;
      opts.sessions = sessions;
      TuningService service(&registry, opts);
      // Several concurrent repeats per query: cache hits and coalesced
      // inference batches must not perturb a single bit.
      std::vector<std::future<Result<TuningServiceResult>>> futures;
      for (int rep = 0; rep < 3; ++rep) {
        futures.push_back(service.Submit({"TPCH-Q3"}));
        futures.push_back(service.Submit({"TPCH-Q5"}));
      }
      for (size_t i = 0; i < futures.size(); ++i) {
        auto res = futures[i].get();
        ASSERT_TRUE(res.ok())
            << "learned=" << learned << " sessions=" << sessions << ": "
            << res.status().ToString();
        const bool is_q3 = i % 2 == 0;
        ExpectSameFront(res->moo, is_q3 ? want_q3 : want_q5);
        EXPECT_EQ(res->used_learned_model, learned);
        EXPECT_EQ(res->artifact_version, artifacts->version);
        EXPECT_GT(res->solve_seconds, 0.0);
      }
    }
  }
}

TEST(TuningServiceTest, RepeatedQueriesHitTheFrontMemo) {
  auto artifacts = MakeArtifacts(/*learned=*/false);
  ArtifactRegistry registry;
  registry.Publish(artifacts);
  TuningServiceOptions opts;
  opts.sessions = 1;
  TuningService service(&registry, opts);

  auto first = service.Submit({"TPCH-Q3", "t", {0.9, 0.1}}).get();
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->memo_hit);

  // A different preference reuses the front: only the WUN pick differs.
  const std::vector<double> pref = {0.2, 0.8};
  auto second = service.Submit({"TPCH-Q3", "t", pref}).get();
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->memo_hit);
  ExpectSameFront(second->moo, first->moo);
  EXPECT_EQ(second->moo.evaluations, first->moo.evaluations);

  const TuningOutcome direct = DirectRun(*artifacts, "TPCH-Q3", 17, pref);
  ExpectSameFront(second->moo, direct.moo);
  EXPECT_EQ(second->chosen.objectives, direct.chosen.objectives);
  EXPECT_EQ(second->chosen.conf, direct.chosen.conf);
  EXPECT_EQ(second->chosen.per_subq_conf, direct.chosen.per_subq_conf);

  const auto stats = service.stats();
  EXPECT_EQ(stats.memo_misses, 1u);
  EXPECT_EQ(stats.memo_hits, 1u);
  EXPECT_EQ(stats.memo_waits, 0u);
  EXPECT_EQ(service.memo().size(), 1u);
  EXPECT_EQ(service.shared_cache(), nullptr);
}

TEST(TuningServiceTest, DistinctQueriesNeverShareAMemoEntry) {
  auto artifacts = MakeArtifacts(/*learned=*/false);
  ArtifactRegistry registry;
  registry.Publish(artifacts);
  TuningServiceOptions opts;
  opts.sessions = 1;
  TuningService service(&registry, opts);
  auto q3 = service.Submit({"TPCH-Q3"}).get();
  ASSERT_TRUE(q3.ok());
  // Same service and version, different query: q5 solves its own front.
  auto q5 = service.Submit({"TPCH-Q5"}).get();
  ASSERT_TRUE(q5.ok());
  EXPECT_FALSE(q3->memo_hit);
  EXPECT_FALSE(q5->memo_hit);
  ExpectSameFront(q3->moo, DirectSolve(*artifacts, "TPCH-Q3", 17));
  ExpectSameFront(q5->moo, DirectSolve(*artifacts, "TPCH-Q5", 17));
  EXPECT_EQ(service.stats().memo_misses, 2u);
  EXPECT_EQ(service.stats().memo_hits, 0u);
  EXPECT_EQ(service.memo().size(), 2u);
}

TEST(TuningServiceTest, PublishInvalidatesTheFrontMemo) {
  ArtifactRegistry registry;
  const uint64_t v1 = registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningServiceOptions opts;
  opts.sessions = 1;
  TuningService service(&registry, opts);
  ASSERT_TRUE(service.Submit({"TPCH-Q3"}).get().ok());
  ASSERT_TRUE(service.Submit({"TPCH-Q5"}).get().ok());
  EXPECT_EQ(service.memo().size(), 2u);

  auto v2_artifacts = MakeArtifacts(/*learned=*/true);
  const uint64_t v2 = registry.Publish(v2_artifacts);
  ASSERT_NE(v1, v2);
  auto after = service.Submit({"TPCH-Q3"}).get();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->artifact_version, v2);
  EXPECT_FALSE(after->memo_hit);
  ExpectSameFront(after->moo, DirectSolve(*v2_artifacts, "TPCH-Q3", 17));
  // The first v2 request dropped every v1 entry.
  EXPECT_EQ(service.memo().size(), 1u);

  auto again = service.Submit({"TPCH-Q3"}).get();
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->memo_hit);
  ExpectSameFront(again->moo, after->moo);
  EXPECT_EQ(service.stats().memo_misses, 3u);
  EXPECT_EQ(service.stats().memo_hits, 1u);
}

TEST(TuningServiceTest, InFlightOldVersionNeitherReadsNorFillsTheMemo) {
  // Requests on both sides of a Publish, racing on four sessions: each
  // result must be its own snapshot's front, whatever the interleaving.
  auto a1 = MakeArtifacts(/*learned=*/false);
  auto a2 = MakeArtifacts(/*learned=*/true);
  ArtifactRegistry registry;
  const uint64_t v1 = registry.Publish(a1);
  const MooRunResult want_v1 = DirectSolve(*a1, "TPCH-Q3", 17);
  const MooRunResult want_v2 = DirectSolve(*a2, "TPCH-Q3", 17);
  TuningServiceOptions opts;
  opts.sessions = 4;
  TuningService service(&registry, opts);
  std::vector<std::future<Result<TuningServiceResult>>> futures;
  for (int i = 0; i < 8; ++i) futures.push_back(service.Submit({"TPCH-Q3"}));
  const uint64_t v2 = registry.Publish(a2);
  for (int i = 0; i < 8; ++i) futures.push_back(service.Submit({"TPCH-Q3"}));
  for (auto& f : futures) {
    auto res = f.get();
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    ASSERT_TRUE(res->artifact_version == v1 || res->artifact_version == v2);
    ExpectSameFront(res->moo,
                    res->artifact_version == v1 ? want_v1 : want_v2);
  }
  // After the drain only the v2 front remains, and a new request reads
  // it rather than anything a late v1 solve could have left behind.
  EXPECT_EQ(service.memo().size(), 1u);
  auto late = service.Submit({"TPCH-Q3"}).get();
  ASSERT_TRUE(late.ok());
  EXPECT_TRUE(late->memo_hit);
  EXPECT_EQ(late->artifact_version, v2);
  ExpectSameFront(late->moo, want_v2);
}

TEST(TuningServiceTest, ConcurrentMissesOnOneKeyRunOneSolve) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/true));
  TuningServiceOptions opts;
  opts.sessions = 4;
  TuningService service(&registry, opts);
  constexpr int kRequests = 12;
  std::vector<std::future<Result<TuningServiceResult>>> futures;
  for (int i = 0; i < kRequests; ++i) {
    futures.push_back(service.Submit({"TPCH-Q5"}));
  }
  std::vector<TuningServiceResult> results;
  for (auto& f : futures) {
    auto res = f.get();
    ASSERT_TRUE(res.ok()) << res.status().ToString();
    results.push_back(std::move(*res));
  }
  for (const auto& r : results) ExpectSameFront(r.moo, results[0].moo);
  const auto stats = service.stats();
  EXPECT_EQ(stats.memo_misses, 1u);
  EXPECT_EQ(stats.memo_hits + stats.memo_waits, kRequests - 1u);
  int solved = 0;
  for (const auto& r : results) solved += r.memo_hit ? 0 : 1;
  EXPECT_EQ(solved, 1);
}

TEST(TuningServiceTest, ZeroCapacityQueueRejectsEverything) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningServiceOptions opts;
  opts.queue_capacity = 0;
  TuningService service(&registry, opts);
  auto res = service.Submit({"TPCH-Q3"}).get();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().rejected_queue_full, 1u);
}

TEST(TuningServiceTest, BoundedQueueShedsBurstOverload) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningServiceOptions opts;
  opts.sessions = 1;
  opts.queue_capacity = 2;
  TuningService service(&registry, opts);
  std::vector<std::future<Result<TuningServiceResult>>> futures;
  for (int i = 0; i < 50; ++i) {
    futures.push_back(service.Submit({"TPCH-Q3"}));
  }
  uint64_t ok = 0, rejected = 0;
  for (auto& f : futures) {
    auto res = f.get();
    if (res.ok()) {
      ++ok;
    } else {
      ASSERT_EQ(res.status().code(), StatusCode::kResourceExhausted);
      ++rejected;
    }
  }
  EXPECT_EQ(ok + rejected, 50u);
  // Submitting 50 requests takes microseconds against millisecond
  // solves: the bound must have kicked in.
  EXPECT_GT(rejected, 0u);
  const auto stats = service.stats();
  EXPECT_EQ(stats.rejected_queue_full, rejected);
  EXPECT_EQ(stats.completed, ok);
}

TEST(TuningServiceTest, TenantQuotasAreEnforcedIndependently) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningServiceOptions opts;
  opts.sessions = 1;
  // rate 0: the burst is the whole budget — deterministic regardless of
  // wall time.
  opts.quotas["metered"] = TenantQuota{0.0, 2.0};
  TuningService service(&registry, opts);

  auto a = service.Submit({"TPCH-Q3", "metered"});
  auto b = service.Submit({"TPCH-Q3", "metered"});
  auto c = service.Submit({"TPCH-Q3", "metered"});
  // Unlisted tenants are unthrottled.
  auto d = service.Submit({"TPCH-Q3", "free"});

  EXPECT_TRUE(a.get().ok());
  EXPECT_TRUE(b.get().ok());
  auto over = c.get();
  ASSERT_FALSE(over.ok());
  EXPECT_EQ(over.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(d.get().ok());
  EXPECT_EQ(service.stats().rejected_quota, 1u);
}

TEST(TuningServiceTest, UnknownQueryResolvesNotFound) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningService service(&registry, {});
  auto res = service.Submit({"TPCH-Q99"}).get();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(service.stats().failed, 1u);
}

TEST(TuningServiceTest, EmptyRegistryResolvesFailedPrecondition) {
  ArtifactRegistry registry;
  TuningService service(&registry, {});
  auto res = service.Submit({"TPCH-Q3"}).get();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kFailedPrecondition);
}

TEST(TuningServiceTest, AbortShedsBacklogWithUnavailable) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningServiceOptions opts;
  opts.sessions = 1;
  opts.queue_capacity = 256;
  auto service = std::make_unique<TuningService>(&registry, opts);
  std::vector<std::future<Result<TuningServiceResult>>> futures;
  for (int i = 0; i < 32; ++i) {
    futures.push_back(service->Submit({"TPCH-Q3"}));
  }
  service->Shutdown(ThreadPool::ShutdownMode::kAbort);
  uint64_t completed = 0, shed = 0;
  for (auto& f : futures) {
    auto res = f.get();  // every future must resolve
    if (res.ok()) {
      ++completed;
    } else {
      ASSERT_EQ(res.status().code(), StatusCode::kUnavailable);
      ++shed;
    }
  }
  EXPECT_EQ(completed + shed, 32u);
  EXPECT_GT(shed, 0u);
  const auto stats = service->stats();
  EXPECT_EQ(stats.shed, shed);
  EXPECT_EQ(stats.completed, completed);
  // Submissions after shutdown resolve too (shed immediately).
  auto late = service->Submit({"TPCH-Q3"}).get();
  ASSERT_FALSE(late.ok());
  EXPECT_EQ(late.status().code(), StatusCode::kUnavailable);
  service.reset();  // drain-on-destroy after abort is a no-op
}

TEST(TuningServiceTest, HotSwapChangesVersionForNewRequestsOnly) {
  ArtifactRegistry registry;
  const uint64_t v1 = registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningServiceOptions opts;
  opts.sessions = 1;
  TuningService service(&registry, opts);

  auto before = service.Submit({"TPCH-Q3"}).get();
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->artifact_version, v1);

  const uint64_t v2 = registry.Publish(MakeArtifacts(/*learned=*/true));
  auto after = service.Submit({"TPCH-Q3"}).get();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->artifact_version, v2);
  EXPECT_TRUE(after->used_learned_model);
  // The version is part of the memo key: v2 solves afresh instead of
  // reading v1's front for the identical query.
  EXPECT_FALSE(after->memo_hit);
}

TEST(TuningServiceTest, PreferenceSelectsFromTheSameFront) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningServiceOptions opts;
  opts.sessions = 1;
  TuningService service(&registry, opts);
  auto latency_first = service.Submit({"TPCH-Q3", "t", {0.99, 0.01}}).get();
  auto cost_first = service.Submit({"TPCH-Q3", "t", {0.01, 0.99}}).get();
  ASSERT_TRUE(latency_first.ok());
  ASSERT_TRUE(cost_first.ok());
  // Same front (memo-hit repeat), different WUN pick.
  ExpectSameFront(cost_first->moo, latency_first->moo);
  if (latency_first->moo.pareto.size() > 1) {
    EXPECT_LE(latency_first->chosen.objectives[0],
              cost_first->chosen.objectives[0]);
    EXPECT_GE(latency_first->chosen.objectives[1],
              cost_first->chosen.objectives[1]);
  }
}

TEST(TuningServiceTest, PreferenceDimensionMismatchIsRejected) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningService service(&registry, {});
  auto res = service.Submit({"TPCH-Q3", "t", {1.0, 2.0, 3.0}}).get();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
}

TEST(TuningServiceTest, DimensionMismatchOnAMemoHitSkipsTheSolve) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningService service(&registry, {});
  ASSERT_TRUE(service.Submit({"TPCH-Q3"}).get().ok());
  auto res = service.Submit({"TPCH-Q3", "t", {1.0, 2.0, 3.0}}).get();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(service.stats().memo_misses, 1u);
  EXPECT_EQ(service.stats().memo_hits, 1u);
}

/// Submits one request with `pref` and expects InvalidArgument before
/// any memo lookup or solve.
void ExpectPreferenceRejected(const std::vector<double>& pref) {
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningService service(&registry, {});
  auto res = service.Submit({"TPCH-Q3", "t", pref}).get();
  ASSERT_FALSE(res.ok());
  EXPECT_EQ(res.status().code(), StatusCode::kInvalidArgument);
  const auto stats = service.stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.memo_hits + stats.memo_misses + stats.memo_waits, 0u);
  EXPECT_EQ(service.memo().size(), 0u);
}

TEST(TuningServiceTest, NaNPreferenceIsRejected) {
  ExpectPreferenceRejected({std::nan(""), 0.5});
}

TEST(TuningServiceTest, InfinitePreferenceIsRejected) {
  ExpectPreferenceRejected({std::numeric_limits<double>::infinity(), 0.5});
}

TEST(TuningServiceTest, NegativePreferenceIsRejected) {
  ExpectPreferenceRejected({1.5, -0.5});
}

TEST(TuningServiceTest, AllZeroPreferenceIsRejected) {
  ExpectPreferenceRejected({0.0, 0.0});
}

TEST(TuningServiceTest, PublishGaugesExportsMemoCounters) {
  obs::Session session;
  ArtifactRegistry registry;
  registry.Publish(MakeArtifacts(/*learned=*/false));
  TuningServiceOptions opts;
  opts.sessions = 1;
  TuningService service(&registry, opts);
  ASSERT_TRUE(service.Submit({"TPCH-Q3"}).get().ok());
  ASSERT_TRUE(service.Submit({"TPCH-Q3"}).get().ok());
  service.PublishGauges();
  const std::string text = obs::ToOpenMetricsText(session.metrics());
  EXPECT_NE(text.find("sparkopt_service_memo_hits 1\n"), std::string::npos)
      << text;
  EXPECT_NE(text.find("sparkopt_service_memo_misses 1\n"), std::string::npos);
  EXPECT_NE(text.find("sparkopt_service_memo_waits 0\n"), std::string::npos);
  EXPECT_NE(text.find("sparkopt_service_memo_entries 1\n"),
            std::string::npos);
}

}  // namespace
}  // namespace sparkopt
