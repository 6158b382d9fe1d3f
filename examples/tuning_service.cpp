/// \file tuning_service.cpp
/// \brief Tuning-as-a-service walkthrough: publish an artifact bundle,
/// start the in-process TuningService, and serve concurrent multi-tenant
/// tuning requests over one shared model — including a mid-flight
/// artifact hot-swap to a learned objective model.
///
///   ./tuning_service [requests_per_query]
///
/// Shows the full request path from DESIGN.md section 15: per-tenant
/// admission quotas, the bounded queue, the front memo serving repeats
/// of a query (under any preference) without solving again, and version
/// routing during a hot-swap.

#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <vector>

#include "service/model_bootstrap.h"
#include "service/tuning_service.h"
#include "workload/tpch.h"

int main(int argc, char** argv) {
  using namespace sparkopt;
  const int reps = argc > 1 ? std::atoi(argv[1]) : 4;

  // 1. Assemble and publish version 1: workload + cluster + solver
  // budget, analytic objective model (no regressor yet).
  auto v1 = std::make_shared<ServiceArtifacts>();
  v1->name = "analytic";
  v1->hmooc.theta_c_samples = 24;
  v1->hmooc.clusters = 6;
  v1->hmooc.theta_p_samples = 32;
  v1->hmooc.enriched_samples = 8;
  v1->hmooc.num_threads = 1;
  const auto* catalog = v1->AddCatalog(TpchCatalog(100.0));
  for (int qid : {3, 5, 9}) {
    auto q = MakeTpchQuery(qid, catalog);
    if (!q.ok() || !v1->AddQuery(*q).ok()) return 1;
  }

  ArtifactRegistry registry;
  registry.Publish(v1);

  // 2. Start the service: 4 concurrent sessions, a bounded admission
  // queue, and a token-bucket quota for the "batch" tenant ("ad-hoc" is
  // unthrottled).
  TuningServiceOptions opts;
  opts.sessions = 4;
  opts.queue_capacity = 64;
  opts.quotas["batch"] = TenantQuota{/*rate_per_sec=*/0.0,
                                     /*burst=*/static_cast<double>(reps)};
  TuningService service(&registry, opts);

  // 3. Concurrent requests from two tenants over the query mix. The
  // first request per (version, query) solves; repeats, and requests
  // that arrive while that solve runs, are served from the front memo.
  const std::vector<std::string> mix = {"TPCH-Q3", "TPCH-Q5", "TPCH-Q9"};
  std::vector<std::future<Result<TuningServiceResult>>> futures;
  for (int r = 0; r < reps; ++r) {
    for (const auto& name : mix) {
      futures.push_back(service.Submit({name, "ad-hoc"}));
    }
    futures.push_back(service.Submit({"TPCH-Q9", "batch", {0.1, 0.9}}));
  }
  for (auto& f : futures) {
    auto res = f.get();
    if (!res.ok()) {
      std::printf("rejected  : %s\n", res.status().ToString().c_str());
      continue;
    }
    std::printf(
        "v%llu %-8s: front %2zu, chose latency %7.2fs cost $%.4f  "
        "(solve %7.3f ms, %s)\n",
        static_cast<unsigned long long>(res->artifact_version),
        res->query_name.c_str(), res->moo.pareto.size(),
        res->chosen.objectives[0], res->chosen.objectives[1],
        res->solve_seconds * 1e3, res->memo_hit ? "memo hit" : "solved");
  }

  // 4. Hot-swap: assemble version 2 with the same workload plus a subQ
  // regressor trained from it. In-flight requests keep v1; new ones get
  // v2 (bundles are immutable once published, so v2 is built fresh).
  auto v2 = std::make_shared<ServiceArtifacts>();
  v2->name = "learned";
  v2->hmooc = v1->hmooc;
  const auto* catalog2 = v2->AddCatalog(TpchCatalog(100.0));
  for (int qid : {3, 5, 9}) {
    auto q = MakeTpchQuery(qid, catalog2);
    if (!q.ok() || !v2->AddQuery(*q).ok()) return 1;
  }
  std::vector<const Query*> queries;
  for (const auto& name : mix) queries.push_back(v2->FindQuery(name));
  BootstrapOptions bo;
  bo.samples_per_query = 16;
  auto reg = FitSubQRegressor(queries, v2->cluster, v2->cost_params,
                              v2->prices, bo);
  if (!reg.ok()) {
    std::fprintf(stderr, "bootstrap: %s\n", reg.status().ToString().c_str());
    return 1;
  }
  v2->subq_model = *reg;
  registry.Publish(std::move(v2));
  std::printf("\nhot-swapped to version %llu (learned model)\n\n",
              static_cast<unsigned long long>(registry.current_version()));

  auto swapped = service.Submit({"TPCH-Q3", "ad-hoc"}).get();
  if (swapped.ok()) {
    std::printf("v%llu %-8s: front %2zu via %s model (solve %5.1f ms)\n",
                static_cast<unsigned long long>(swapped->artifact_version),
                swapped->query_name.c_str(), swapped->moo.pareto.size(),
                swapped->used_learned_model ? "learned" : "analytic",
                swapped->solve_seconds * 1e3);
  }

  // 5. Service-level accounting.
  const auto stats = service.stats();
  std::printf(
      "\nserved %llu / submitted %llu (queue-full %llu, quota %llu)\n",
      static_cast<unsigned long long>(stats.completed),
      static_cast<unsigned long long>(stats.submitted),
      static_cast<unsigned long long>(stats.rejected_queue_full),
      static_cast<unsigned long long>(stats.rejected_quota));
  std::printf("front memo: %llu hits, %llu misses, %llu waits, %zu entries\n",
              static_cast<unsigned long long>(stats.memo_hits),
              static_cast<unsigned long long>(stats.memo_misses),
              static_cast<unsigned long long>(stats.memo_waits),
              service.memo().size());
  return 0;
}
