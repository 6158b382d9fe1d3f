#include "service/artifact_registry.h"

#include <utility>

#include "analysis/logical_plan_verifier.h"

namespace sparkopt {

const std::vector<TableStats>* ServiceArtifacts::AddCatalog(
    std::vector<TableStats> catalog) {
  catalogs_.push_back(std::make_unique<const std::vector<TableStats>>(
      std::move(catalog)));
  return catalogs_.back().get();
}

Status ServiceArtifacts::AddQuery(Query q) {
  if (q.name.empty()) {
    return Status::InvalidArgument(
        "ServiceArtifacts::AddQuery: query name is the routing key and "
        "must be non-empty");
  }
  // A plan that fails verification would reach undefined behaviour in
  // the solver (an empty plan has no subQs to build a configuration from).
  const std::vector<SubQuery> subqs = q.plan.DecomposeSubQueries();
  analysis::VerifyInput in;
  in.logical_plan = &q.plan;
  in.catalog = q.catalog;
  in.subqs = &subqs;
  in.site = "ServiceArtifacts::AddQuery";
  const analysis::VerifyReport report =
      analysis::LogicalPlanVerifier().Verify(in);
  if (!report.ok()) {
    return Status::InvalidArgument("query '" + q.name +
                                   "': " + report.ToStatus().message());
  }
  const std::string name = q.name;
  if (!queries_.emplace(name, std::move(q)).second) {
    return Status::InvalidArgument(
        "ServiceArtifacts::AddQuery: duplicate query name '" + name + "'");
  }
  return Status::OK();
}

TunerOptions ServiceArtifacts::DirectTunerOptions(
    uint64_t service_seed) const {
  TunerOptions to;
  to.cluster = cluster;
  to.cost_params = cost_params;
  to.prices = prices;
  to.hmooc = hmooc;
  to.seed = service_seed;
  if (subq_model.trained()) to.learned_subq_model = &subq_model;
  return to;
}

const Query* ServiceArtifacts::FindQuery(const std::string& name) const {
  const auto it = queries_.find(name);
  return it != queries_.end() ? &it->second : nullptr;
}

uint64_t ArtifactRegistry::Publish(
    std::shared_ptr<ServiceArtifacts> artifacts) {
  MutexLock lock(mu_);
  artifacts->version = next_version_++;
  const uint64_t version = artifacts->version;
  current_ = std::move(artifacts);  // freeze: stored as pointer-to-const
  return version;
}

std::shared_ptr<const ServiceArtifacts> ArtifactRegistry::Current() const {
  MutexLock lock(mu_);
  return current_;
}

uint64_t ArtifactRegistry::current_version() const {
  MutexLock lock(mu_);
  return current_ != nullptr ? current_->version : 0;
}

}  // namespace sparkopt
