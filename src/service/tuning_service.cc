#include "service/tuning_service.h"

#include <chrono>
#include <cmath>
#include <utility>

#include "obs/trace.h"
#include "tuner/tuner.h"

namespace sparkopt {

namespace {

double MicrosBetween(std::chrono::steady_clock::time_point a,
                     std::chrono::steady_clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

std::future<Result<TuningServiceResult>> Resolved(Status status) {
  std::promise<Result<TuningServiceResult>> p;
  p.set_value(std::move(status));
  return p.get_future();
}

Status ValidatePreference(const std::vector<double>& pref) {
  bool any_positive = false;
  for (const double w : pref) {
    if (!std::isfinite(w) || w < 0.0) {
      return Status::InvalidArgument(
          "preference weights must be finite and non-negative");
    }
    any_positive = any_positive || w > 0.0;
  }
  if (!any_positive) {
    return Status::InvalidArgument("preference weights are all zero");
  }
  return Status::OK();
}

}  // namespace

struct TuningService::PendingState {
  PendingState(TuningService* s, TuningRequest r)
      : svc(s),
        req(std::move(r)),
        enqueue_time(std::chrono::steady_clock::now()) {}

  PendingState(const PendingState&) = delete;
  PendingState& operator=(const PendingState&) = delete;

  ~PendingState() {
    if (!dequeued) svc->queued_.fetch_sub(1, std::memory_order_relaxed);
    if (!fulfilled) {
      // The owning task closure died without running: Shutdown(kAbort)
      // discarded the pool backlog (or the pool refused the Post). The
      // caller's future must still resolve.
      svc->shed_.fetch_add(1, std::memory_order_relaxed);
      promise.set_value(
          Status::Unavailable("tuning request shed during shutdown"));
    }
  }

  void Fulfill(Result<TuningServiceResult> r) {
    promise.set_value(std::move(r));
    fulfilled = true;
  }

  TuningService* const svc;
  const TuningRequest req;
  std::promise<Result<TuningServiceResult>> promise;
  const std::chrono::steady_clock::time_point enqueue_time;
  /// Only the thread currently owning the request mutates these; the
  /// shared_ptr refcount orders the handoff between Submit, the worker,
  /// and the destructor.
  bool fulfilled = false;
  bool dequeued = false;
};

TuningService::TuningService(ArtifactRegistry* registry,
                             TuningServiceOptions opts)
    : registry_(registry),
      opts_(std::move(opts)),
      start_(std::chrono::steady_clock::now()) {
  for (const auto& [tenant, q] : opts_.quotas) {
    quotas_.emplace(std::piecewise_construct,
                    std::forward_as_tuple(tenant),
                    std::forward_as_tuple(q.rate_per_sec, q.burst));
  }
  // dedicated_single_worker: even at sessions=1 requests must run on a
  // pool thread (Submit returns a future the caller may block on from
  // the same thread that submitted).
  const int sessions = opts_.sessions < 1 ? 1 : opts_.sessions;
  pool_ = std::make_unique<ThreadPool>(sessions,
                                       /*dedicated_single_worker=*/true);
}

TuningService::~TuningService() {
  Shutdown(ThreadPool::ShutdownMode::kDrain);
}

double TuningService::NowSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

std::future<Result<TuningServiceResult>> TuningService::Submit(
    TuningRequest req) {
  submitted_.fetch_add(1, std::memory_order_relaxed);

  // Malformed preferences fail before they cost a quota token or a solve.
  Status valid = ValidatePreference(
      req.preference.empty() ? opts_.default_preference : req.preference);
  if (!valid.ok()) {
    failed_.fetch_add(1, std::memory_order_relaxed);
    return Resolved(std::move(valid));
  }

  // Tenant quota (token bucket; tenants without an entry are free).
  {
    MutexLock lock(quota_mu_);
    auto it = quotas_.find(req.tenant);
    if (it != quotas_.end() && !it->second.TryAcquire(NowSeconds())) {
      rejected_quota_.fetch_add(1, std::memory_order_relaxed);
      return Resolved(Status::ResourceExhausted("tenant '" + req.tenant +
                                                "' over quota"));
    }
  }

  // Bounded admission queue: reserve a slot or shed.
  const uint64_t backlog = queued_.fetch_add(1, std::memory_order_relaxed);
  if (backlog >= opts_.queue_capacity) {
    queued_.fetch_sub(1, std::memory_order_relaxed);
    rejected_queue_full_.fetch_add(1, std::memory_order_relaxed);
    return Resolved(Status::ResourceExhausted("admission queue full"));
  }

  // The state now owns the reserved queue slot (released by RunOne or
  // by its destructor if the task never runs).
  auto state = std::make_shared<PendingState>(this, std::move(req));
  auto future = state->promise.get_future();
  // A false Post (service already shut down) just drops the closure;
  // the state destructor resolves the future with Unavailable.
  pool_->Post([this, state] { RunOne(state); });
  return future;
}

void TuningService::RunOne(const std::shared_ptr<PendingState>& state) {
  state->dequeued = true;
  queued_.fetch_sub(1, std::memory_order_relaxed);
  // Session workers run full solves; obs spans are main-thread-only, so
  // make them inert for everything below (metrics stay live).
  obs::ScopedSpanSuppression suppress;

  const auto start = std::chrono::steady_clock::now();
  const double wait_us = MicrosBetween(state->enqueue_time, start);
  Result<TuningServiceResult> result = Solve(state->req);
  const auto end = std::chrono::steady_clock::now();

  const double solve_us = MicrosBetween(start, end);
  queue_wait_us_.Observe(wait_us);
  solve_us_.Observe(solve_us);
  sojourn_us_.Observe(MicrosBetween(state->enqueue_time, end));
  if (result.ok()) {
    result->queue_wait_seconds = wait_us * 1e-6;
    result->solve_seconds = solve_us * 1e-6;
    completed_.fetch_add(1, std::memory_order_relaxed);
  } else {
    failed_.fetch_add(1, std::memory_order_relaxed);
  }
  state->Fulfill(std::move(result));
}

Result<TuningServiceResult> TuningService::Solve(const TuningRequest& req) {
  // Snapshot the artifact bundle once: this request sees exactly one
  // version even if a Publish lands mid-solve.
  std::shared_ptr<const ServiceArtifacts> snap = registry_->Current();
  if (snap == nullptr) {
    return Status::FailedPrecondition("no artifacts published");
  }
  const Query* query = snap->FindQuery(req.query_name);
  if (query == nullptr) {
    return Status::NotFound("unknown query '" + req.query_name + "'");
  }
  const std::vector<double>& pref =
      req.preference.empty() ? opts_.default_preference : req.preference;

  FrontMemo::Source source = FrontMemo::Source::kSolved;
  auto front = memo_.GetOrSolve(
      snap->version, query->name,
      [&]() -> Result<FrontMemo::Front> {
        auto moo = std::make_shared<const MooRunResult>(SolveCompileTimeFront(
            *query, snap->DirectTunerOptions(opts_.seed)));
        if (moo->pareto.empty()) {
          return Status::Internal("solver returned an empty Pareto set");
        }
        return FrontMemo::Front(std::move(moo));
      },
      &source);
  if (!front.ok()) return front.status();
  if (pref.size() != (*front)->pareto[0].objectives.size()) {
    return Status::InvalidArgument("preference dimensionality mismatch");
  }

  TuningServiceResult res;
  res.artifact_version = snap->version;
  res.query_name = query->name;
  res.used_learned_model = snap->subq_model.trained();
  res.memo_hit = source == FrontMemo::Source::kHit ||
                 source == FrontMemo::Source::kJoined;
  res.moo = **front;
  res.chosen = res.moo.pareto[res.moo.Recommend(pref)];
  return res;
}

void TuningService::Shutdown(ThreadPool::ShutdownMode mode) {
  pool_->Shutdown(mode);
}

TuningService::Stats TuningService::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.completed = completed_.load(std::memory_order_relaxed);
  s.failed = failed_.load(std::memory_order_relaxed);
  s.rejected_queue_full =
      rejected_queue_full_.load(std::memory_order_relaxed);
  s.rejected_quota = rejected_quota_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.memo_hits = memo_.hits();
  s.memo_misses = memo_.misses();
  s.memo_waits = memo_.waits();
  return s;
}

void TuningService::PublishGauges() const {
  const Stats s = stats();
  obs::GaugeSet("service.submitted", static_cast<double>(s.submitted));
  obs::GaugeSet("service.completed", static_cast<double>(s.completed));
  obs::GaugeSet("service.failed", static_cast<double>(s.failed));
  obs::GaugeSet("service.rejected_queue_full",
                static_cast<double>(s.rejected_queue_full));
  obs::GaugeSet("service.rejected_quota",
                static_cast<double>(s.rejected_quota));
  obs::GaugeSet("service.shed", static_cast<double>(s.shed));
  obs::GaugeSet("service.queued",
                static_cast<double>(queued_.load(std::memory_order_relaxed)));
  obs::GaugeSet("service.memo_hits", static_cast<double>(s.memo_hits));
  obs::GaugeSet("service.memo_misses", static_cast<double>(s.memo_misses));
  obs::GaugeSet("service.memo_waits", static_cast<double>(s.memo_waits));
  obs::GaugeSet("service.memo_entries", static_cast<double>(memo_.size()));
}

}  // namespace sparkopt
