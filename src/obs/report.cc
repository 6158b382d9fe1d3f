#include "obs/report.h"

#include <algorithm>
#include <cstdio>

namespace sparkopt {
namespace obs {

namespace {

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

Json HistToJson(const HistogramStats& st) {
  JsonObject o;
  o.emplace_back("count", Json(st.count));
  o.emplace_back("sum", Json(st.sum));
  o.emplace_back("mean", Json(st.mean));
  o.emplace_back("p50", Json(st.p50));
  o.emplace_back("p95", Json(st.p95));
  o.emplace_back("p99", Json(st.p99));
  return Json(std::move(o));
}

HistogramStats HistFromJson(const Json* j) {
  HistogramStats st;
  if (j == nullptr || !j->is_object()) return st;
  st.count = static_cast<uint64_t>(j->GetNumber("count"));
  st.sum = j->GetNumber("sum");
  st.mean = j->GetNumber("mean");
  st.p50 = j->GetNumber("p50");
  st.p95 = j->GetNumber("p95");
  st.p99 = j->GetNumber("p99");
  return st;
}

}  // namespace

double TuningReport::RuntimeResolveSeconds() const {
  double total = 0.0;
  for (const auto& r : runtime_resolves) total += r.seconds;
  return total;
}

std::string TuningReport::ToText() const {
  std::string out;
  out += "==== TuningReport: " + query + " [" + method + "] ====\n";
  out += "compile-time solve : " + Fmt("%.4f", compile_solve_seconds) +
         " s  (" + std::to_string(compile_evaluations) + " model evals)\n";
  out += "runtime re-solves  : " +
         std::to_string(runtime_resolves.size()) + " (" +
         Fmt("%.4f", RuntimeResolveSeconds()) + " s inside solver, " +
         Fmt("%.4f", runtime_overhead_seconds) + " s simulated round-trips)\n";
  out += "  requests         : LQP " + std::to_string(lqp_sent) + " sent / " +
         std::to_string(lqp_pruned) + " pruned\n";
  for (const auto& r : runtime_resolves) {
    out += "  - " + r.kind + " re-solve at " + Fmt("%.3f", r.at_seconds) +
           " s: " + Fmt("%.4f", r.seconds) + " s\n";
  }
  out += "model inference    : " + std::to_string(model_inferences) +
         " calls, p50 " + Fmt("%.1f", inference_us.p50) + " us, p95 " +
         Fmt("%.1f", inference_us.p95) + " us, p99 " +
         Fmt("%.1f", inference_us.p99) + " us\n";
  out += "simulator          : " + std::to_string(sim_stages) + " stages, " +
         std::to_string(sim_tasks) + " tasks (" +
         std::to_string(sim_spilled_tasks) + " spilled), shuffle read " +
         Fmt("%.1f", sim_shuffle_read_bytes / (1024.0 * 1024.0)) +
         " MB, io " + Fmt("%.1f", sim_io_bytes / (1024.0 * 1024.0)) +
         " MB\n";
  out += "adaptive execution : " + std::to_string(aqe_waves) + " waves, " +
         std::to_string(aqe_replans) + " re-plans\n";
  out += "pareto front       : " + std::to_string(pareto_size) +
         " solutions; chosen latency " + Fmt("%.3f", chosen[0]) +
         " s, cost $" + Fmt("%.4f", chosen[1]) + "\n";
  if (!pareto.empty()) {
    std::array<double, 2> lo = pareto.front();
    std::array<double, 2> hi = pareto.front();
    for (const auto& p : pareto) {
      for (int d = 0; d < 2; ++d) {
        lo[d] = std::min(lo[d], p[d]);
        hi[d] = std::max(hi[d], p[d]);
      }
    }
    out += "  front range      : latency [" + Fmt("%.3f", lo[0]) + ", " +
           Fmt("%.3f", hi[0]) + "] s, cost [$" + Fmt("%.4f", lo[1]) +
           ", $" + Fmt("%.4f", hi[1]) + "]\n";
  }
  out += "executed           : latency " + Fmt("%.3f", exec_latency_seconds) +
         " s, cost $" + Fmt("%.4f", exec_cost_dollars) + "\n";
  return out;
}

Json TuningReport::ToJsonValue() const {
  JsonObject root;
  root.emplace_back("query", Json(query));
  root.emplace_back("method", Json(method));

  JsonObject compile;
  compile.emplace_back("solve_seconds", Json(compile_solve_seconds));
  compile.emplace_back("evaluations", Json(compile_evaluations));
  root.emplace_back("compile", Json(std::move(compile)));

  JsonObject runtime;
  JsonArray resolves;
  for (const auto& r : runtime_resolves) {
    JsonObject o;
    o.emplace_back("kind", Json(r.kind));
    o.emplace_back("seconds", Json(r.seconds));
    o.emplace_back("at_seconds", Json(r.at_seconds));
    resolves.push_back(Json(std::move(o)));
  }
  runtime.emplace_back("resolves", Json(std::move(resolves)));
  runtime.emplace_back("overhead_seconds", Json(runtime_overhead_seconds));
  runtime.emplace_back("lqp_sent", Json(lqp_sent));
  runtime.emplace_back("lqp_pruned", Json(lqp_pruned));
  root.emplace_back("runtime", Json(std::move(runtime)));

  JsonObject model;
  model.emplace_back("inferences", Json(model_inferences));
  model.emplace_back("latency_us", HistToJson(inference_us));
  root.emplace_back("model", Json(std::move(model)));

  JsonObject sim;
  sim.emplace_back("stages", Json(sim_stages));
  sim.emplace_back("tasks", Json(sim_tasks));
  sim.emplace_back("spilled_tasks", Json(sim_spilled_tasks));
  sim.emplace_back("shuffle_read_bytes", Json(sim_shuffle_read_bytes));
  sim.emplace_back("io_bytes", Json(sim_io_bytes));
  sim.emplace_back("aqe_waves", Json(aqe_waves));
  sim.emplace_back("aqe_replans", Json(aqe_replans));
  root.emplace_back("simulator", Json(std::move(sim)));

  JsonObject outcome;
  outcome.emplace_back("pareto_size", Json(pareto_size));
  JsonArray front;
  for (const auto& p : pareto) {
    front.push_back(Json(JsonArray{Json(p[0]), Json(p[1])}));
  }
  outcome.emplace_back("pareto", Json(std::move(front)));
  outcome.emplace_back(
      "chosen", Json(JsonArray{Json(chosen[0]), Json(chosen[1])}));
  outcome.emplace_back("exec_latency_seconds", Json(exec_latency_seconds));
  outcome.emplace_back("exec_cost_dollars", Json(exec_cost_dollars));
  root.emplace_back("outcome", Json(std::move(outcome)));
  return Json(std::move(root));
}

Result<TuningReport> TuningReport::FromJson(const std::string& text) {
  auto parsed = Json::Parse(text);
  if (!parsed.ok()) return parsed.status();
  const Json& j = *parsed;
  if (!j.is_object()) {
    return Status::InvalidArgument("TuningReport: not a JSON object");
  }
  TuningReport r;
  r.query = j.GetString("query");
  r.method = j.GetString("method");

  if (const Json* compile = j.Find("compile")) {
    r.compile_solve_seconds = compile->GetNumber("solve_seconds");
    r.compile_evaluations =
        static_cast<uint64_t>(compile->GetNumber("evaluations"));
  }
  if (const Json* runtime = j.Find("runtime")) {
    if (const Json* resolves = runtime->Find("resolves");
        resolves != nullptr && resolves->is_array()) {
      for (const Json& o : resolves->as_array()) {
        ResolveRecord rec;
        rec.kind = o.GetString("kind");
        rec.seconds = o.GetNumber("seconds");
        rec.at_seconds = o.GetNumber("at_seconds");
        r.runtime_resolves.push_back(std::move(rec));
      }
    }
    r.runtime_overhead_seconds = runtime->GetNumber("overhead_seconds");
    r.lqp_sent = static_cast<int64_t>(runtime->GetNumber("lqp_sent"));
    r.lqp_pruned = static_cast<int64_t>(runtime->GetNumber("lqp_pruned"));
  }
  if (const Json* model = j.Find("model")) {
    r.model_inferences =
        static_cast<uint64_t>(model->GetNumber("inferences"));
    r.inference_us = HistFromJson(model->Find("latency_us"));
  }
  if (const Json* sim = j.Find("simulator")) {
    r.sim_stages = static_cast<int64_t>(sim->GetNumber("stages"));
    r.sim_tasks = static_cast<int64_t>(sim->GetNumber("tasks"));
    r.sim_spilled_tasks =
        static_cast<int64_t>(sim->GetNumber("spilled_tasks"));
    r.sim_shuffle_read_bytes = sim->GetNumber("shuffle_read_bytes");
    r.sim_io_bytes = sim->GetNumber("io_bytes");
    r.aqe_waves = static_cast<int64_t>(sim->GetNumber("aqe_waves"));
    r.aqe_replans = static_cast<int64_t>(sim->GetNumber("aqe_replans"));
  }
  if (const Json* outcome = j.Find("outcome")) {
    r.pareto_size = static_cast<size_t>(outcome->GetNumber("pareto_size"));
    if (const Json* front = outcome->Find("pareto");
        front != nullptr && front->is_array()) {
      for (const Json& p : front->as_array()) {
        if (p.is_array() && p.as_array().size() == 2) {
          r.pareto.push_back({p.as_array()[0].as_double(),
                              p.as_array()[1].as_double()});
        }
      }
    }
    if (const Json* chosen = outcome->Find("chosen");
        chosen != nullptr && chosen->is_array() &&
        chosen->as_array().size() == 2) {
      r.chosen = {chosen->as_array()[0].as_double(),
                  chosen->as_array()[1].as_double()};
    }
    r.exec_latency_seconds = outcome->GetNumber("exec_latency_seconds");
    r.exec_cost_dollars = outcome->GetNumber("exec_cost_dollars");
  }
  return r;
}

}  // namespace obs
}  // namespace sparkopt
