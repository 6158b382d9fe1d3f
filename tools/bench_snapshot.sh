#!/usr/bin/env bash
# Perf-trajectory snapshot: runs the solver benches in fast mode and
# collects their RESULT-line JSON into one file, so every PR can commit a
# BENCH_<tag>.json at the repo root and tools/bench_diff.py can diff
# solve times instead of guessing.
#
# Usage: tools/bench_snapshot.sh [--allow-dirty] [build_dir] [out_file]
#   build_dir  defaults to build       (needs a Release build of bench/)
#   out_file   defaults to BENCH_snapshot.json
#   SPARKOPT_SNAPSHOT_REPEATS  bench repetitions (default 3)
#
# A snapshot taken from a dirty tree records a git_sha that does not
# describe the benched code, which poisons every later bench_diff
# against it — so dirty trees are refused unless --allow-dirty is given
# (the snapshot is then marked "git_dirty": true).
#
# Each bench runs SPARKOPT_SNAPSHOT_REPEATS times; records sharing one
# key tuple (the config axes declared in tools/bench_schema.json) are
# aggregated, every numeric metric becoming {"mean", "stddev", "runs"}.
# Output shape:
#   {"meta": {git_sha, git_dirty, date_utc, host, nproc, cpu_model,
#             repeats, schema_version},
#    "results": {"<result name>": [aggregated record, ...], ...}}
set -euo pipefail

ALLOW_DIRTY=0
if [[ "${1:-}" == "--allow-dirty" ]]; then
  ALLOW_DIRTY=1
  shift
fi

BUILD_DIR=${1:-build}
OUT=${2:-BENCH_snapshot.json}
REPEATS=${SPARKOPT_SNAPSHOT_REPEATS:-3}
SCHEMA="$(dirname "$0")/bench_schema.json"

if [[ ! -x "${BUILD_DIR}/bench/bench_hmooc_solver" ]]; then
  echo "bench_snapshot: ${BUILD_DIR}/bench/ not built (cmake --build ${BUILD_DIR} -j)" >&2
  exit 1
fi

if [[ ${ALLOW_DIRTY} -eq 0 ]] && \
   git -C "$(dirname "$0")/.." status --porcelain 2>/dev/null | grep -q .; then
  echo "bench_snapshot: working tree is dirty — the snapshot's git_sha" >&2
  echo "would not describe the benched code. Commit/stash first, or pass" >&2
  echo "--allow-dirty to record the snapshot anyway (marked git_dirty)." >&2
  exit 1
fi

tmp=$(mktemp)
trap 'rm -f "${tmp}"' EXIT

# --benchmark_filter='^$' skips the google-benchmark timing loops: only
# the directly measured RESULT emitters run, which keeps the snapshot
# fast and its records comparable across machines of one CI pool.
for ((rep = 0; rep < REPEATS; ++rep)); do
  SPARKOPT_BENCH_FAST=1 "${BUILD_DIR}/bench/bench_hmooc_solver" \
    --benchmark_filter='^$' | grep '^RESULT ' >> "${tmp}"
  SPARKOPT_BENCH_FAST=1 "${BUILD_DIR}/bench/bench_dag_aggregation" \
    | grep '^RESULT ' >> "${tmp}"
  SPARKOPT_BENCH_FAST=1 "${BUILD_DIR}/bench/bench_pareto_ops" \
    --benchmark_filter='^$' | grep '^RESULT ' >> "${tmp}"
  SPARKOPT_BENCH_FAST=1 "${BUILD_DIR}/bench/bench_model_inference" \
    --benchmark_filter='^$' | grep '^RESULT ' >> "${tmp}"
  # Low-load open-loop service run: throughput/latency/speedup records
  # (fast mode shrinks the request counts, not the config matrix).
  SPARKOPT_BENCH_FAST=1 "${BUILD_DIR}/bench/bench_tuning_service" \
    | grep '^RESULT ' >> "${tmp}"
done
# The pruning/observability bench drives the full tuner and measures its
# own repeats internally — run it once.
SPARKOPT_BENCH_FAST=1 "${BUILD_DIR}/bench/bench_runtime_overhead" \
  | grep '^RESULT ' >> "${tmp}"

GIT_SHA=$(git -C "$(dirname "$0")/.." rev-parse --short HEAD 2>/dev/null || echo unknown)
GIT_DIRTY=$(git -C "$(dirname "$0")/.." status --porcelain 2>/dev/null | grep -q . && echo true || echo false)
# Host data, so a snapshot says what hardware its timings come from.
NPROC=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 0)

python3 - "${tmp}" "${OUT}" "${SCHEMA}" "${REPEATS}" "${GIT_SHA}" "${GIT_DIRTY}" "${NPROC}" <<'EOF'
import datetime
import json
import math
import platform
import socket
import sys

(lines_path, out_path, schema_path, repeats, git_sha, git_dirty,
 nproc) = sys.argv[1:8]


def cpu_model():
    """The CPU model name from /proc/cpuinfo, else what platform knows."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


with open(schema_path, encoding="utf-8") as f:
    schema = json.load(f)["results"]

# Group records by (name, key tuple); collect every numeric field's
# samples across repeats. Non-numeric fields (and unregistered names'
# whole records) pass through from the last occurrence.
groups = {}
with open(lines_path, encoding="utf-8") as f:
    for line in f:
        _, name, payload = line.split(" ", 2)
        rec = json.loads(payload)
        spec = schema.get(name)
        keys = spec["keys"] if spec else [
            k for k, v in rec.items() if not isinstance(v, float)]
        key = tuple((k, rec.get(k)) for k in keys)
        slot = groups.setdefault((name, key), {"fields": {}, "samples": {}})
        for field, value in rec.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                slot["fields"][field] = value
            elif field in dict(key):
                slot["fields"][field] = value
            else:
                slot["samples"].setdefault(field, []).append(float(value))

results = {}
for (name, key), slot in groups.items():
    rec = dict(slot["fields"])
    for field, samples in slot["samples"].items():
        mean = sum(samples) / len(samples)
        var = sum((s - mean) ** 2 for s in samples) / len(samples)
        rec[field] = {"mean": mean, "stddev": math.sqrt(var),
                      "runs": len(samples)}
    results.setdefault(name, []).append(rec)

snapshot = {
    "meta": {
        "git_sha": git_sha,
        "git_dirty": git_dirty == "true",
        "date_utc": datetime.datetime.now(datetime.timezone.utc)
                    .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": socket.gethostname(),
        "nproc": int(nproc),
        "cpu_model": cpu_model(),
        "repeats": int(repeats),
        "schema_version": 1,
    },
    "results": results,
}
with open(out_path, "w", encoding="utf-8") as f:
    json.dump(snapshot, f, indent=1)
    f.write("\n")
print(f"bench_snapshot: wrote {sum(map(len, results.values()))} aggregated "
      f"records ({', '.join(sorted(results))}) to {out_path}")
EOF
