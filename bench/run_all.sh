#!/usr/bin/env bash
# Runs every bench binary and merges their JSON outputs into one baseline
# file (default BENCH_local.json in the repo root, which git ignores, so a
# bare run never rewrites a committed baseline). Optionally diffs the
# fresh numbers against an earlier baseline and fails on regressions.
#
# Usage:
#   bench/run_all.sh [output.json] [--compare BASE.json] [--threshold 0.25]
#                    [--warn-only] [--threads N]
#
#   --compare BASE.json  after writing the output, compare each case's
#                        real_time against BASE.json (cases matched by
#                        binary + benchmark name; cases present in only
#                        one file are ignored)
#   --threshold F        regression tolerance as a fraction (default 0.25:
#                        fail when a case is >25% slower than the base)
#   --warn-only          print regressions but exit 0 (timings on shared
#                        runners can be noisy)
#   --threads N          export MAYBMS_THREADS=N for the run: every bench
#                        case WITHOUT an explicit threads:X axis executes
#                        its per-world loops with N workers. Results are
#                        byte-identical at any N (base/thread_pool.h);
#                        only timings change. Baselines compared across
#                        machines should pin --threads 1.
#
# Environment:
#   BUILD_DIR       build directory holding the bench binaries (default: build)
#   BENCH_MIN_TIME  per-benchmark min time (default: 0.05s — a smoke
#                   baseline; raise for stable numbers, e.g. 0.5s)
#   MAYBMS_BENCH_WARN_ONLY=1
#                   escape hatch: behave as if --warn-only was passed.
#                   The CI perf gate hard-fails by default; set this (e.g.
#                   as a repository variable) to temporarily demote a
#                   known-noisy regression to a warning without editing
#                   the workflow.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${BUILD_DIR:-build}"
MIN_TIME="${BENCH_MIN_TIME:-0.05s}"

OUT=""
COMPARE=""
THRESHOLD="0.25"
WARN_ONLY=0
if [[ "${MAYBMS_BENCH_WARN_ONLY:-0}" == "1" ]]; then
  WARN_ONLY=1
fi
while [[ $# -gt 0 ]]; do
  case "$1" in
    --compare)   COMPARE="$2"; shift 2 ;;
    --threshold) THRESHOLD="$2"; shift 2 ;;
    --warn-only) WARN_ONLY=1; shift ;;
    --threads)   export MAYBMS_THREADS="$2"; shift 2 ;;
    *)           OUT="$1"; shift ;;
  esac
done
OUT="${OUT:-BENCH_local.json}"

if ! ls "${BUILD_DIR}"/bench_* >/dev/null 2>&1; then
  echo "no bench binaries in ${BUILD_DIR}/ — build first (scripts/check.sh)" >&2
  exit 1
fi
if [[ -n "${COMPARE}" && ! -f "${COMPARE}" ]]; then
  echo "compare baseline not found: ${COMPARE}" >&2
  exit 1
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "${tmpdir}"' EXIT

for bin in "${BUILD_DIR}"/bench_*; do
  name="$(basename "${bin}")"
  echo "== ${name}" >&2
  "${bin}" --benchmark_min_time="${MIN_TIME}" \
           --benchmark_out="${tmpdir}/${name}.json" \
           --benchmark_out_format=json >&2
done

python3 - "${OUT}" "${COMPARE}" "${THRESHOLD}" "${WARN_ONLY}" \
    "${tmpdir}"/*.json <<'EOF'
import json, os, sys

out_path, compare_path, threshold, warn_only = sys.argv[1:5]
inputs = sys.argv[5:]
threshold = float(threshold)
warn_only = warn_only == "1"

merged = {"context": None, "benchmarks": {}}
for path in inputs:
    with open(path) as f:
        data = json.load(f)
    if merged["context"] is None:
        merged["context"] = data.get("context", {})
    name = os.path.splitext(os.path.basename(path))[0]
    merged["benchmarks"][name] = data.get("benchmarks", [])
with open(out_path, "w") as f:
    json.dump(merged, f, indent=1, sort_keys=True)
    f.write("\n")
total = sum(len(v) for v in merged["benchmarks"].values())
print(f"wrote {out_path}: {total} benchmark cases "
      f"from {len(inputs)} binaries")

if not compare_path:
    sys.exit(0)

def times(doc):
    out = {}
    for binary, cases in doc.get("benchmarks", {}).items():
        for case in cases:
            if case.get("run_type") == "aggregate":
                continue
            t = case.get("real_time")
            if t is not None:
                key = f"{binary}/{case.get('name')}"
                out[key] = (float(t), case.get("time_unit", "ns"))
    return out

with open(compare_path) as f:
    base = times(json.load(f))
fresh = times(merged)

common = sorted(set(base) & set(fresh))
regressions = []
improvements = 0
for key in common:
    old, unit = base[key]
    new, _ = fresh[key]
    if old <= 0:
        continue
    ratio = new / old
    if ratio > 1.0 + threshold:
        regressions.append((key, old, new, unit, ratio))
    elif ratio < 1.0 - threshold:
        improvements += 1

print(f"compared {len(common)} cases against {compare_path}: "
      f"{len(regressions)} regression(s) beyond {threshold:.0%}, "
      f"{improvements} improvement(s)")
for key, old, new, unit, ratio in regressions:
    print(f"  REGRESSION {key}: {old:.1f} -> {new:.1f} {unit} ({ratio:.2f}x)")
if regressions and not warn_only:
    sys.exit(1)
EOF
