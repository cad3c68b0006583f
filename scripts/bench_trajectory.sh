#!/usr/bin/env bash
#
# Append one benchmark-trajectory data point to BENCH_campaign.json
# (JSON lines, one object per invocation): wall clock and summary
# metrics of a fixed micro fig4 campaign, plus micro fig20 refresh and
# fig21 subarray sweeps (fields prefixed fig20_ / fig21_). Run it on
# each commit of interest and the file becomes the performance history
# of the campaign layer — wall_seconds tracks executor efficiency,
# job_seconds_total tracks simulator cost, and the gmean metrics catch
# accuracy drift. fig20 and fig21 run with the protocol checker on, so
# the point also certifies the refresh engine and the SALP/MASA
# subsystem were violation-free at this commit. The config hash is
# recorded so points from different machine configurations are never
# compared by accident.
#
# Usage: scripts/bench_trajectory.sh [jobs]
#   jobs   Worker threads for the campaign (default: nproc).

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

jobs="${1:-$(nproc 2>/dev/null || echo 4)}"

# Fixed micro workload: fig4's sweep on a shortened window. Changing
# these invalidates comparability with older lines, so don't.
warmup=500000
measure=1000000
seed=42

# fig20 sweeps 4 refresh modes x 3 schemes and fig21 sweeps 6 salp
# variants x 2 schemes, so they get a shorter window to keep the whole
# trajectory point cheap. Same rule: fixed.
fig20_warmup=200000
fig20_measure=400000

cmake --preset default >/dev/null
cmake --build build -j "$(nproc 2>/dev/null || echo 4)" \
    --target dbpsim_bench >/dev/null

out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

./build/bench/dbpsim_bench fig4 --jobs="$jobs" --out="$out" --quiet \
    warmup="$warmup" measure="$measure" seed="$seed" \
    >/dev/null

./build/bench/dbpsim_bench fig20 --jobs="$jobs" --out="$out" --quiet \
    warmup="$fig20_warmup" measure="$fig20_measure" \
    seed="$seed" >/dev/null

./build/bench/dbpsim_bench fig21 --jobs="$jobs" --out="$out" --quiet \
    warmup="$fig20_warmup" measure="$fig20_measure" \
    seed="$seed" >/dev/null

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
date_utc="$(date -u +%Y-%m-%dT%H:%M:%SZ)"

python3 - "$out/fig4.json" "$out/fig20.json" "$out/fig21.json" \
    "$commit" "$date_utc" "$jobs" <<'EOF' >>BENCH_campaign.json
import json
import sys

doc = json.load(open(sys.argv[1]))
line = {
    "commit": sys.argv[4],
    "date": sys.argv[5],
    "jobs": int(sys.argv[6]),
    "config_hash": doc["config"]["hash"],
    "jobs_count": doc["jobs_count"],
    "wall_seconds": round(doc["wall_seconds"], 3),
    "job_seconds_total": round(doc["job_seconds_total"], 3),
}
for key, value in doc["summary"].items():
    line[key] = round(value, 4) if isinstance(value, float) else value

for prefix, path in (("fig20_", sys.argv[2]), ("fig21_", sys.argv[3])):
    sub = json.load(open(path))
    line[prefix + "wall_seconds"] = round(sub["wall_seconds"], 3)
    line[prefix + "job_seconds_total"] = round(
        sub["job_seconds_total"], 3)
    violations = sum(
        j.get("check_violations", 0) for j in sub["jobs"].values())
    line[prefix + "check_violations"] = violations
    for key, value in sub["summary"].items():
        if not key.startswith(("gmean_", "ws_gain_pct_")):
            continue
        flat = prefix + key.replace("/", "_").replace("-", "_")
        line[flat] = (round(value, 4)
                      if isinstance(value, float) else value)
print(json.dumps(line))
EOF

tail -n 1 BENCH_campaign.json
