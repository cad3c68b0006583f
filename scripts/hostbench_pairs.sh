#!/usr/bin/env bash
#
# Alternating parent/change host-time pairs on hostbench workloads:
# the measurement a change that claims a host-time gain (or claims
# none is lost) reports.
#
# Checks out <parent-ref> and HEAD as git worktrees at equal-length
# paths under a temporary directory (code layout depends on path
# lengths through __FILE__), builds each through hostbench/run.py and
# runs N pairs per workload, alternating which side runs first. Pair i
# of the w-th workload runs both sides on seed S0 + w * N + i.
#
# Prints, per workload and per end-to-end metric named in
# BENCHMARK.json (which it only reads), each side's median and
# quartiles, the change/parent ratio of the medians, the change's
# wins (ties count for neither side), whether the gain rule holds (the
# change wins at least 9 of every 10 pairs and the medians lie further
# apart than the parent's interquartile range) and a bound verdict:
# WORSE when the change's median is worse than the parent's by more
# than the metric's relative bound (bound times the parent median's
# magnitude), else within. A line per workload names the metrics
# outside their bound. Every pair's host-time values are printed too.
#
# After the pairs, each workload gets four traced rotations
# (--seconds 0 --trace 1) on seed S0 + workloads * N, which no pair
# used. A rotation runs one traced run per side, one run at a time,
# alternating which side goes first: two runs at once on a shared host
# move per-layer host times by 10-30 %, and so would runs taken
# minutes apart without the alternation. Every per-layer metric is
# printed with each side's median and [min, max] over the rotations
# and the change/parent ratio of the medians, so that a ratio can be
# read against each side's run-to-run spread.
#
# Exits non-zero when a run fails or reports "correct": false or
# failed > 0, when the two runs of a pair print different digests or
# different ws_*/ms_* ratios, and when any two traced runs of a
# workload print different digests or differ in a simulated count: any
# per-layer metric whose unit is not ns/cycle, s or %, except
# sim.executor_busy_frac. The worktrees are removed at exit. On
# SIGINT, SIGTERM or SIGHUP the build or run in progress is stopped
# with all its processes before the worktrees go, and the script exits
# with 128 + the signal number.
#
# Usage: scripts/hostbench_pairs.sh <parent-ref> <workload>...
#            [--pairs N] [--seconds S] [--seed S0]
#   --pairs N    pairs per workload (default 10)
#   --seconds S  hostbench run length (default 30)
#   --seed S0    first seed (default 1)
#
# Example: scripts/hostbench_pairs.sh main mix_intensive mix_light

set -euo pipefail

usage() {
    sed -n '/^# Usage:/,/^#   --seed/p' "${BASH_SOURCE[0]}" |
        sed 's/^# \{0,1\}//' >&2
    exit 2
}

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

pairs=10
seconds=30
seed0=1
parent_ref=""
workloads=()
while [ $# -gt 0 ]; do
    case "$1" in
      --pairs) pairs="${2:?}"; shift 2 ;;
      --seconds) seconds="${2:?}"; shift 2 ;;
      --seed) seed0="${2:?}"; shift 2 ;;
      -*) usage ;;
      *) if [ -z "$parent_ref" ]; then parent_ref="$1"
         else workloads+=("$1"); fi
         shift ;;
    esac
done
[ -n "$parent_ref" ] && [ "${#workloads[@]}" -gt 0 ] || usage
case "$pairs" in ''|*[!0-9]*|0) usage ;; esac
case "$seed0" in ''|*[!0-9]*) usage ;; esac

parent_sha="$(git rev-parse --verify "$parent_ref^{commit}")"
change_sha="$(git rev-parse --verify HEAD)"

tmp="$(mktemp -d "${TMPDIR:-/tmp}/hostbench-pairs.XXXXXX")"
child=""
cleanup() {
    for side in parent change; do
        [ -d "$tmp/$side" ] &&
            git worktree remove --force "$tmp/$side" >/dev/null 2>&1
    done
    git worktree prune
    rm -rf "$tmp"
}
# Stops the build or run in progress: SIGTERM to its whole process
# group, up to 5 s for the group to empty, then SIGKILL for what is
# left, so that the EXIT trap never removes a worktree something still
# runs in. Then exits with $1.
interrupted() {
    trap '' INT TERM HUP
    if [ -n "$child" ]; then
        kill -TERM -- "-$child" 2>/dev/null || true
        wait "$child" 2>/dev/null || true
        for _ in $(seq 50); do
            kill -0 -- "-$child" 2>/dev/null || break
            sleep 0.1
        done
        kill -KILL -- "-$child" 2>/dev/null || true
    fi
    exit "$1"
}
trap cleanup EXIT
trap 'interrupted 129' HUP
trap 'interrupted 130' INT
trap 'interrupted 143' TERM

# Runs a command in a process group of its own and waits for it. bash
# holds a trap until a foreground command ends, but a trapped signal
# interrupts `wait`, so interrupted() runs at once and can signal the
# whole group. Returns the command's exit status.
supervise() {
    setsid "$@" &
    child=$!
    local status=0
    wait "$child" || status=$?
    child=""
    return "$status"
}

# "parent" and "change" have the same length, so both trees' paths do.
git worktree add --detach "$tmp/parent" "$parent_sha" >/dev/null 2>&1
git worktree add --detach "$tmp/change" "$change_sha" >/dev/null 2>&1
mkdir "$tmp/out"
echo "parent $parent_sha, change $change_sha" >&2

# One run: side, workload, seed, output stem and, when the fifth
# argument is 1, a traced run instead of a timed one. Fails on a build
# or run error; run.py builds its tree on first use.
run() {
    local side="$1" workload="$2" seed="$3" stem="$4" trace="${5:-0}"
    local secs="$seconds"
    [ "$trace" = 1 ] && secs=0
    if ! supervise python3 "$tmp/$side/hostbench/run.py" \
            --workload "$workload" --seed "$seed" --seconds "$secs" \
            --trace "$trace" >"$stem.$side.out" 2>"$stem.$side.err"; then
        echo "hostbench_pairs: $side run failed ($workload seed $seed):" >&2
        tail -n 20 "$stem.$side.err" >&2
        exit 1
    fi
}

for side in parent change; do
    echo "building $side ..." >&2
    supervise python3 "$tmp/$side/hostbench/run.py" \
        --workload "${workloads[0]}" --seed 0 --seconds 0 --trace 0 \
        >/dev/null 2>"$tmp/out/build.$side.err" || {
        tail -n 30 "$tmp/out/build.$side.err" >&2
        exit 1
    }
done

w=0
for workload in "${workloads[@]}"; do
    for ((i = 0; i < pairs; i++)); do
        seed=$((seed0 + w * pairs + i))
        stem="$tmp/out/$workload.$i"
        if ((i % 2 == 0)); then order="parent change"
        else order="change parent"; fi
        echo "$workload pair $((i + 1))/$pairs seed $seed ($order)" >&2
        for side in $order; do
            run "$side" "$workload" "$seed" "$stem"
        done
        echo "$seed ${order%% *}" >"$stem.meta"
    done
    w=$((w + 1))
done

traced_seed=$((seed0 + ${#workloads[@]} * pairs))
rotations=4
for workload in "${workloads[@]}"; do
    for ((r = 0; r < rotations; r++)); do
        if ((r % 2 == 0)); then order="parent change"
        else order="change parent"; fi
        echo "$workload traced rotation $((r + 1))/$rotations seed" \
            "$traced_seed ($order)" >&2
        for side in $order; do
            run "$side" "$workload" "$traced_seed" \
                "$tmp/out/$workload.traced.$r" 1
        done
    done
done

python3 - "$tmp/out" "$pairs" "$seconds" "$traced_seed" "$rotations" \
    "${workloads[@]}" <<'EOF'
import json
import math
import statistics
import sys

out, pairs, seconds = sys.argv[1], int(sys.argv[2]), sys.argv[3]
traced_seed, rotations = sys.argv[4], int(sys.argv[5])
workloads = sys.argv[6:]
with open("BENCHMARK.json") as f:
    metrics = [(m["name"], m["better"], m["bound"])
               for m in json.load(f)["end_to_end"]]
ratio_metrics = [n for n, _, _ in metrics
                 if n.startswith("ws_") or n.startswith("ms_")]

def load(stem, side):
    with open("%s.%s.out" % (stem, side)) as f:
        lines = [l.rstrip("\n") for l in f if l.strip()]
    doc = json.loads(lines[-1])
    digests = [l for l in lines[:-1] if "digest" in l]
    values = {k: v["value"] for k, v in doc["metrics"].items()}
    return doc, digests, values

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def check_runs(label, pd, pdig, cd, cdig):
    for side, doc in (("parent", pd), ("change", cd)):
        if not doc["correct"] or doc["failed"] > 0:
            errors.append("%s: %s run correct=%s failed=%s"
                          % (label, side, doc["correct"], doc["failed"]))
    if pdig != cdig:
        errors.append("%s: digests differ: %s vs %s" % (label, pdig, cdig))

# Host times and shares of them; every other per-layer metric counts
# simulated work and must repeat exactly.
def simulated(name, unit):
    return (unit not in ("ns/cycle", "s", "%")
            and name != "sim.executor_busy_frac")

# Counts print in full, so that a count off by one shows.
def show(v):
    if v is None:
        return "-"
    return "%d" % v if float(v).is_integer() else "%.6g" % v

errors = []
for workload in workloads:
    runs = []
    for i in range(pairs):
        stem = "%s/%s.%d" % (out, workload, i)
        with open(stem + ".meta") as f:
            seed, first = f.read().split()
        pd, pdig, pv = load(stem, "parent")
        cd, cdig, cv = load(stem, "change")
        check_runs("%s seed %s" % (workload, seed), pd, pdig, cd, cdig)
        for name in ratio_metrics:
            if pv.get(name) != cv.get(name):
                errors.append("%s seed %s: %s differs: %r vs %r"
                              % (workload, seed, name, pv.get(name),
                                 cv.get(name)))
        runs.append((seed, first, pv, cv))

    print("== %s: %d pairs of %s s runs, seeds %s-%s"
          % (workload, pairs, seconds, runs[0][0], runs[-1][0]))
    for seed, first, pv, cv in runs:
        cells = ["%s %.4g->%.4g" % (n, pv[n], cv[n]) for n, _, _ in metrics
                 if n not in ratio_metrics]
        print("  seed %s (%s first): %s" % (seed, first, ", ".join(cells)))
    print("  %-34s %-34s %-34s %7s %6s %-7s %5s  %s"
          % ("metric", "parent median [q1, q3]", "change median [q1, q3]",
             "ratio", "bound", "verdict", "wins", "gain rule"))
    need = math.ceil(0.9 * pairs)
    outside = []
    for name, better, bound in metrics:
        p = [r[2][name] for r in runs]
        c = [r[3][name] for r in runs]
        pq, cq = quartiles(p), quartiles(c)
        slack = bound * abs(pq[1])
        if better == "lower":
            wins = sum(1 for a, b in zip(p, c) if b < a)
            improved = cq[1] < pq[1]
            worse = cq[1] > pq[1] + slack
        else:
            wins = sum(1 for a, b in zip(p, c) if b > a)
            improved = cq[1] > pq[1]
            worse = cq[1] < pq[1] - slack
        if worse:
            outside.append(name)
        gap = abs(cq[1] - pq[1])
        holds = wins >= need and improved and gap > pq[2] - pq[0]
        ratio = cq[1] / pq[1] if pq[1] else float("nan")
        print("  %-34s %-34s %-34s %7.4f %6.2f %-7s %2d/%-2d  %s"
              % ("%s (%s)" % (name, better),
                 "%.4g [%.4g, %.4g]" % (pq[1], pq[0], pq[2]),
                 "%.4g [%.4g, %.4g]" % (cq[1], cq[0], cq[2]),
                 ratio, bound, "WORSE" if worse else "within", wins,
                 pairs, "holds" if holds else "not met"))
    print("  outside their bound: %s"
          % (", ".join(outside) if outside else "none"))

    label = "%s traced seed %s" % (workload, traced_seed)
    traced = {side: [load("%s/%s.traced.%d" % (out, workload, r), side)
                     for r in range(rotations)]
              for side in ("parent", "change")}
    first_doc, first_dig, first_v = traced["parent"][0]
    units = {k: v["unit"] for side in traced for doc, _, _ in traced[side]
             for k, v in doc["metrics"].items()}
    names = list(first_v)
    for side in traced:
        for doc, dig, vals in traced[side]:
            names += [n for n in vals if n not in names]
    for r in range(rotations):
        for side in traced:
            doc, dig, vals = traced[side][r]
            check_runs("%s rotation %d %s" % (label, r + 1, side),
                       first_doc, first_dig, doc, dig)
    differs = set()
    for name in names:
        if not simulated(name, units[name]):
            continue
        seen = {repr(vals.get(name)) for side in traced
                for _, _, vals in traced[side]}
        if len(seen) > 1:
            differs.add(name)
            errors.append("%s: %s differs between traced runs: %s"
                          % (label, name, ", ".join(sorted(seen))))
    print("  traced, seed %s, %d rotations, one run at a time:"
          % (traced_seed, rotations))
    print("  %-26s %-11s %-34s %-34s %8s"
          % ("per-layer metric", "unit", "parent median [min, max]",
             "change median [min, max]", "ratio"))
    for name in names:
        med, cells = {}, {}
        for side in traced:
            xs = [vals[name] for _, _, vals in traced[side] if name in vals]
            med[side] = statistics.median(xs) if xs else None
            cells[side] = ("%s [%s, %s]" % (show(med[side]), show(min(xs)),
                                             show(max(xs)))
                           if xs else "-")
        p, c = med["parent"], med["change"]
        ratio = "%.4f" % (c / p) if p and c is not None else "-"
        print("  %-26s %-11s %-34s %-34s %8s%s"
              % (name, units[name], cells["parent"], cells["change"], ratio,
                 "  DIFFERS" if name in differs else ""))
    print()

for e in errors:
    print("hostbench_pairs: " + e, file=sys.stderr)
sys.exit(1 if errors else 0)
EOF
