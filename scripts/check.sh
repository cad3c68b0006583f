#!/usr/bin/env bash
#
# Pre-merge gate: everything a change must survive before it lands.
#
#   1. Default build (-Werror -Wall -Wextra -Wconversion -Wshadow)
#      and the full test suite (which includes dbplint's fixture
#      tests and the LintTreeClean gate).
#   2. dbplint tree-wide: the project-specific determinism &
#      consistency linter (tools/lint/, see DESIGN.md "Static
#      analysis layer") must report zero findings.
#   3. ASan+UBSan build with the DRAM protocol checker compiled in
#      (DBPSIM_CHECK=ON) and the full test suite again.
#   4. TSan build + the campaign/executor/refresh/protocol-check test
#      subset — the parallel experiment executor must be data-race
#      free, and the refresh engine must stay checker-clean under it.
#   5. clang-tidy over the files changed relative to the merge base,
#      or over every file in compile_commands.json with --full
#      (skipped with a note when clang-tidy is not installed).
#   6. cppcheck over the same file set (skipped with a note when
#      cppcheck is not installed).
#   7. hostbench/ configured into build-hostbench/ (Release, as
#      hostbench/run.py does), its benchmark and test binaries built
#      and its tests run: the benchmark re-assembles System from the
#      components' public constructors, so a src/ change can break its
#      build while the simulator's own suite still passes. Then the
#      benchmark's own output check runs on every BENCHMARK.json
#      workload, and each run must report "correct": true (the binary
#      exits 0 even when a job failed a check): one traced run of
#      each workload. A traced run makes the untraced pass too (every
#      job's WS and MS agree with its IPCs, and every IPC is positive
#      and finite), and every traced job must also match its plain
#      System run: the traced system ticks every core and controller
#      every cycle, so this checks System's jumps over quiet cycles on
#      the benchmark's own jobs.
#   8. The net line count against the merge base: lines added, removed
#      and net per top-level code directory (src, bench, tests, tools,
#      examples, scripts, hostbench) and in total, summed from
#      `git diff --numstat` over the tracked files of the working tree.
#      It only reports; it fails nothing.
#
# Usage: scripts/check.sh [--full] [base-ref]
#   --full     Lint every translation unit in compile_commands.json
#              instead of only the changed set.
#   base-ref   Git ref to diff against for the changed-file steps and
#              the line count (default: main, falling back to HEAD~1;
#              when no merge base resolves at all, the files touched by
#              HEAD are linted so a detached or shallow checkout still
#              gets a real lint run instead of a silent skip).

set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$repo_root"

full=0
base_ref="main"
for arg in "$@"; do
    case "$arg" in
      --full) full=1 ;;
      -*) echo "check.sh: unknown option '$arg'" >&2; exit 2 ;;
      *) base_ref="$arg" ;;
    esac
done

jobs="$(nproc 2>/dev/null || echo 4)"

step() { printf '\n==== %s ====\n' "$*"; }

# ---------------------------------------------------------------- 1 --
step "default build (-Werror) + tests"
cmake --preset default >/dev/null
cmake --build --preset default -j "$jobs"
ctest --preset default -j "$jobs"

# ---------------------------------------------------------------- 2 --
step "dbplint tree-wide"
./build/tools/lint/dbplint --root=.

# ---------------------------------------------------------------- 3 --
step "ASan+UBSan build (protocol checker ON) + tests"
cmake --preset asan-ubsan >/dev/null
cmake --build --preset asan-ubsan -j "$jobs"
ctest --preset asan-ubsan -j "$jobs"

# ---------------------------------------------------------------- 4 --
step "TSan build + parallel-executor tests"
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$jobs" --target dbpsim_tests
ctest --preset tsan -R 'Executor|Campaign|Refresh|ProtocolCheck'

# -------------------------------------------------- file selection --
# The clang-tidy and cppcheck steps share one file set: every
# translation unit (--full) or the C++ files changed against the
# merge base plus any local edits, falling back to the files HEAD
# itself touched when no merge base resolves (first commit, detached
# or shallow checkout) — previously that case skipped silently.
if ! git rev-parse --verify --quiet "$base_ref" >/dev/null; then
    base_ref="HEAD~1"
fi
merge_base="$(git merge-base "$base_ref" HEAD 2>/dev/null || echo "")"
if [ "$full" -eq 1 ]; then
    changed="$(
        grep -oE '"file": *"[^"]+"' build/compile_commands.json |
            sed -E 's/.*"file": *"(.*)"/\1/' |
            grep -F "$repo_root" | grep -v '_deps' | sort -u || true
    )"
else
    changed="$(
        {
            if [ -n "$merge_base" ]; then
                git diff --name-only "$merge_base" HEAD
            else
                git diff-tree --no-commit-id --name-only -r HEAD
            fi
            git diff --name-only
            git diff --name-only --cached
        } | sort -u | grep -E '\.(cc|hh|cpp|hpp)$' || true
    )"
fi

existing=()
while IFS= read -r f; do
    [ -n "$f" ] && [ -f "$f" ] && existing+=("$f")
done <<<"$changed"

# ---------------------------------------------------------------- 5 --
if [ "$full" -eq 1 ]; then
    step "clang-tidy over all translation units"
else
    step "clang-tidy over changed files"
fi
if ! command -v clang-tidy >/dev/null 2>&1; then
    echo "clang-tidy not installed; skipping this step."
elif [ "${#existing[@]}" -eq 0 ]; then
    echo "no C++ files to lint; nothing to do."
else
    # The default preset exports compile_commands.json for tidy.
    clang-tidy -p build "${existing[@]}"
fi

# ---------------------------------------------------------------- 6 --
step "cppcheck over the same file set"
if ! command -v cppcheck >/dev/null 2>&1; then
    echo "cppcheck not installed; skipping this step."
elif [ "${#existing[@]}" -eq 0 ]; then
    echo "no C++ files to lint; nothing to do."
else
    cppcheck --std=c++20 --language=c++ --enable=warning,portability \
        --inline-suppr --error-exitcode=1 \
        --suppress=missingIncludeSystem -I src -I . \
        "${existing[@]}"
fi

# ---------------------------------------------------------------- 7 --
step "hostbench build + tests + output check on every workload"
cmake -S hostbench -B build-hostbench -DCMAKE_BUILD_TYPE=Release >/dev/null
cmake --build build-hostbench -j "$jobs" --target hostbench hostbench_tests
./build-hostbench/hostbench_tests
for workload in mix_intensive mix_light refresh_salp_churn; do
    verdict="$(./build-hostbench/hostbench --workload "$workload" \
        --seed 1 --seconds 0 --trace 1 | tail -n 1)"
    case "$verdict" in
      *'"correct": true'*) ;;
      *) echo "hostbench: $workload (traced) failed its output" \
              "check: $verdict" >&2
         exit 1 ;;
    esac
done

# ---------------------------------------------------------------- 8 --
step "net line count against the merge base"
code_dirs="src bench tests tools examples scripts hostbench"
if [ -z "$merge_base" ]; then
    echo "no merge base with $base_ref; nothing to count."
else
    echo "against $(git rev-parse --short "$merge_base") ($base_ref):"
    # shellcheck disable=SC2086 # one pathspec per directory.
    git diff --numstat --no-renames "$merge_base" -- $code_dirs |
        awk -v dirs="$code_dirs" '
            { split($3, path, "/"); add[path[1]] += $1; del[path[1]] += $2 }
            END {
                printf "%-10s %8s %8s %8s\n", "dir", "added", "removed", "net"
                n = split(dirs, d, " ")
                for (i = 1; i <= n; ++i) {
                    printf "%-10s %8d %8d %+8d\n", d[i], add[d[i]],
                        del[d[i]], add[d[i]] - del[d[i]]
                    total_add += add[d[i]]; total_del += del[d[i]]
                }
                printf "%-10s %8d %8d %+8d\n", "total", total_add,
                    total_del, total_add - total_del
            }'
fi

echo
echo "all checks passed."
