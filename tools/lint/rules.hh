/**
 * @file
 * dbplint rule engine.
 *
 * dbplint is the project-specific determinism & consistency linter:
 * every claim the repo makes (the DBP-vs-UBP gap, the refresh
 * dominance result, the `--jobs=N` == `--serial` guarantee) rests on
 * bit-identical deterministic simulation, and these rules turn the
 * conventions that protect that determinism from reviewer lore into
 * machine-checked invariants. Three families:
 *
 *  determinism/
 *    banned-rand, banned-random-device, banned-time,
 *    banned-system-clock, banned-getenv
 *        Ambient-nondeterminism entry points are banned outside
 *        src/common/{random,config}: every random draw must flow
 *        through the seeded dbpsim::Rng and every environment probe
 *        through the config layer.
 *    unordered-decl
 *        Every unordered container must carry a written rationale for
 *        why its ordering cannot leak into results.
 *    unordered-iter
 *        Iterating an unordered container is flagged unless the site
 *        shows sorted-before-emit evidence via a suppression.
 *
 *  timing/
 *    cycle-literal
 *        Bare integer cycle literals outside the src/dram/timing.*
 *        presets (unit mistakes hide in anonymous integers).
 *    validate-coverage
 *        Every DramTiming field the channel or the refresh engine
 *        enforces must be sanity-checked by DramTiming::validate().
 *
 *  consistency/
 *    config-key-doc    every parsed config key documented in README.
 *    violation-test    every checker Violation enumerator exercised
 *                      in tests/test_protocol_check.cc.
 *    campaign-doc      every registered CampaignSpec described in
 *                      EXPERIMENTS.md.
 *
 * Suppression syntax (same line or the line above the finding):
 *
 *    // dbplint:allow(<rule-id>) reason=<non-empty explanation>
 *
 * A reason is mandatory (meta/empty-reason), unknown rule ids are
 * themselves findings (meta/unknown-rule), and a suppression that
 * matches nothing rots loudly (meta/unused-suppression).
 */

#ifndef DBPSIM_TOOLS_LINT_RULES_HH
#define DBPSIM_TOOLS_LINT_RULES_HH

#include <string>
#include <vector>

namespace dbpsim::lint {

/** One lint finding. */
struct Finding
{
    std::string file;    ///< repo-relative path.
    unsigned line = 0;   ///< 1-based.
    std::string rule;    ///< short rule id ("unordered-iter").
    std::string message; ///< what and why, with the remedy.
};

/** One input file (path repo-relative, '/'-separated). */
struct SourceFile
{
    std::string path;
    std::string content;
};

/**
 * Everything one lint run looks at. The CLI fills this from the real
 * tree; tests construct it from fixture strings.
 */
struct Corpus
{
    /** C++ sources under src/, tests/, bench/, examples/. */
    std::vector<SourceFile> files;

    /** README.md text ("" disables consistency/config-key-doc). */
    std::string readme;

    /** EXPERIMENTS.md text ("" disables consistency/campaign-doc). */
    std::string experiments;
};

/**
 * Run every rule over @p corpus and return the surviving findings
 * (suppressions already applied, meta findings appended), sorted by
 * (file, line, rule).
 */
std::vector<Finding> lintCorpus(const Corpus &corpus);

/** "family/id" for a short rule id ("determinism/unordered-iter"). */
std::string ruleFamily(const std::string &rule);

/** All short rule ids, families first, stable order. */
std::vector<std::string> ruleIds();

/** Render findings as a JSON array (stable field order). */
std::string findingsToJson(const std::vector<Finding> &findings);

/** Render one finding as "file:line: [family/id] message". */
std::string findingToText(const Finding &f);

} // namespace dbpsim::lint

#endif // DBPSIM_TOOLS_LINT_RULES_HH
