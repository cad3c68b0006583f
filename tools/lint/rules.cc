#include "rules.hh"

#include <algorithm>
#include <cstddef>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "lexer.hh"

namespace dbpsim::lint {

namespace {

// ---- helpers --------------------------------------------------------

bool
startsWith(const std::string &s, const std::string &prefix)
{
    return s.rfind(prefix, 0) == 0;
}

bool
isWordChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_';
}

/** @p needle occurs in @p hay with non-word characters on both sides. */
bool
containsWord(const std::string &hay, const std::string &needle)
{
    std::size_t pos = 0;
    while ((pos = hay.find(needle, pos)) != std::string::npos) {
        bool left_ok = pos == 0 || !isWordChar(hay[pos - 1]);
        std::size_t after = pos + needle.size();
        bool right_ok = after >= hay.size() || !isWordChar(hay[after]);
        if (left_ok && right_ok)
            return true;
        pos += 1;
    }
    return false;
}

/** README documents @p key iff a backticked occurrence exists. */
bool
readmeDocumentsKey(const std::string &readme, const std::string &key)
{
    std::size_t pos = 0;
    std::string quoted = "`" + key;
    while ((pos = readme.find(quoted, pos)) != std::string::npos) {
        std::size_t after = pos + quoted.size();
        if (after >= readme.size() || !isWordChar(readme[after]))
            return true;
        pos += 1;
    }
    return false;
}

/** True for DramTiming-style field names: tRCD, tFAW, tckPs, ... */
bool
isTimingFieldName(const std::string &name)
{
    if (name == "tckPs")
        return true;
    return name.size() >= 3 && name[0] == 't' &&
           name[1] >= 'A' && name[1] <= 'Z';
}

/** k-prefixed CamelCase: the sanctioned named-constant spelling. */
bool
isNamedConstant(const std::string &name)
{
    return name.size() >= 2 && name[0] == 'k' &&
           name[1] >= 'A' && name[1] <= 'Z';
}

struct Suppression
{
    std::string file;
    unsigned line = 0;
    std::string rule;
    std::string reason;
    bool known = false;
    bool used = false;
};

/** One scanned file: tokens + suppressions extracted from comments. */
struct ScannedFile
{
    const SourceFile *src = nullptr;
    TokenStream ts;
};

const char *const kRuleIds[] = {
    "banned-rand",
    "banned-random-device",
    "banned-time",
    "banned-system-clock",
    "banned-getenv",
    "unordered-decl",
    "unordered-iter",
    "cycle-literal",
    "validate-coverage",
    "config-key-doc",
    "violation-test",
    "campaign-doc",
    "empty-reason",
    "unknown-rule",
    "unused-suppression",
};

bool
isKnownRule(const std::string &id)
{
    for (const char *r : kRuleIds)
        if (id == r)
            return true;
    return false;
}

// ---- the rule engine ------------------------------------------------

class Linter
{
  public:
    explicit Linter(const Corpus &corpus) : corpus_(corpus)
    {
        for (const SourceFile &f : corpus.files) {
            scanned_.push_back({&f, scan(f.content)});
            collectSuppressions(scanned_.back());
        }
    }

    std::vector<Finding> run();

  private:
    void flag(const ScannedFile &sf, unsigned line,
              const std::string &rule, const std::string &message)
    {
        raw_.push_back({sf.src->path, line, rule, message});
    }

    void collectSuppressions(const ScannedFile &sf);

    void ruleBannedIdents(const ScannedFile &sf);
    void ruleUnorderedDecl(const ScannedFile &sf);
    void collectUnorderedNames(const ScannedFile &sf);
    void ruleUnorderedIter(const ScannedFile &sf);
    void ruleCycleLiteral(const ScannedFile &sf);
    void ruleValidateCoverage();
    void ruleConfigKeyDoc(const ScannedFile &sf);
    void ruleViolationTest();
    void ruleCampaignDoc(const ScannedFile &sf);

    const ScannedFile *fileByPath(const std::string &path) const
    {
        for (const ScannedFile &sf : scanned_)
            if (sf.src->path == path)
                return &sf;
        return nullptr;
    }

    const Corpus &corpus_;
    std::vector<ScannedFile> scanned_;
    std::vector<Suppression> supps_;
    std::vector<Finding> raw_;
    std::set<std::string> unorderedNames_;
};

void
Linter::collectSuppressions(const ScannedFile &sf)
{
    static const std::string kMarker = "dbplint:allow(";
    for (const Comment &c : sf.ts.comments) {
        std::size_t pos = c.text.find(kMarker);
        if (pos == std::string::npos)
            continue;
        std::size_t id_start = pos + kMarker.size();
        std::size_t id_end = c.text.find(')', id_start);
        if (id_end == std::string::npos)
            continue;
        Suppression s;
        s.file = sf.src->path;
        s.line = c.line;
        s.rule = c.text.substr(id_start, id_end - id_start);
        s.known = isKnownRule(s.rule);
        std::size_t r = c.text.find("reason=", id_end);
        if (r != std::string::npos) {
            s.reason = c.text.substr(r + 7);
            while (!s.reason.empty() &&
                   (s.reason.back() == ' ' || s.reason.back() == '\t'))
                s.reason.pop_back();
        }
        supps_.push_back(std::move(s));
    }
}

// determinism/banned-*: ambient nondeterminism entry points.
void
Linter::ruleBannedIdents(const ScannedFile &sf)
{
    const std::string &path = sf.src->path;
    // The deterministic-RNG and config layers are the two sanctioned
    // homes for these calls.
    if (startsWith(path, "src/common/random.") ||
        startsWith(path, "src/common/config."))
        return;

    const auto &toks = sf.ts.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Ident)
            continue;
        const std::string &id = toks[i].text;

        bool member_access =
            i > 0 && toks[i - 1].kind == TokKind::Punct &&
            (toks[i - 1].text == "." || toks[i - 1].text == "->");
        // `Foo::rand` only counts when Foo is std (or chrono for the
        // clock types); a user-defined scope owns its own names.
        bool scoped = i > 0 && toks[i - 1].kind == TokKind::Punct &&
                      toks[i - 1].text == "::";
        bool std_scoped =
            scoped && i > 1 && toks[i - 2].kind == TokKind::Ident &&
            (toks[i - 2].text == "std" || toks[i - 2].text == "chrono");
        if (member_access || (scoped && !std_scoped))
            continue;

        bool called = i + 1 < toks.size() &&
                      toks[i + 1].kind == TokKind::Punct &&
                      toks[i + 1].text == "(";

        if ((id == "rand" || id == "srand") && called)
            flag(sf, toks[i].line, "banned-rand",
                 "call to " + id + "() — every random draw must come "
                 "from the seeded dbpsim::Rng (src/common/random.hh) "
                 "so runs are reproducible");
        else if (id == "random_device")
            flag(sf, toks[i].line, "banned-random-device",
                 "std::random_device is entropy from the environment — "
                 "seed a dbpsim::Rng from the run configuration "
                 "instead");
        else if (id == "time" && called)
            flag(sf, toks[i].line, "banned-time",
                 "call to time() — wall-clock input makes runs "
                 "unreproducible; derive cycle counts from the "
                 "simulation clock");
        else if (id == "system_clock")
            flag(sf, toks[i].line, "banned-system-clock",
                 "std::chrono::system_clock is wall-clock time — use "
                 "steady_clock for intervals, never clock readings in "
                 "results");
        else if (id == "getenv" && called)
            flag(sf, toks[i].line, "banned-getenv",
                 "getenv() outside src/common/{random,config} — route "
                 "environment probes through the config layer "
                 "(dbpsim::envFlag) so they are visible and loggable");
    }
}

// determinism/unordered-decl: unordered containers need a rationale.
void
Linter::ruleUnorderedDecl(const ScannedFile &sf)
{
    for (const Token &t : sf.ts.tokens) {
        if (t.kind != TokKind::Ident)
            continue;
        if (t.text == "unordered_map" || t.text == "unordered_set")
            flag(sf, t.line, "unordered-decl",
                 "std::" + t.text + " — hash order is implementation-"
                 "defined; document why ordering cannot leak into "
                 "results (dbplint:allow(unordered-decl) reason=...) "
                 "or use an ordered container");
    }
}

/**
 * Collect the names declared with an unordered container type, in any
 * file: `std::unordered_map<K, V> name` and members/locals of types
 * wrapping one (`std::vector<std::unordered_map<K,V>> name`).
 */
void
Linter::collectUnorderedNames(const ScannedFile &sf)
{
    const auto &toks = sf.ts.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Ident ||
            (toks[i].text != "unordered_map" &&
             toks[i].text != "unordered_set"))
            continue;
        std::size_t j = i + 1;
        if (j < toks.size() && toks[j].kind == TokKind::Punct &&
            toks[j].text == "<") {
            int depth = 0;
            for (; j < toks.size(); ++j) {
                if (toks[j].kind != TokKind::Punct)
                    continue;
                if (toks[j].text == "<")
                    ++depth;
                else if (toks[j].text == ">")
                    --depth;
                else if (toks[j].text == ">>")
                    depth -= 2;
                if (depth <= 0) {
                    ++j;
                    break;
                }
            }
        }
        // Skip any wrapper closers left over (outer vector<...>>).
        while (j < toks.size() && toks[j].kind == TokKind::Punct &&
               (toks[j].text == ">" || toks[j].text == ">>"))
            ++j;
        if (j < toks.size() && toks[j].kind == TokKind::Ident)
            unorderedNames_.insert(toks[j].text);
    }
}

// determinism/unordered-iter: iteration over unordered containers.
void
Linter::ruleUnorderedIter(const ScannedFile &sf)
{
    const auto &toks = sf.ts.tokens;
    std::set<std::pair<unsigned, std::string>> seen;
    auto flagOnce = [&](unsigned line, const std::string &name) {
        if (!seen.insert({line, name}).second)
            return;
        flag(sf, line, "unordered-iter",
             "iteration over unordered container '" + name + "' — "
             "visit order is implementation-defined; sort before "
             "emitting, or suppress with sorted-before-emit evidence");
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
        // name.begin() / name.cbegin(). A bare .end() is not flagged:
        // comparing find()'s result against end() is the idiomatic
        // miss check and leaks no ordering.
        if (toks[i].kind == TokKind::Ident &&
            unorderedNames_.count(toks[i].text) != 0 &&
            i + 2 < toks.size() && toks[i + 1].kind == TokKind::Punct &&
            (toks[i + 1].text == "." || toks[i + 1].text == "->") &&
            toks[i + 2].kind == TokKind::Ident &&
            (toks[i + 2].text == "begin" ||
             toks[i + 2].text == "cbegin")) {
            flagOnce(toks[i].line, toks[i].text);
        }

        // Range-for whose range expression names a tracked container.
        if (toks[i].kind != TokKind::Ident || toks[i].text != "for" ||
            i + 1 >= toks.size() || toks[i + 1].kind != TokKind::Punct ||
            toks[i + 1].text != "(")
            continue;
        int depth = 0;
        std::size_t colon = 0;
        std::size_t close = 0;
        for (std::size_t j = i + 1; j < toks.size(); ++j) {
            if (toks[j].kind != TokKind::Punct)
                continue;
            if (toks[j].text == "(") {
                ++depth;
            } else if (toks[j].text == ")") {
                --depth;
                if (depth == 0) {
                    close = j;
                    break;
                }
            } else if (toks[j].text == ":" && depth == 1 && colon == 0) {
                colon = j;
            }
        }
        if (colon == 0 || close == 0)
            continue;
        for (std::size_t j = colon + 1; j < close; ++j)
            if (toks[j].kind == TokKind::Ident &&
                unorderedNames_.count(toks[j].text) != 0)
                flagOnce(toks[i].line, toks[j].text);
    }
}

// timing/cycle-literal: anonymous integers carrying cycle units.
void
Linter::ruleCycleLiteral(const ScannedFile &sf)
{
    const std::string &path = sf.src->path;
    // The timing presets are where cycle numbers belong.
    if (path == "src/dram/timing.cc" || path == "src/dram/timing.hh")
        return;

    const auto &toks = sf.ts.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        // `.tXXX = <int-literal>` (timing field assignment).
        if (toks[i].kind == TokKind::Punct &&
            (toks[i].text == "." || toks[i].text == "->") &&
            toks[i + 1].kind == TokKind::Ident &&
            isTimingFieldName(toks[i + 1].text) &&
            toks[i + 2].kind == TokKind::Punct && toks[i + 2].text == "=" &&
            i + 3 < toks.size() && toks[i + 3].kind == TokKind::Number &&
            toks[i + 3].isInt && toks[i + 3].intValue > 0) {
            flag(sf, toks[i + 1].line, "cycle-literal",
                 "bare cycle literal assigned to DramTiming field '" +
                 toks[i + 1].text + "' outside the src/dram/timing.* "
                 "presets — use a preset, derive from one, or suppress "
                 "with the reason the raw number is safe");
        }

        // `Cycle name = <nonzero int literal>;` outside the presets.
        // Zero is "beginning of time", not a duration, and k-prefixed
        // CamelCase names are the sanctioned named-constant spelling.
        if (toks[i].kind == TokKind::Ident && toks[i].text == "Cycle" &&
            toks[i + 1].kind == TokKind::Ident &&
            !isNamedConstant(toks[i + 1].text) &&
            toks[i + 2].kind == TokKind::Punct &&
            toks[i + 2].text == "=" && i + 4 < toks.size() &&
            toks[i + 3].kind == TokKind::Number && toks[i + 3].isInt &&
            toks[i + 3].intValue > 0 &&
            toks[i + 4].kind == TokKind::Punct &&
            (toks[i + 4].text == ";" || toks[i + 4].text == ",")) {
            flag(sf, toks[i + 1].line, "cycle-literal",
                 "bare cycle literal initializing Cycle variable '" +
                 toks[i + 1].text + "' — name the constant "
                 "(kCamelCase), take it from DramTiming, or suppress "
                 "with the reason the default is safe");
        }
    }
}

// timing/validate-coverage: fields the channel and the refresh engine
// enforce must be sanity-checked by DramTiming::validate().
void
Linter::ruleValidateCoverage()
{
    const ScannedFile *timing = fileByPath("src/dram/timing.cc");
    if (timing == nullptr)
        return;

    // Identifiers inside DramTiming::validate()'s body.
    std::set<std::string> body;
    const auto &tt = timing->ts.tokens;
    for (std::size_t i = 0; i + 2 < tt.size(); ++i) {
        if (!(tt[i].kind == TokKind::Ident &&
              tt[i].text == "DramTiming" &&
              tt[i + 1].kind == TokKind::Punct &&
              tt[i + 1].text == "::" &&
              tt[i + 2].kind == TokKind::Ident &&
              tt[i + 2].text == "validate"))
            continue;
        std::size_t j = i + 3;
        while (j < tt.size() && !(tt[j].kind == TokKind::Punct &&
                                  tt[j].text == "{"))
            ++j;
        int depth = 0;
        for (; j < tt.size(); ++j) {
            if (tt[j].kind == TokKind::Punct) {
                if (tt[j].text == "{")
                    ++depth;
                else if (tt[j].text == "}" && --depth == 0)
                    break;
            } else if (tt[j].kind == TokKind::Ident) {
                body.insert(tt[j].text);
            }
        }
        break;
    }

    auto punct = [](const Token &t, const char *text) {
        return t.kind == TokKind::Punct && t.text == text;
    };
    for (const char *path : {"src/dram/channel.cc", "src/dram/refresh.cc"}) {
        const ScannedFile *user = fileByPath(path);
        if (user == nullptr)
            continue;
        // Fields read as timing_.tXXX, timing.tXXX or timing().tXXX.
        std::map<std::string, unsigned> refs; // field -> first line.
        const auto &ut = user->ts.tokens;
        for (std::size_t i = 0; i < ut.size(); ++i) {
            if (ut[i].kind != TokKind::Ident ||
                (ut[i].text != "timing_" && ut[i].text != "timing"))
                continue;
            std::size_t dot = i + 1;
            if (ut[i].text == "timing" && dot + 1 < ut.size() &&
                punct(ut[dot], "(") && punct(ut[dot + 1], ")"))
                dot += 2;
            if (dot + 1 < ut.size() && punct(ut[dot], ".") &&
                ut[dot + 1].kind == TokKind::Ident &&
                isTimingFieldName(ut[dot + 1].text))
                refs.emplace(ut[dot + 1].text, ut[dot + 1].line);
        }
        for (const auto &[field, line] : refs) {
            if (body.count(field) != 0)
                continue;
            raw_.push_back(
                {path, line, "validate-coverage",
                 "DramTiming::" + field + " is enforced by " + path +
                 " but never appears in DramTiming::validate() — add a "
                 "sanity relation so a mis-set preset fails fast"});
        }
    }
}

// consistency/config-key-doc: parsed keys must be documented.
void
Linter::ruleConfigKeyDoc(const ScannedFile &sf)
{
    if (corpus_.readme.empty())
        return;
    const std::string &path = sf.src->path;
    // Keys parsed by tests are test-internal; user-facing surface is
    // the library, benches, and examples.
    if (!startsWith(path, "src/") && !startsWith(path, "bench/") &&
        !startsWith(path, "examples/"))
        return;

    const auto &toks = sf.ts.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].kind != TokKind::Ident)
            continue;
        const std::string &id = toks[i].text;
        if (id != "getString" && id != "getUInt" &&
            id != "getDouble" && id != "getBool" && id != "getList")
            continue;
        if (!(toks[i + 1].kind == TokKind::Punct &&
              toks[i + 1].text == "(" &&
              toks[i + 2].kind == TokKind::Str))
            continue;
        const std::string &key = toks[i + 2].text;
        if (key.empty())
            continue;
        if (!readmeDocumentsKey(corpus_.readme, key))
            flag(sf, toks[i + 2].line, "config-key-doc",
                 "config key \"" + key + "\" is parsed here but not "
                 "documented in README.md — add it to the "
                 "configuration-key table (backticked)");
    }
}

// consistency/violation-test: every checker violation class must be
// exercised by the protocol-check test suite.
void
Linter::ruleViolationTest()
{
    const ScannedFile *hh = fileByPath("src/check/protocol_check.hh");
    const SourceFile *test = nullptr;
    for (const SourceFile &f : corpus_.files)
        if (f.path == "tests/test_protocol_check.cc")
            test = &f;
    if (hh == nullptr || test == nullptr)
        return;

    const auto &toks = hh->ts.tokens;
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!(toks[i].kind == TokKind::Ident && toks[i].text == "enum" &&
              toks[i + 1].kind == TokKind::Ident &&
              toks[i + 1].text == "class" &&
              toks[i + 2].kind == TokKind::Ident &&
              toks[i + 2].text == "Violation"))
            continue;
        std::size_t j = i + 3;
        while (j < toks.size() && !(toks[j].kind == TokKind::Punct &&
                                    toks[j].text == "{"))
            ++j;
        bool expect_name = true;
        int depth = 0;
        for (; j < toks.size(); ++j) {
            const Token &t = toks[j];
            if (t.kind == TokKind::Punct) {
                if (t.text == "{") {
                    ++depth;
                } else if (t.text == "}") {
                    if (--depth == 0)
                        break;
                } else if (t.text == "," && depth == 1) {
                    expect_name = true;
                }
                continue;
            }
            if (depth == 1 && expect_name && t.kind == TokKind::Ident) {
                expect_name = false;
                if (!containsWord(test->content,
                                  "Violation::" + t.text))
                    raw_.push_back(
                        {hh->src->path, t.line, "violation-test",
                         "Violation::" + t.text + " has no injection "
                         "test in tests/test_protocol_check.cc — every "
                         "violation class must be provoked at least "
                         "once"});
            }
        }
        break;
    }
}

// consistency/campaign-doc: every registered campaign described in
// EXPERIMENTS.md.
void
Linter::ruleCampaignDoc(const ScannedFile &sf)
{
    if (corpus_.experiments.empty())
        return;
    if (!startsWith(sf.src->path, "bench/"))
        return;

    const auto &toks = sf.ts.tokens;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!(toks[i].kind == TokKind::Ident &&
              toks[i].text == "CampaignRegistrar"))
            continue;
        // The campaign name is the first string literal of the
        // registration (CampaignSpec{.name} is its first member).
        for (std::size_t j = i + 1;
             j < toks.size() && j < i + 40; ++j) {
            if (toks[j].kind != TokKind::Str)
                continue;
            const std::string &name = toks[j].text;
            if (!name.empty() &&
                !containsWord(corpus_.experiments, name))
                flag(sf, toks[j].line, "campaign-doc",
                     "campaign \"" + name + "\" is registered here "
                     "but never mentioned in EXPERIMENTS.md — record "
                     "what it measures and the expected shape");
            break;
        }
    }
}

std::vector<Finding>
Linter::run()
{
    for (const ScannedFile &sf : scanned_)
        collectUnorderedNames(sf);

    for (const ScannedFile &sf : scanned_) {
        ruleBannedIdents(sf);
        ruleUnorderedDecl(sf);
        ruleUnorderedIter(sf);
        ruleCycleLiteral(sf);
        ruleConfigKeyDoc(sf);
        ruleCampaignDoc(sf);
    }
    ruleValidateCoverage();
    ruleViolationTest();

    // Apply suppressions: an allow-comment on the finding's line or
    // the line directly above it, with a matching rule id.
    std::vector<Finding> out;
    for (Finding &f : raw_) {
        bool suppressed = false;
        for (Suppression &s : supps_) {
            if (s.known && !s.reason.empty() && s.rule == f.rule &&
                s.file == f.file &&
                (s.line == f.line || s.line + 1 == f.line)) {
                s.used = true;
                suppressed = true;
            }
        }
        if (!suppressed)
            out.push_back(std::move(f));
    }

    // Meta findings: suppressions must carry a reason, name a real
    // rule, and actually suppress something.
    for (const Suppression &s : supps_) {
        if (!s.known) {
            out.push_back({s.file, s.line, "unknown-rule",
                           "suppression names unknown rule '" + s.rule +
                           "' (see dbplint --list-rules)"});
            continue;
        }
        if (s.reason.empty()) {
            out.push_back({s.file, s.line, "empty-reason",
                           "suppression of '" + s.rule + "' without a "
                           "reason — write reason=<why this is safe>"});
            continue;
        }
        if (!s.used)
            out.push_back({s.file, s.line, "unused-suppression",
                           "suppression of '" + s.rule + "' matches no "
                           "finding — delete it so it cannot mask a "
                           "future one"});
    }

    std::sort(out.begin(), out.end(),
              [](const Finding &a, const Finding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::vector<Finding>
lintCorpus(const Corpus &corpus)
{
    return Linter(corpus).run();
}

std::string
ruleFamily(const std::string &rule)
{
    if (startsWith(rule, "banned-") || startsWith(rule, "unordered-"))
        return "determinism/" + rule;
    if (rule == "cycle-literal" || rule == "validate-coverage")
        return "timing/" + rule;
    if (rule == "config-key-doc" || rule == "violation-test" ||
        rule == "campaign-doc")
        return "consistency/" + rule;
    return "meta/" + rule;
}

std::vector<std::string>
ruleIds()
{
    return {std::begin(kRuleIds), std::end(kRuleIds)};
}

std::string
findingsToJson(const std::vector<Finding> &findings)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < findings.size(); ++i) {
        const Finding &f = findings[i];
        os << (i == 0 ? "\n" : ",\n")
           << "  {\"file\": \"" << jsonEscape(f.file) << "\", "
           << "\"line\": " << f.line << ", "
           << "\"rule\": \"" << jsonEscape(ruleFamily(f.rule)) << "\", "
           << "\"message\": \"" << jsonEscape(f.message) << "\"}";
    }
    os << (findings.empty() ? "]" : "\n]") << "\n";
    return os.str();
}

std::string
findingToText(const Finding &f)
{
    std::ostringstream os;
    os << f.file << ":" << f.line << ": [" << ruleFamily(f.rule) << "] "
       << f.message;
    return os.str();
}

} // namespace dbpsim::lint
