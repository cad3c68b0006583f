#include "common/config.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>
#include <vector>

#include "common/log.hh"

namespace dbpsim {

namespace {

/** Levenshtein distance, for the unknown-key hint. */
std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j)
            cur[j] = std::min({prev[j] + 1, cur[j - 1] + 1,
                               prev[j - 1] + (a[i - 1] != b[j - 1])});
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

} // namespace

std::int64_t
parseIntString(const std::string &text, const std::string &what)
{
    if (text.empty())
        fatal("empty integer for ", what);

    std::string body = text;
    std::int64_t mult = 1;
    char last = static_cast<char>(std::tolower(body.back()));
    if (last == 'k' || last == 'm' || last == 'g') {
        mult = last == 'k' ? (1LL << 10)
             : last == 'm' ? (1LL << 20)
                           : (1LL << 30);
        body.pop_back();
    }

    errno = 0;
    char *end = nullptr;
    std::int64_t v = std::strtoll(body.c_str(), &end, 0);
    if (errno != 0 || end == body.c_str() || *end != '\0')
        fatal("malformed integer '", text, "' for ", what);
    if (v > std::numeric_limits<std::int64_t>::max() / mult ||
        v < std::numeric_limits<std::int64_t>::min() / mult)
        fatal("value '", text, "' for ", what, " is out of range");
    return v * mult;
}

bool
envFlag(const char *name)
{
    const char *v = std::getenv(name);
    return v != nullptr && v[0] != '\0' &&
           !(v[0] == '0' && v[1] == '\0');
}

void
Config::set(const std::string &key, const std::string &value)
{
    values_[key] = value;
}

bool
Config::has(const std::string &key) const
{
    return values_.count(key) != 0;
}

std::string
Config::getString(const std::string &key, const std::string &def) const
{
    auto it = values_.find(key);
    return it == values_.end() ? def : it->second;
}

std::vector<std::string>
Config::getList(const std::string &key) const
{
    std::vector<std::string> out;
    std::istringstream is(getString(key));
    for (std::string item; std::getline(is, item, ',');)
        if (!item.empty())
            out.push_back(item);
    return out;
}

std::uint64_t
Config::getUInt(const std::string &key, std::uint64_t def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    std::int64_t v = parseIntString(it->second, key);
    if (v < 0)
        fatal("negative value '", it->second, "' for unsigned key ", key);
    return static_cast<std::uint64_t>(v);
}

double
Config::getDouble(const std::string &key, double def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(it->second.c_str(), &end);
    if (errno != 0 || end == it->second.c_str() || *end != '\0')
        fatal("malformed double '", it->second, "' for ", key);
    return v;
}

bool
Config::getBool(const std::string &key, bool def) const
{
    auto it = values_.find(key);
    if (it == values_.end())
        return def;
    std::string v = it->second;
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (v == "1" || v == "true" || v == "yes" || v == "on")
        return true;
    if (v == "0" || v == "false" || v == "no" || v == "off")
        return false;
    fatal("malformed bool '", it->second, "' for ", key);
}

bool
Config::parseToken(const std::string &token)
{
    auto eq = token.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    set(token.substr(0, eq), token.substr(eq + 1));
    return true;
}

void
Config::parseArgs(int argc, char **argv, int first)
{
    for (int i = first; i < argc; ++i) {
        if (!parseToken(argv[i]))
            fatal("expected key=value argument, got '", argv[i], "'");
    }
}

void
Config::requireKnownKeys(const std::vector<std::string> &known) const
{
    DBP_ASSERT(!known.empty(), "a command declares at least one key");
    for (const auto &kv : values_) {
        const std::string &key = kv.first;
        if (std::find(known.begin(), known.end(), key) != known.end())
            continue;
        auto nearest = std::min_element(
            known.begin(), known.end(),
            [&key](const std::string &a, const std::string &b) {
                return editDistance(key, a) < editDistance(key, b);
            });
        fatal("unknown config key '", key, "' (did you mean '", *nearest,
              "'? README.md lists every key)");
    }
}

} // namespace dbpsim
