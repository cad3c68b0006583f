/**
 * @file
 * A small typed key=value configuration store.
 *
 * Used to override system parameters from the command line of examples
 * and benchmarks ("banks=64 sched=tcm part=dbp"). Keys are free-form
 * strings; values are parsed on demand into the requested type, with a
 * fatal() on malformed input (user error, not a simulator bug).
 */

#ifndef DBPSIM_COMMON_CONFIG_HH
#define DBPSIM_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace dbpsim {

/**
 * Key=value configuration bag with typed accessors.
 */
class Config
{
  public:
    Config() = default;

    /** Set (or overwrite) a key. */
    void set(const std::string &key, const std::string &value);

    /** True iff the key is present. */
    bool has(const std::string &key) const;

    /** String value, or @p def if absent. */
    std::string getString(const std::string &key,
                          const std::string &def = "") const;

    /** Unsigned 64-bit value (decimal, hex with 0x, or k/m/g suffix). */
    std::uint64_t getUInt(const std::string &key, std::uint64_t def) const;

    /** Floating-point value. */
    double getDouble(const std::string &key, double def) const;

    /** Boolean: accepts 0/1/true/false/yes/no/on/off. */
    bool getBool(const std::string &key, bool def) const;

    /**
     * Parse one "key=value" token into this config.
     * Returns false (and changes nothing) if the token has no '='.
     */
    bool parseToken(const std::string &token);

    /**
     * Parse argv-style overrides; every argument must look like
     * key=value, otherwise fatal().
     */
    void parseArgs(int argc, char **argv, int first = 1);

    /** All keys in insertion-independent (sorted) order. */
    std::vector<std::string> keys() const;

    /**
     * fatal() on the first key that is not in @p known, naming the
     * nearest known key: a misspelled key is a user error, never
     * silently ignored.
     */
    void requireKnownKeys(const std::vector<std::string> &known) const;

  private:
    std::map<std::string, std::string> values_;
};

/**
 * Parse an integer with optional 0x prefix or k/m/g (binary) suffix.
 * fatal()s on malformed input and on a suffixed value outside the
 * int64 range, mentioning @p what.
 */
std::int64_t parseIntString(const std::string &text, const std::string &what);

/**
 * True iff environment variable @p name is set to a non-empty value
 * other than "0". The one sanctioned environment probe: ambient state
 * must flow through here (dbplint determinism/banned-getenv) so every
 * env-sensitive switch is grep-able and none can reach results —
 * callers may gate debug *output* on it, never simulated behaviour.
 */
bool envFlag(const char *name);

} // namespace dbpsim

#endif // DBPSIM_COMMON_CONFIG_HH
