/**
 * @file
 * One job's run digest, shared by the pinned run digests
 * (test_run_digest.cc) and the full-tick oracle (test_full_ticks.cc).
 * It hashes what a run leaves behind beyond its campaign result:
 *
 *  - every counter dumpStats() prints, the cores' head, MSHR and
 *    store-buffer stall counters among them;
 *  - the measured IPCs;
 *  - the closed interval profiles, so the profiler's BLP, MLP and
 *    row-parallelism sums;
 *  - the cycle, target and thread of every DRAM command, hashed by a
 *    forwarding command observer that chains to the protocol checker
 *    when the configuration enables it.
 */

#ifndef DBPSIM_TESTS_RUN_DIGEST_HH
#define DBPSIM_TESTS_RUN_DIGEST_HH

#include <cstdint>
#include <string>

#include "check/observer.hh"
#include "sim/params.hh"
#include "sim/schemes.hh"
#include "trace/mix.hh"

namespace dbpsim {

/** Hashes every issued command (FNV-1a), then forwards it to @p next. */
class CommandHasher : public CommandObserver
{
  public:
    explicit CommandHasher(CommandObserver *next) : next_(next) {}

    void onCommand(const CmdEvent &ev) override;

    std::uint64_t hash = 0xcbf29ce484222325ULL;

  private:
    CommandObserver *next_;
};

/** makeRunConfig() over whitespace-separated key=value @p tokens. */
RunConfig runConfigFromTokens(const std::string &tokens);

/**
 * Digest of the job (@p mix, @p scheme) under @p rc, its System built
 * as runMixJob() builds it, with every skip switched off when
 * @p full_ticks is set. A run with the checker on must finish with no
 * violation (a gtest failure otherwise).
 */
std::uint64_t runDigest(const RunConfig &rc, const WorkloadMix &mix,
                        const Scheme &scheme, bool full_ticks = false);

/** @p v as "0x..." for failure messages. */
std::string hexDigest(std::uint64_t v);

} // namespace dbpsim

#endif // DBPSIM_TESTS_RUN_DIGEST_HH
