#include "run_digest.hh"

#include <gtest/gtest.h>

#include <iomanip>
#include <sstream>
#include <vector>

#include "sim/baseline.hh"
#include "sim/system.hh"

namespace dbpsim {

namespace {

/** FNV-1a step over one 64-bit value. */
void
mix64(std::uint64_t &h, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h ^= (v >> (8 * i)) & 0xff;
        h *= 0x100000001b3ULL;
    }
}

} // namespace

void
CommandHasher::onCommand(const CmdEvent &ev)
{
    mix64(hash, ev.channel);
    mix64(hash, static_cast<std::uint64_t>(ev.cmd));
    mix64(hash, ev.rank);
    mix64(hash, ev.bank);
    mix64(hash, ev.row);
    mix64(hash, ev.cycle);
    mix64(hash, static_cast<std::uint64_t>(ev.tid));
    if (next_)
        next_->onCommand(ev);
}

RunConfig
runConfigFromTokens(const std::string &tokens)
{
    Config cfg;
    std::istringstream in(tokens);
    for (std::string token; in >> token;)
        cfg.parseToken(token);
    return makeRunConfig(cfg);
}

std::string
hexDigest(std::uint64_t v)
{
    std::ostringstream os;
    os << "0x" << std::hex << v;
    return os.str();
}

std::uint64_t
runDigest(const RunConfig &rc, const WorkloadMix &mix, const Scheme &scheme,
          bool full_ticks)
{
    SystemParams params = applyScheme(rc.base, scheme);
    params.numCores = static_cast<unsigned>(mix.apps.size());
    params.fullTicks = full_ticks;
    auto owned = buildMixSources(
        mix, jobSeed(rc.seedBase, mix.name, scheme.name));
    std::vector<TraceSource *> sources;
    for (auto &s : owned)
        sources.push_back(s.get());

    System system(params, sources);
    CommandHasher commands(system.protocolChecker());
    for (unsigned c = 0; c < system.numControllers(); ++c)
        system.controllerAt(c).setCommandObserver(&commands);
    std::vector<double> ipc =
        system.runAndMeasure(rc.warmupCpu, rc.measureCpu);
    system.closeIntervalNow();

    std::ostringstream os;
    system.dumpStats(os);
    os << std::setprecision(17);
    for (double v : ipc)
        os << "ipc " << v << '\n';
    for (const ThreadMemProfile &p : system.lastIntervalProfiles())
        os << "profile " << p.mpki << ' ' << p.rowBufferHitRate << ' '
           << p.blp << ' ' << p.mlp << ' ' << p.rowParallelism << ' '
           << p.requests << '\n';
    os << "commands " << hexDigest(commands.hash) << '\n';
    if (ProtocolChecker *pc = system.protocolChecker()) {
        pc->finalize(system.memCycle());
        EXPECT_EQ(pc->violations(), 0u) << mix.name << '/' << scheme.name;
    }
    return hashString(os.str());
}

} // namespace dbpsim
