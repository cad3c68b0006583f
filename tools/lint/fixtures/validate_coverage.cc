// dbplint fixture: timing/validate-coverage fires on a DramTiming
// field that src/dram/refresh.cc reads, here in the timing().tXXX
// form, but DramTiming::validate() never mentions. The test lints
// this file as src/dram/refresh.cc beside a validate() that checks
// tREFI only, so the tREFI read must NOT fire.
#include <cstdint>

using Cycle = std::uint64_t;

struct FixtureTiming
{
    Cycle tREFI = 0;
    Cycle tRFCpb = 0;
};

struct FixtureChannel
{
    FixtureTiming t;
    const FixtureTiming &timing() const { return t; }
};

Cycle
fixtureRefreshWindow(const FixtureChannel &channel)
{
    Cycle trefi = channel.timing().tREFI;
    Cycle trfc_pb = channel.timing().tRFCpb; // EXPECT:validate-coverage
    return trefi + trfc_pb;
}
