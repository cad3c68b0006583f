/**
 * @file
 * Google-benchmark microbenchmarks of the simulator's hot paths:
 * address decode/encode, DRAM channel command checks, scheduler
 * comparators under a loaded queue, frame allocation, synthetic trace
 * generation, and full-system cycles/second. These guard the
 * simulator's own performance (a figure sweep runs ~500 simulations).
 */

#include <benchmark/benchmark.h>

#include <memory>

#include "dram/addr_map.hh"
#include "dram/channel.hh"
#include "mem/sched_frfcfs.hh"
#include "os/frame_alloc.hh"
#include "sim/system.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"

using namespace dbpsim;

namespace {

DramGeometry
geo()
{
    DramGeometry g;
    g.rowsPerBank = 4096;
    return g;
}

void
BM_AddrDecode(benchmark::State &state)
{
    AddressMap map(geo());
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.decode(a));
        a += 4096 + 64;
    }
}
BENCHMARK(BM_AddrDecode);

void
BM_AddrRoundTrip(benchmark::State &state)
{
    AddressMap map(geo());
    Addr a = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(map.encode(map.decode(a)));
        a += 8192 + 64;
    }
}
BENCHMARK(BM_AddrRoundTrip);

void
BM_ChannelCanIssue(benchmark::State &state)
{
    DramChannel ch(geo(), ddr3_1600(), 0);
    ch.issue(DramCmd::Activate, 0, 0, 5, 0);
    // dbplint:allow(cycle-literal) reason=arbitrary probe cycle for the microbenchmark loop, not a device timing
    Cycle now = 100;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ch.canIssue(DramCmd::Read, 0, 0, 5, now));
        ++now;
    }
}
BENCHMARK(BM_ChannelCanIssue);

void
BM_SchedulerComparator(benchmark::State &state)
{
    DramChannel ch(geo(), ddr3_1600(), 0);
    ch.issue(DramCmd::Activate, 0, 0, 5, 0);
    FrFcfsScheduler sched;
    SchedContext ctx{ch, 100};
    MemRequest a, b;
    a.coord.bank = 0;
    a.coord.row = 5;
    a.enqueueCycle = 10;
    b.coord.bank = 1;
    b.coord.row = 7;
    b.enqueueCycle = 5;
    for (auto _ : state)
        benchmark::DoNotOptimize(sched.higherPriority(a, b, ctx));
}
BENCHMARK(BM_SchedulerComparator);

void
BM_FrameAllocate(benchmark::State &state)
{
    AddressMap map(geo());
    auto alloc = std::make_unique<FrameAllocator>(map);
    std::vector<unsigned> colors = {0, 5, 9, 13};
    std::size_t cursor = 0;
    std::uint64_t count = 0;
    for (auto _ : state) {
        std::uint64_t f = alloc->allocate(colors, cursor);
        benchmark::DoNotOptimize(f);
        alloc->release(f);
        ++count;
    }
}
BENCHMARK(BM_FrameAllocate);

void
BM_SyntheticNext(benchmark::State &state)
{
    auto src = makeSpecSource("mcf", 1);
    for (auto _ : state)
        benchmark::DoNotOptimize(src->next());
}
BENCHMARK(BM_SyntheticNext);

void
BM_SystemCpuCycles(benchmark::State &state)
{
    auto a = makeSpecSource("mcf", 1);
    auto b = makeSpecSource("libquantum", 2);
    std::vector<TraceSource *> raw{a.get(), b.get()};
    SystemParams params;
    params.numCores = 2;
    params.geometry.rowsPerBank = 4096;
    System sys(params, raw);
    sys.run(10'000); // warm the footprints a little.
    for (auto _ : state)
        sys.run(1000);
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_SystemCpuCycles)->Unit(benchmark::kMicrosecond);

} // namespace

BENCHMARK_MAIN();
