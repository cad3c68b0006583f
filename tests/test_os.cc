/**
 * @file
 * OS model tests: page tables, the color-aware frame allocator, and
 * the OsMemory facade (first-touch allocation, color-set enforcement,
 * page migration) — the enforcement machinery every partitioning
 * policy depends on.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/random.hh"
#include "os/os_memory.hh"

namespace dbpsim {
namespace {

DramGeometry
geo()
{
    DramGeometry g;
    g.channels = 2;
    g.ranksPerChannel = 2;
    g.banksPerRank = 8;
    g.rowsPerBank = 256;
    g.rowBytes = 8192;
    g.lineBytes = 64;
    g.pageBytes = 4096;
    return g;
}

TEST(PageTable, MapLookupRemap)
{
    PageTable pt;
    std::uint64_t frame = 0;
    EXPECT_FALSE(pt.lookup(5, frame));
    pt.map(5, 100);
    EXPECT_TRUE(pt.lookup(5, frame));
    EXPECT_EQ(frame, 100u);
    EXPECT_EQ(pt.size(), 1u);
    pt.remap(5, 200);
    pt.lookup(5, frame);
    EXPECT_EQ(frame, 200u);
    EXPECT_EQ(pt.size(), 1u);
}

TEST(PageTable, DoubleMapPanics)
{
    PageTable pt;
    pt.map(1, 10);
    EXPECT_DEATH(pt.map(1, 11), "already mapped");
}

TEST(PageTable, ForEachVisitsAll)
{
    PageTable pt;
    pt.map(1, 10);
    pt.map(2, 20);
    pt.map(3, 30);
    std::uint64_t sum_v = 0, sum_f = 0;
    pt.forEach([&](std::uint64_t v, std::uint64_t f) {
        sum_v += v;
        sum_f += f;
    });
    EXPECT_EQ(sum_v, 6u);
    EXPECT_EQ(sum_f, 60u);
}

TEST(FrameAllocator, ColorAccountingExact)
{
    AddressMap map(geo());
    FrameAllocator alloc(map);
    EXPECT_EQ(alloc.numColors(), 32u);

    std::uint64_t per_color = map.framesPerColor();
    EXPECT_EQ(alloc.freeInColor(3), per_color);

    std::uint64_t f;
    ASSERT_TRUE(alloc.allocateInColor(3, f));
    EXPECT_EQ(map.colorOfFrame(f), 3u);
    EXPECT_EQ(alloc.freeInColor(3), per_color - 1);

    alloc.release(f);
    EXPECT_EQ(alloc.freeInColor(3), per_color);
    // Released frame is reused.
    std::uint64_t f2;
    ASSERT_TRUE(alloc.allocateInColor(3, f2));
    EXPECT_EQ(f2, f);
}

TEST(FrameAllocator, ColorExhaustion)
{
    AddressMap map(geo());
    FrameAllocator alloc(map);
    std::uint64_t per_color = map.framesPerColor();
    std::uint64_t f;
    for (std::uint64_t i = 0; i < per_color; ++i)
        ASSERT_TRUE(alloc.allocateInColor(7, f));
    EXPECT_FALSE(alloc.allocateInColor(7, f));
    // Other colors unaffected.
    EXPECT_TRUE(alloc.allocateInColor(8, f));
}

TEST(FrameAllocator, RoundRobinSpreadsAcrossColors)
{
    AddressMap map(geo());
    FrameAllocator alloc(map);
    std::vector<unsigned> colors = {2, 5, 9};
    std::size_t cursor = 0;
    std::set<unsigned> seen;
    for (int i = 0; i < 6; ++i)
        seen.insert(map.colorOfFrame(alloc.allocate(colors, cursor)));
    EXPECT_EQ(seen, std::set<unsigned>({2, 5, 9}));
}

TEST(FrameAllocator, AllocatePropertySweep)
{
    AddressMap map(geo());
    FrameAllocator alloc(map);
    Rng rng(31);
    // Random color sets, random interleavings: every frame must come
    // from the requested set and never repeat while live.
    std::set<std::uint64_t> live;
    for (int round = 0; round < 50; ++round) {
        auto set_size =
            static_cast<unsigned>(1 + rng.nextBelow(6));
        std::vector<unsigned> colors;
        for (unsigned i = 0; i < set_size; ++i)
            colors.push_back(
                static_cast<unsigned>(rng.nextBelow(map.numColors())));
        std::size_t cursor = 0;
        for (int i = 0; i < 20; ++i) {
            std::uint64_t f = alloc.allocate(colors, cursor);
            unsigned c = map.colorOfFrame(f);
            EXPECT_NE(std::find(colors.begin(), colors.end(), c),
                      colors.end());
            EXPECT_TRUE(live.insert(f).second) << "double allocation";
        }
    }
}

TEST(OsMemory, TranslateIsStable)
{
    AddressMap map(geo());
    OsMemory os(map, 2);
    Addr va = 0x1234540;
    Addr pa1 = os.translate(0, va);
    Addr pa2 = os.translate(0, va);
    EXPECT_EQ(pa1, pa2);
    // Offset within the page preserved.
    EXPECT_EQ(pa1 % 4096, va % 4096);
}

TEST(OsMemory, ThreadsGetDistinctFrames)
{
    AddressMap map(geo());
    OsMemory os(map, 2);
    Addr pa0 = os.translate(0, 0x0);
    Addr pa1 = os.translate(1, 0x0);
    EXPECT_NE(pa0 / 4096, pa1 / 4096);
}

TEST(OsMemory, ColorSetEnforcedOnAllocation)
{
    AddressMap map(geo());
    OsMemory os(map, 1);
    os.setColorSet(0, {4, 11, 19});

    for (int i = 0; i < 200; ++i) {
        Addr pa = os.translate(0, static_cast<Addr>(i) * 4096);
        unsigned color = map.colorOf(map.decode(pa));
        EXPECT_TRUE(color == 4 || color == 11 || color == 19)
            << "page landed in color " << color;
    }
    EXPECT_EQ(os.mappedPages(0), 200u);
    EXPECT_EQ(os.nonconformingPages(0), 0u);
}

TEST(OsMemory, MigrationMovesNonconformingPages)
{
    AddressMap map(geo());
    OsMemory os(map, 1);
    os.setColorSet(0, {0, 1});
    for (int i = 0; i < 50; ++i)
        os.translate(0, static_cast<Addr>(i) * 4096);

    os.setColorSet(0, {30, 31});
    EXPECT_EQ(os.nonconformingPages(0), 50u);

    MigrationResult res = os.migrate(0, 0);
    EXPECT_EQ(res.pages, 50u);
    EXPECT_EQ(os.nonconformingPages(0), 0u);
    for (const auto &[src, dst] : res.moves) {
        EXPECT_TRUE(src == 0 || src == 1);
        EXPECT_TRUE(dst == 30 || dst == 31);
    }

    // Translations still resolve, now into the new colors.
    for (int i = 0; i < 50; ++i) {
        Addr pa = os.translate(0, static_cast<Addr>(i) * 4096);
        unsigned color = map.colorOf(map.decode(pa));
        EXPECT_TRUE(color == 30 || color == 31);
    }
}

TEST(OsMemory, MigrationRespectsCap)
{
    AddressMap map(geo());
    OsMemory os(map, 1);
    os.setColorSet(0, {0});
    for (int i = 0; i < 40; ++i)
        os.translate(0, static_cast<Addr>(i) * 4096);
    os.setColorSet(0, {5});
    MigrationResult res = os.migrate(0, 10);
    EXPECT_EQ(res.pages, 10u);
    EXPECT_EQ(os.nonconformingPages(0), 30u);
    EXPECT_EQ(os.statMigratedPages.value(), 10u);
}

TEST(OsMemory, MigrationFreesOldFrames)
{
    AddressMap map(geo());
    OsMemory os(map, 1);
    os.setColorSet(0, {0});
    std::uint64_t before = os.allocator().freeInColor(0);
    for (int i = 0; i < 20; ++i)
        os.translate(0, static_cast<Addr>(i) * 4096);
    EXPECT_EQ(os.allocator().freeInColor(0), before - 20);
    os.setColorSet(0, {3});
    os.migrate(0, 0);
    EXPECT_EQ(os.allocator().freeInColor(0), before);
}

TEST(OsMemory, InvalidColorSetRejected)
{
    AddressMap map(geo());
    OsMemory os(map, 1);
    EXPECT_DEATH(os.setColorSet(0, {}), "empty");
    EXPECT_DEATH(os.setColorSet(0, {999}), "out of range");
}

TEST(OsMemory, BadThreadIdPanics)
{
    AddressMap map(geo());
    OsMemory os(map, 2);
    EXPECT_DEATH(os.translate(5, 0), "out of range");
    EXPECT_DEATH(os.translate(-1, 0), "out of range");
}

} // namespace
} // namespace dbpsim
