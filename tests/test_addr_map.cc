/**
 * @file
 * Address-map tests: decode/encode bijectivity across geometries
 * (property sweeps), frame-coloring soundness with bank and subarray
 * colors, and the color <-> location arithmetic the OS and partition
 * manager rely on.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/random.hh"
#include "dram/addr_map.hh"

namespace dbpsim {
namespace {

DramGeometry
smallGeometry()
{
    DramGeometry g;
    g.channels = 2;
    g.ranksPerChannel = 2;
    g.banksPerRank = 8;
    g.rowsPerBank = 1024;
    g.rowBytes = 8192;
    g.lineBytes = 64;
    g.pageBytes = 4096;
    return g;
}

TEST(Geometry, Validation)
{
    DramGeometry g = smallGeometry();
    EXPECT_TRUE(g.validate().empty());

    g.channels = 3; // not a power of two.
    EXPECT_FALSE(g.validate().empty());

    g = smallGeometry();
    g.pageBytes = 16384; // page larger than row.
    EXPECT_FALSE(g.validate().empty());
}

TEST(Geometry, DerivedQuantities)
{
    DramGeometry g = smallGeometry();
    EXPECT_EQ(g.totalBanks(), 32u);
    EXPECT_EQ(g.colsPerRow(), 128u);
    EXPECT_EQ(g.capacityBytes(), 32ULL * 1024 * 8192);
    EXPECT_EQ(g.totalFrames(), g.capacityBytes() / 4096);
}

TEST(AddrMapRoundTrip, DecodeEncodeBijective)
{
    DramGeometry g = smallGeometry();
    AddressMap map(g);

    Rng rng(99);
    for (int i = 0; i < 5000; ++i) {
        Addr line = rng.nextBelow(g.capacityBytes() / g.lineBytes);
        Addr addr = line * g.lineBytes;
        DramCoord c = map.decode(addr);
        EXPECT_LT(c.channel, g.channels);
        EXPECT_LT(c.rank, g.ranksPerChannel);
        EXPECT_LT(c.bank, g.banksPerRank);
        EXPECT_LT(c.row, g.rowsPerBank);
        EXPECT_LT(c.col, g.colsPerRow());
        EXPECT_EQ(map.encode(c), addr);
    }
}

TEST(AddrMapRoundTrip, EncodeDecodeBijective)
{
    DramGeometry g = smallGeometry();
    AddressMap map(g);

    Rng rng(7);
    for (int i = 0; i < 5000; ++i) {
        DramCoord c;
        c.channel = static_cast<unsigned>(rng.nextBelow(g.channels));
        c.rank = static_cast<unsigned>(rng.nextBelow(g.ranksPerChannel));
        c.bank = static_cast<unsigned>(rng.nextBelow(g.banksPerRank));
        c.row = rng.nextBelow(g.rowsPerBank);
        c.col = rng.nextBelow(g.colsPerRow());
        EXPECT_EQ(map.decode(map.encode(c)), c);
    }
}

/** Parameterized geometry sweep; each case runs with bank colors and
 *  with subarray colors. */
class AddrMapGeometry
    : public ::testing::TestWithParam<
          std::tuple<unsigned, unsigned, unsigned>>
{
};

TEST_P(AddrMapGeometry, PageInterleaveRoundTripAndColoring)
{
    auto [channels, ranks, banks] = GetParam();
    DramGeometry g = smallGeometry();
    g.channels = channels;
    g.ranksPerChannel = ranks;
    g.banksPerRank = banks;
    for (bool colored : {false, true}) {
        SCOPED_TRACE(colored ? "subarray colors" : "bank colors");
        AddressMap map(g, colored);
        const unsigned per_bank = colored ? g.subarraysPerBank : 1u;
        EXPECT_EQ(map.numColors(), channels * ranks * banks * per_bank);

        Rng rng(123);
        for (int i = 0; i < 2000; ++i) {
            Addr line = rng.nextBelow(g.capacityBytes() / g.lineBytes);
            Addr addr = line * g.lineBytes;
            DramCoord c = map.decode(addr);
            EXPECT_EQ(map.encode(c), addr);

            // Every byte of the frame shares the frame's color.
            std::uint64_t frame = addr / g.pageBytes;
            EXPECT_EQ(map.colorOf(c), map.colorOfFrame(frame));
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, AddrMapGeometry,
    ::testing::Values(std::make_tuple(1u, 1u, 8u),
                      std::make_tuple(1u, 2u, 8u),
                      std::make_tuple(2u, 2u, 8u),
                      std::make_tuple(2u, 1u, 16u),
                      std::make_tuple(4u, 2u, 8u),
                      std::make_tuple(2u, 2u, 16u)));

TEST(AddrMap, FrameSpansSingleBankUnderPageInterleave)
{
    DramGeometry g = smallGeometry();
    AddressMap map(g);

    Rng rng(5);
    for (int i = 0; i < 500; ++i) {
        std::uint64_t frame = rng.nextBelow(g.totalFrames());
        Addr base = frame * g.pageBytes;
        unsigned color = map.colorOf(map.decode(base));
        for (std::uint64_t off = 0; off < g.pageBytes;
             off += g.lineBytes) {
            EXPECT_EQ(map.colorOf(map.decode(base + off)), color);
        }
    }
}

TEST(AddrMap, FrameColorIndexBijection)
{
    DramGeometry g = smallGeometry();
    for (bool colored : {false, true}) {
        SCOPED_TRACE(colored ? "subarray colors" : "bank colors");
        AddressMap map(g, colored);

        std::set<std::uint64_t> seen;
        for (unsigned color = 0; color < map.numColors(); ++color) {
            for (std::uint64_t i = 0; i < 16; ++i) {
                std::uint64_t frame = map.frameOfColorIndex(color, i);
                EXPECT_EQ(map.colorOfFrame(frame), color);
                EXPECT_TRUE(seen.insert(frame).second)
                    << "frame " << frame << " produced twice";
            }
        }
        EXPECT_EQ(map.framesPerColor(),
                  g.totalFrames() / map.numColors());
    }
}

TEST(AddrMap, ColorLocationInverse)
{
    DramGeometry g = smallGeometry();
    for (bool colored : {false, true}) {
        SCOPED_TRACE(colored ? "subarray colors" : "bank colors");
        AddressMap map(g, colored);
        for (unsigned color = 0; color < map.numColors(); ++color) {
            auto loc = map.colorLocation(color);
            DramCoord c;
            c.channel = loc.channel;
            c.rank = loc.rank;
            c.bank = loc.bank;
            c.row = loc.subarray; // the low row bits select the subarray.
            EXPECT_EQ(map.colorOf(c), color);
        }
    }
}

TEST(AddrMap, FourArgumentConstructorBuildsTheSameMap)
{
    DramGeometry g = smallGeometry();
    for (bool colored : {false, true}) {
        SCOPED_TRACE(colored ? "subarray colors" : "bank colors");
        AddressMap one(g, colored);
        AddressMap four(g, MapScheme::PageInterleave, false, colored);
        EXPECT_EQ(four.subarrayColoring(), colored);
        EXPECT_EQ(four.numColors(), one.numColors());

        Rng rng(11);
        for (int i = 0; i < 2000; ++i) {
            Addr line = rng.nextBelow(g.capacityBytes() / g.lineBytes);
            Addr addr = line * g.lineBytes;
            EXPECT_EQ(four.decode(addr), one.decode(addr));
            EXPECT_EQ(four.colorOfFrame(addr / g.pageBytes),
                      one.colorOfFrame(addr / g.pageBytes));
        }
    }
}

} // namespace
} // namespace dbpsim
