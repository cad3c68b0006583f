/**
 * @file
 * Unit tests for the common substrate: config parsing, deterministic
 * RNG, statistics primitives and table rendering.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/config.hh"
#include "common/random.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "common/types.hh"

namespace dbpsim {
namespace {

TEST(Types, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(1, 4), 1u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
}

TEST(Types, PowerOfTwo)
{
    EXPECT_FALSE(isPowerOfTwo(0));
    EXPECT_TRUE(isPowerOfTwo(1));
    EXPECT_TRUE(isPowerOfTwo(2));
    EXPECT_FALSE(isPowerOfTwo(3));
    EXPECT_TRUE(isPowerOfTwo(1ULL << 40));
    EXPECT_FALSE(isPowerOfTwo((1ULL << 40) + 1));
}

TEST(Types, FloorLog2)
{
    EXPECT_EQ(floorLog2(1), 0u);
    EXPECT_EQ(floorLog2(2), 1u);
    EXPECT_EQ(floorLog2(1024), 10u);
}

TEST(Config, SetGetRoundTrip)
{
    Config c;
    c.set("banks", "32");
    c.set("sched", "tcm");
    EXPECT_TRUE(c.has("banks"));
    EXPECT_FALSE(c.has("ranks"));
    EXPECT_EQ(c.getUInt("banks", 0), 32u);
    EXPECT_EQ(c.getString("sched", ""), "tcm");
    EXPECT_EQ(c.getUInt("missing", 7), 7u);
}

TEST(Config, IntegerSuffixes)
{
    Config c;
    c.set("a", "4k");
    c.set("b", "2m");
    c.set("cap", "1g");
    c.set("hex", "0x20");
    EXPECT_EQ(c.getUInt("a", 0), 4096u);
    EXPECT_EQ(c.getUInt("b", 0), 2u * 1024 * 1024);
    EXPECT_EQ(c.getUInt("cap", 0), 1024ULL * 1024 * 1024);
    EXPECT_EQ(c.getUInt("hex", 0), 32u);
}

TEST(Config, Bools)
{
    Config c;
    c.set("t1", "true");
    c.set("t2", "ON");
    c.set("f1", "0");
    c.set("f2", "no");
    EXPECT_TRUE(c.getBool("t1", false));
    EXPECT_TRUE(c.getBool("t2", false));
    EXPECT_FALSE(c.getBool("f1", true));
    EXPECT_FALSE(c.getBool("f2", true));
    EXPECT_TRUE(c.getBool("missing", true));
}

TEST(Config, ParseToken)
{
    Config c;
    EXPECT_TRUE(c.parseToken("key=value"));
    EXPECT_FALSE(c.parseToken("novalue"));
    EXPECT_FALSE(c.parseToken("=broken"));
    EXPECT_EQ(c.getString("key", ""), "value");
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff = any_diff || (a.next64() != b.next64());
    EXPECT_TRUE(any_diff);
}

TEST(Rng, NextBelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBelow(17), 17u);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GeometricMeanApproximates)
{
    Rng r(13);
    const double p = 0.1;
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(r.nextGeometric(p));
    double mean = sum / n;
    // Expected mean (1-p)/p = 9.
    EXPECT_NEAR(mean, 9.0, 0.5);
}

TEST(Rng, BernoulliExtremes)
{
    Rng r(17);
    EXPECT_FALSE(r.nextBool(0.0));
    EXPECT_TRUE(r.nextBool(1.0));
}

TEST(Rng, SplitIndependence)
{
    Rng a(5);
    Rng b = a.split();
    // Parent and child should not produce identical streams.
    bool differ = false;
    for (int i = 0; i < 10; ++i)
        differ = differ || (a.next64() != b.next64());
    EXPECT_TRUE(differ);
}

TEST(Stats, ScalarBasics)
{
    StatScalar s;
    EXPECT_EQ(s.value(), 0u);
    s.inc();
    s.inc(4);
    EXPECT_EQ(s.value(), 5u);
    s.reset();
    EXPECT_EQ(s.value(), 0u);
}

TEST(Stats, HistogramBuckets)
{
    StatHistogram h(4, 10.0);
    h.sample(5.0);   // bucket 0
    h.sample(15.0);  // bucket 1
    h.sample(39.9);  // bucket 3
    h.sample(40.0);  // overflow
    h.sample(100.0); // overflow
    EXPECT_EQ(h.bucket(0), 1u);
    EXPECT_EQ(h.bucket(1), 1u);
    EXPECT_EQ(h.bucket(2), 0u);
    EXPECT_EQ(h.bucket(3), 1u);
    EXPECT_EQ(h.overflow(), 2u);
    EXPECT_EQ(h.count(), 5u);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
}

TEST(Stats, GroupDump)
{
    StatGroup g("unit");
    StatScalar s;
    s.inc(42);
    g.addScalar("answer", &s);
    std::ostringstream os;
    g.dump(os);
    EXPECT_NE(os.str().find("unit.answer"), std::string::npos);
    EXPECT_NE(os.str().find("42"), std::string::npos);
}

TEST(Table, RendersAlignedWithHeader)
{
    TextTable t({"name", "value"});
    t.beginRow();
    t.cell("alpha");
    t.cell(1.5, 2);
    t.beginRow();
    t.cell("b");
    t.cell(std::int64_t{7});
    std::ostringstream os;
    t.print(os);
    std::string out = os.str();
    EXPECT_NE(out.find("name"), std::string::npos);
    EXPECT_NE(out.find("alpha"), std::string::npos);
    EXPECT_NE(out.find("1.50"), std::string::npos);
    EXPECT_NE(out.find("7"), std::string::npos);
}

TEST(Table, Geomean)
{
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({4.0}), 4.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_NEAR(geomean({2.0, 2.0, 2.0}), 2.0, 1e-12);
}

TEST(Table, FormatDouble)
{
    EXPECT_EQ(formatDouble(1.23456, 2), "1.23");
    EXPECT_EQ(formatDouble(2.0, 0), "2");
}

} // namespace
} // namespace dbpsim
