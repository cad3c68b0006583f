#include "dram/addr_map.hh"

#include <sstream>

#include "common/log.hh"

namespace dbpsim {

std::string
DramGeometry::validate() const
{
    auto pot = [](std::uint64_t v) { return isPowerOfTwo(v); };
    std::ostringstream os;
    if (!pot(channels) || !pot(ranksPerChannel) || !pot(banksPerRank) ||
        !pot(subarraysPerBank) || !pot(rowsPerBank) || !pot(rowBytes) ||
        !pot(lineBytes) || !pot(pageBytes)) {
        os << "all geometry fields must be powers of two";
        return os.str();
    }
    if (subarraysPerBank == 0 || subarraysPerBank > rowsPerBank) {
        os << "subarraysPerBank (" << subarraysPerBank
           << ") must be in [1, rowsPerBank]";
        return os.str();
    }
    if (lineBytes > pageBytes) {
        os << "lineBytes (" << lineBytes << ") > pageBytes ("
           << pageBytes << ")";
        return os.str();
    }
    if (pageBytes > rowBytes) {
        os << "pageBytes (" << pageBytes << ") > rowBytes (" << rowBytes
           << "): a frame would span rows";
        return os.str();
    }
    if (rowBytes < lineBytes) {
        os << "rowBytes < lineBytes";
        return os.str();
    }
    return std::string();
}

AddressMap::AddressMap(const DramGeometry &geom, bool color_subarrays)
    : geom_(geom), colorSubarrays_(color_subarrays)
{
    std::string err = geom.validate();
    if (!err.empty())
        fatal("invalid DRAM geometry: ", err);

    chanBits_ = floorLog2(geom.channels);
    rankBits_ = floorLog2(geom.ranksPerChannel);
    bankBits_ = floorLog2(geom.banksPerRank);
    rowBits_ = floorLog2(geom.rowsPerBank);
    lineBits_ = floorLog2(geom.lineBytes);
    pageLineBits_ = floorLog2(geom.pageBytes / geom.lineBytes);
    slotBits_ = floorLog2(geom.rowBytes / geom.pageBytes);
    subBits_ = floorLog2(geom.subarraysPerBank);
}

AddressMap::AddressMap(const DramGeometry &geom, MapScheme, bool bank_xor,
                       bool color_subarrays)
    : AddressMap(geom, color_subarrays)
{
    DBP_ASSERT(!bank_xor, "the address map has no bank XOR");
}

namespace {

/** Extract @p bits bits from @p value at the running cursor. */
std::uint64_t
take(std::uint64_t &value, unsigned bits)
{
    std::uint64_t field = value & ((1ULL << bits) - 1);
    value >>= bits;
    return field;
}

/** Append @p field (of width @p bits) at the running cursor. */
void
put(std::uint64_t &value, unsigned &shift, std::uint64_t field,
    unsigned bits)
{
    value |= field << shift;
    shift += bits;
}

} // namespace

DramCoord
AddressMap::decode(Addr addr) const
{
    std::uint64_t line = addr >> lineBits_;
    DramCoord c;
    std::uint64_t col_lo = take(line, pageLineBits_);
    c.channel = static_cast<unsigned>(take(line, chanBits_));
    c.rank = static_cast<unsigned>(take(line, rankBits_));
    c.bank = static_cast<unsigned>(take(line, bankBits_));
    std::uint64_t slot = take(line, slotBits_);
    c.row = take(line, rowBits_);
    c.col = col_lo | (slot << pageLineBits_);
    return c;
}

Addr
AddressMap::encode(const DramCoord &c) const
{
    DBP_ASSERT(c.channel < geom_.channels, "channel out of range");
    DBP_ASSERT(c.rank < geom_.ranksPerChannel, "rank out of range");
    DBP_ASSERT(c.bank < geom_.banksPerRank, "bank out of range");
    DBP_ASSERT(c.row < geom_.rowsPerBank, "row out of range");
    DBP_ASSERT(c.col < geom_.colsPerRow(), "col out of range");

    std::uint64_t col_lo = c.col & ((1ULL << pageLineBits_) - 1);
    std::uint64_t slot = c.col >> pageLineBits_;
    std::uint64_t line = 0;
    unsigned shift = 0;
    put(line, shift, col_lo, pageLineBits_);
    put(line, shift, c.channel, chanBits_);
    put(line, shift, c.rank, rankBits_);
    put(line, shift, c.bank, bankBits_);
    put(line, shift, slot, slotBits_);
    put(line, shift, c.row, rowBits_);
    return line << lineBits_;
}

unsigned
AddressMap::colorOf(const DramCoord &coord) const
{
    unsigned bank_color =
        ((coord.channel * geom_.ranksPerChannel) + coord.rank)
        * geom_.banksPerRank + coord.bank;
    if (!colorSubarrays_)
        return bank_color;
    return bank_color * geom_.subarraysPerBank + subarrayOf(coord.row);
}

AddressMap::ColorLocation
AddressMap::colorLocation(unsigned color) const
{
    DBP_ASSERT(color < numColors(), "color out of range");
    ColorLocation loc;
    loc.subarray = 0;
    if (colorSubarrays_) {
        loc.subarray = color % geom_.subarraysPerBank;
        color /= geom_.subarraysPerBank;
    }
    loc.bank = color % geom_.banksPerRank;
    loc.rank = (color / geom_.banksPerRank) % geom_.ranksPerChannel;
    loc.channel = color / (geom_.banksPerRank * geom_.ranksPerChannel);
    return loc;
}

std::uint64_t
AddressMap::framesPerColor() const
{
    return geom_.totalFrames() / numColors();
}

std::uint64_t
AddressMap::frameOfColorIndex(unsigned color, std::uint64_t index) const
{
    DBP_ASSERT(color < numColors(), "color out of range");
    DBP_ASSERT(index < framesPerColor(), "frame index out of range");
    // Frame number layout (LSB first): chan | rank | bank | slot | row.
    // colorOf() orders colors as ((chan*ranks)+rank)*banks+bank, while
    // the frame's low bits order them as chan lowest. Re-split color.
    unsigned sub = 0;
    if (colorSubarrays_) {
        sub = color % geom_.subarraysPerBank;
        color /= geom_.subarraysPerBank;
    }
    unsigned bank = color % geom_.banksPerRank;
    unsigned rank = (color / geom_.banksPerRank) % geom_.ranksPerChannel;
    unsigned chan = color / (geom_.banksPerRank * geom_.ranksPerChannel);

    std::uint64_t frame = 0;
    unsigned shift = 0;
    put(frame, shift, chan, chanBits_);
    put(frame, shift, rank, rankBits_);
    put(frame, shift, bank, bankBits_);
    if (colorSubarrays_) {
        // The subarray index is the low row bits, which sit just above
        // the slot bits; the index enumerates slot + high row bits.
        std::uint64_t slot = index & ((1ULL << slotBits_) - 1);
        put(frame, shift, slot, slotBits_);
        put(frame, shift, sub, subBits_);
        put(frame, shift, index >> slotBits_, rowBits_ - subBits_);
    } else {
        put(frame, shift, index, slotBits_ + rowBits_);
    }
    return frame;
}

unsigned
AddressMap::colorOfFrame(std::uint64_t frame) const
{
    std::uint64_t f = frame;
    auto chan = static_cast<unsigned>(take(f, chanBits_));
    auto rank = static_cast<unsigned>(take(f, rankBits_));
    auto bank = static_cast<unsigned>(take(f, bankBits_));
    unsigned bank_color =
        ((chan * geom_.ranksPerChannel) + rank) * geom_.banksPerRank
        + bank;
    if (!colorSubarrays_)
        return bank_color;
    take(f, slotBits_);
    auto sub = static_cast<unsigned>(take(f, subBits_));
    return bank_color * geom_.subarraysPerBank + sub;
}

} // namespace dbpsim
