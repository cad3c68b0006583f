/**
 * @file
 * Physical address <-> DRAM coordinate mapping.
 *
 * The map is page-interleaved: the {channel, rank, bank} bits sit
 * entirely above the page offset, so one physical frame lives wholly
 * inside one bank. Bank partitioning via OS page coloring relies on
 * exactly this.
 */

#ifndef DBPSIM_DRAM_ADDR_MAP_HH
#define DBPSIM_DRAM_ADDR_MAP_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace dbpsim {

/**
 * DRAM geometry. All counts must be powers of two.
 */
struct DramGeometry
{
    unsigned channels = 2;          ///< memory channels.
    unsigned ranksPerChannel = 2;   ///< ranks per channel.
    unsigned banksPerRank = 8;      ///< banks per rank.
    unsigned subarraysPerBank = 8;  ///< subarrays per bank (SALP/MASA).
    std::uint64_t rowsPerBank = 32768; ///< rows per bank.
    std::uint64_t rowBytes = 8192;  ///< row (page) size per bank.
    std::uint64_t lineBytes = 64;   ///< cache-line / burst granularity.
    std::uint64_t pageBytes = 4096; ///< OS frame size.

    /** Total banks across the machine. */
    unsigned totalBanks() const
    {
        return channels * ranksPerChannel * banksPerRank;
    }

    /** Line-sized columns per row. */
    std::uint64_t colsPerRow() const { return rowBytes / lineBytes; }

    /** Total capacity in bytes. */
    std::uint64_t capacityBytes() const
    {
        return static_cast<std::uint64_t>(totalBanks()) * rowsPerBank
            * rowBytes;
    }

    /** Total OS frames. */
    std::uint64_t totalFrames() const { return capacityBytes() / pageBytes; }

    /** Validate power-of-two-ness and size relations; "" when OK. */
    std::string validate() const;
};

/**
 * Decoded DRAM coordinates of one cache line.
 */
struct DramCoord
{
    unsigned channel = 0;
    unsigned rank = 0;
    unsigned bank = 0;
    std::uint64_t row = 0;
    std::uint64_t col = 0; ///< line-sized column within the row.

    bool operator==(const DramCoord &o) const = default;
};

/**
 * The one address-bit ordering. Read only by hostbench/traced_system.cc,
 * through SystemParams::scheme and the four-argument constructor.
 */
enum class MapScheme
{
    PageInterleave,
};

/**
 * Bidirectional address translator for a geometry. Line address bits,
 * LSB first: [line-in-page][chan][rank][bank][page-slot-in-row][row].
 *
 * A "color" identifies one physical bank machine-wide:
 *   color = ((channel * ranksPerChannel) + rank) * banksPerRank + bank.
 * With subarray coloring enabled, each bank color subdivides into
 * subarraysPerBank colors:
 *   color = bankColor * subarraysPerBank + subarrayOf(row),
 * so the OS can give two threads disjoint subarrays of one bank.
 */
class AddressMap
{
  public:
    /**
     * @param geom Validated DRAM geometry.
     * @param color_subarrays If true, colors name {channel, rank,
     *        bank, subarray} instead of {channel, rank, bank}; the
     *        partitioning axis gains subarray granularity.
     */
    explicit AddressMap(const DramGeometry &geom,
                        bool color_subarrays = false);

    /**
     * The same map, for hostbench/traced_system.cc, its only caller.
     * @p bank_xor must be false.
     */
    AddressMap(const DramGeometry &geom, MapScheme scheme, bool bank_xor,
               bool color_subarrays);

    /** Decode a byte address into DRAM coordinates. */
    DramCoord decode(Addr addr) const;

    /** Inverse of decode; returns the line's base byte address. */
    Addr encode(const DramCoord &coord) const;

    /** Machine-wide bank color of a coordinate. */
    unsigned colorOf(const DramCoord &coord) const;

    /** Location of one color within the machine. */
    struct ColorLocation
    {
        unsigned channel;
        unsigned rank;
        unsigned bank;
        unsigned subarray; ///< 0 unless subarray coloring is enabled.
    };

    /** Inverse of colorOf: which (channel, rank, bank[, subarray]) a
     *  color names. */
    ColorLocation colorLocation(unsigned color) const;

    /** Number of colors (total banks, x subarrays when colored). */
    unsigned numColors() const
    {
        return geom_.totalBanks()
            * (colorSubarrays_ ? geom_.subarraysPerBank : 1u);
    }

    /**
     * Subarray index of a row. The low row bits select the subarray,
     * so a frame's slot-contiguous rows stripe across subarrays and
     * the OS color arithmetic stays frame-granular (every byte of a
     * frame shares one row, hence one subarray).
     */
    unsigned subarrayOf(std::uint64_t row) const
    {
        return static_cast<unsigned>(row & (geom_.subarraysPerBank - 1));
    }

    /** True iff colors carry the subarray index. */
    bool subarrayColoring() const { return colorSubarrays_; }

    /** Geometry in use. */
    const DramGeometry &geometry() const { return geom_; }

    /** OS frames per color. */
    std::uint64_t framesPerColor() const;

    /**
     * Frame number of the @p index 'th frame of @p color
     * (index < framesPerColor()).
     */
    std::uint64_t frameOfColorIndex(unsigned color,
                                    std::uint64_t index) const;

    /** Color of a frame number. */
    unsigned colorOfFrame(std::uint64_t frame) const;

  private:
    DramGeometry geom_;
    bool colorSubarrays_;

    unsigned chanBits_;
    unsigned rankBits_;
    unsigned bankBits_;
    unsigned rowBits_;
    unsigned lineBits_;
    unsigned pageLineBits_; ///< log2(pageBytes / lineBytes).
    unsigned slotBits_;     ///< log2(rowBytes / pageBytes).
    unsigned subBits_;      ///< log2(subarraysPerBank).
};

} // namespace dbpsim

#endif // DBPSIM_DRAM_ADDR_MAP_HH
