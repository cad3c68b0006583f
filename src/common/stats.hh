/**
 * @file
 * Lightweight statistics primitives, loosely modelled on gem5's stats
 * package: scalar counters and histograms; scalars are grouped into
 * named StatGroups that can be dumped as text.
 */

#ifndef DBPSIM_COMMON_STATS_HH
#define DBPSIM_COMMON_STATS_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace dbpsim {

/**
 * A monotonically growing scalar counter.
 */
class StatScalar
{
  public:
    StatScalar() = default;

    /** Increment by @p n (default 1). */
    void inc(std::uint64_t n = 1) { value_ += n; }

    /** Current value. */
    std::uint64_t value() const { return value_; }

    /** Reset to zero (used at interval boundaries). */
    void reset() { value_ = 0; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Fixed-bucket histogram over [0, bucketCount * bucketWidth); samples
 * beyond the top land in an overflow bucket.
 */
class StatHistogram
{
  public:
    /**
     * @param bucket_count Number of regular buckets.
     * @param bucket_width Width of each bucket.
     */
    StatHistogram(std::size_t bucket_count, double bucket_width);

    /** Add one sample. */
    void sample(double v);

    /** Count in regular bucket @p i. */
    std::uint64_t bucket(std::size_t i) const { return buckets_.at(i); }

    /** Samples beyond the last regular bucket. */
    std::uint64_t overflow() const { return overflow_; }

    /** Total sample count. */
    std::uint64_t count() const { return count_; }

    /** Number of regular buckets. */
    std::size_t bucketCount() const { return buckets_.size(); }

    /** Width of each regular bucket. */
    double bucketWidth() const { return width_; }

    /** Reset all buckets. */
    void reset();

  private:
    std::vector<std::uint64_t> buckets_;
    double width_;
    std::uint64_t overflow_ = 0;
    std::uint64_t count_ = 0;
};

/**
 * A named collection of stats for dumping. Components register their
 * stats by name; the group formats them aligned.
 */
class StatGroup
{
  public:
    /** @param name Dotted group name shown as a dump prefix. */
    explicit StatGroup(std::string name) : name_(std::move(name)) {}

    /** Register a scalar for dumping. Pointers must outlive the group. */
    void addScalar(const std::string &name, const StatScalar *s);

    /** Write "group.stat value" lines to @p os. */
    void dump(std::ostream &os) const;

    /** Group name. */
    const std::string &name() const { return name_; }

  private:
    struct Entry
    {
        std::string name;
        const StatScalar *scalar;
    };

    std::string name_;
    std::vector<Entry> entries_;
};

} // namespace dbpsim

#endif // DBPSIM_COMMON_STATS_HH
