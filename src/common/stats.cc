#include "common/stats.hh"

#include <iomanip>

#include "common/log.hh"

namespace dbpsim {

StatHistogram::StatHistogram(std::size_t bucket_count, double bucket_width)
    : buckets_(bucket_count, 0), width_(bucket_width)
{
    DBP_ASSERT(bucket_count > 0, "histogram needs >=1 bucket");
    DBP_ASSERT(bucket_width > 0.0, "histogram bucket width must be > 0");
}

void
StatHistogram::sample(double v)
{
    ++count_;
    if (v < 0) {
        ++overflow_;
        return;
    }
    auto idx = static_cast<std::size_t>(v / width_);
    if (idx >= buckets_.size())
        ++overflow_;
    else
        ++buckets_[idx];
}

void
StatHistogram::reset()
{
    for (auto &b : buckets_)
        b = 0;
    overflow_ = 0;
    count_ = 0;
}

void
StatGroup::addScalar(const std::string &name, const StatScalar *s)
{
    entries_.push_back(Entry{name, s});
}

void
StatGroup::dump(std::ostream &os) const
{
    for (const auto &e : entries_)
        os << name_ << '.' << std::left << std::setw(32) << e.name << ' '
           << e.scalar->value() << '\n';
}

} // namespace dbpsim
