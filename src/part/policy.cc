#include "part/policy.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/log.hh"

namespace dbpsim {

ColorLayout::ColorLayout(unsigned channels, unsigned ranks, unsigned banks,
                         unsigned subarrays)
    : colorsPerChannel_(ranks * banks * subarrays), subs_(subarrays)
{
    DBP_ASSERT(channels > 0 && ranks > 0 && banks > 0 && subarrays > 0,
               "bad geometry for color layout");
    spread_.reserve(static_cast<std::size_t>(channels) *
                    colorsPerChannel_);
    for (unsigned b = 0; b < banks; ++b)
        for (unsigned r = 0; r < ranks; ++r)
            for (unsigned c = 0; c < channels; ++c)
                for (unsigned s = 0; s < subarrays; ++s)
                    spread_.push_back(((c * ranks + r) * banks + b) *
                                          subarrays + s);
}

std::vector<unsigned>
ColorLayout::all() const
{
    std::vector<unsigned> out(spread_.size());
    std::iota(out.begin(), out.end(), 0u);
    return out;
}

std::vector<unsigned>
ColorLayout::ofChannels(const std::vector<unsigned> &channel_list) const
{
    std::vector<unsigned> out;
    for (unsigned color : spread_)
        if (std::find(channel_list.begin(), channel_list.end(),
                      color / colorsPerChannel_) != channel_list.end())
            out.push_back(color);
    return out;
}

PartitionAssignment
ColorLayout::equalSplit(unsigned threads) const
{
    DBP_ASSERT(threads > 0, "equal split needs >= 1 thread");
    const unsigned total = banks();
    auto bank_slice = [this](unsigned first, unsigned count) {
        auto from = spread_.begin() + first * subs_;
        return std::vector<unsigned>(from, from + count * subs_);
    };
    PartitionAssignment out(threads);
    if (total < threads) {
        for (unsigned t = 0; t < threads; ++t)
            out[t] = bank_slice(t % total, 1);
        return out;
    }
    const unsigned base = total / threads;
    const unsigned extra = total % threads;
    unsigned first = 0;
    for (unsigned t = 0; t < threads; ++t) {
        const unsigned count = base + (t < extra ? 1 : 0);
        out[t] = bank_slice(first, count);
        first += count;
    }
    return out;
}

void
roundByLargestRemainder(std::vector<unsigned> &counts,
                        const std::vector<double> &exact,
                        std::vector<unsigned> eligible, unsigned total)
{
    unsigned used = std::accumulate(counts.begin(), counts.end(), 0u);
    DBP_ASSERT(used >= total || !eligible.empty(),
               "largest remainder: no entry may take the remainder");
    std::sort(eligible.begin(), eligible.end(),
              [&exact](unsigned a, unsigned b) {
                  double fa = exact[a] - std::floor(exact[a]);
                  double fb = exact[b] - std::floor(exact[b]);
                  if (fa != fb)
                      return fa > fb;
                  return a < b;
              });
    for (std::size_t i = 0; used < total; ++i, ++used)
        ++counts[eligible[i % eligible.size()]];
}

} // namespace dbpsim
