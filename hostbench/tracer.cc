#include "tracer.hh"

#include <algorithm>

namespace hostbench {

std::int64_t
clockOverheadNs()
{
    static const std::int64_t overhead = [] {
        std::vector<std::int64_t> d(2001);
        for (auto &x : d) {
            std::int64_t a = nowNs();
            x = nowNs() - a;
        }
        std::nth_element(d.begin(), d.begin() + 1000, d.end());
        return d[1000];
    }();
    return overhead;
}

const char *
layerName(Layer l)
{
    switch (l) {
      case Layer::Trace: return "trace.next";
      case Layer::Core: return "core.tick";
      case Layer::OsTranslate: return "os.translate";
      case Layer::MemEnqueue: return "mem.enqueue";
      case Layer::Sched: return "mem.sched";
      case Layer::Controller: return "mem.controller_tick";
      case Layer::CheckOnCommand: return "check.on_command";
      case Layer::Profiler: return "mem.profiler";
      case Layer::Part: return "part";
      case Layer::Count: break;
    }
    return "?";
}

Layer
parentOf(Layer l)
{
    switch (l) {
      case Layer::OsTranslate:
      case Layer::MemEnqueue:
        return Layer::Core;
      case Layer::CheckOnCommand:
        return Layer::Controller;
      default:
        return Layer::Count;
    }
}

double
LayerTimes::inclusiveNs(Layer l) const
{
    const Stat &s = stats_[static_cast<std::size_t>(l)];
    if (s.timed == 0)
        return 0.0;
    return static_cast<double>(s.ns) * static_cast<double>(s.calls) /
        static_cast<double>(s.timed);
}

double
LayerTimes::selfNs(Layer l) const
{
    double self = inclusiveNs(l);
    for (std::size_t c = 0; c < kLayers; ++c)
        if (parentOf(static_cast<Layer>(c)) == l)
            self -= inclusiveNs(static_cast<Layer>(c));
    return std::max(0.0, self);
}

double
LayerTimes::attributedNs() const
{
    double total = 0.0;
    for (std::size_t c = 0; c < kLayers; ++c)
        if (parentOf(static_cast<Layer>(c)) == Layer::Count)
            total += inclusiveNs(static_cast<Layer>(c));
    return total;
}

std::uint64_t
LayerTimes::topLevelTimedSpans() const
{
    std::uint64_t n = 0;
    for (std::size_t c = 0; c < kLayers; ++c)
        if (parentOf(static_cast<Layer>(c)) == Layer::Count)
            n += stats_[c].timed;
    return n;
}

LayerTimes &
LayerTimes::operator+=(const LayerTimes &other)
{
    for (std::size_t i = 0; i < kLayers; ++i) {
        stats_[i].ns += other.stats_[i].ns;
        stats_[i].timed += other.stats_[i].timed;
        stats_[i].calls += other.stats_[i].calls;
    }
    return *this;
}

std::vector<std::int64_t>
spanSelfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans)
        if (s.parent >= 0)
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                                  s.end);

    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = p.start; // end of the covered prefix.
        for (auto [a, b] : iv) {
            a = std::max(a, reach);
            b = std::min(b, p.end);
            if (b > a) {
                covered += b - a;
                reach = b;
            }
        }
        self[i] = (p.end - p.start) - covered;
    }
    return self;
}

std::int64_t
SpanLog::begin(std::uint32_t job, const std::string &name,
               std::int64_t parent)
{
    spans_.push_back(Span{job, name, nowNs(), 0, parent});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void
SpanLog::end(std::int64_t idx)
{
    spans_.at(static_cast<std::size_t>(idx)).end = nowNs();
}

void
SpanLog::addLayerTotals(std::uint32_t job, const LayerTimes &times)
{
    layerTotals_.emplace_back(job, times);
}

void
SpanLog::write(std::ostream &os) const
{
    std::vector<std::int64_t> self = spanSelfTimes(spans_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        os << "{\"job\":" << s.job << ",\"id\":" << i << ",\"name\":\""
           << s.name << "\",\"start_ns\":" << s.start
           << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
           << ",\"self_ns\":" << self[i] << "}\n";
    }
    for (const auto &[job, times] : layerTotals_) {
        for (std::size_t l = 0; l < kLayers; ++l) {
            auto layer = static_cast<Layer>(l);
            os << "{\"job\":" << job << ",\"layer\":\"" << layerName(layer)
               << "\",\"parent\":\""
               << (parentOf(layer) == Layer::Count
                       ? "job"
                       : layerName(parentOf(layer)))
               << "\",\"inclusive_ns\":"
               << static_cast<std::int64_t>(times.inclusiveNs(layer))
               << ",\"self_ns\":"
               << static_cast<std::int64_t>(times.selfNs(layer))
               << ",\"calls\":" << times.calls(layer) << "}\n";
        }
    }
}

} // namespace hostbench
