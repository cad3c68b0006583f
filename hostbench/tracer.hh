/**
 * @file
 * Host-time tracing for the benchmark: per-layer time accumulators
 * (one timer pair per layer per simulated cycle, sampled timing for
 * nested per-call layers) and an in-memory span log written once at
 * exit.
 */

#ifndef HOSTBENCH_TRACER_HH
#define HOSTBENCH_TRACER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

namespace hostbench {

/** Monotonic host time in nanoseconds. */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Median cost of one clock read, subtracted from every timed span so
 * short spans are not dominated by the timer itself.
 */
std::int64_t clockOverheadNs();

/**
 * Simulator layers, named after the src/ modules. Nested layers run
 * inside their parent's span (see parentOf()).
 */
enum class Layer : unsigned
{
    Trace,       ///< TraceSource::next (prefetched once per cycle).
    Core,        ///< TraceCore::tick of every core.
    OsTranslate, ///< OsMemory::translate (inside Core).
    MemEnqueue,  ///< MemoryController::enqueueRead/Write (inside Core).
    Sched,       ///< Scheduler::tick + onIntervalProfiles.
    Controller,  ///< MemoryController::tick of every channel.
    CheckOnCommand, ///< ProtocolChecker::onCommand (inside Controller).
    Profiler,    ///< ThreadProfiler::tick + closeInterval.
    Part,        ///< PartitionManager + lazy-move drain.
    Count
};

constexpr std::size_t kLayers = static_cast<std::size_t>(Layer::Count);

/** Metric-style name ("core", "os.translate", ...). */
const char *layerName(Layer l);

/** Enclosing layer of a nested layer; Layer::Count for top level. */
Layer parentOf(Layer l);

/**
 * Accumulated host time of every layer over one or more jobs.
 *
 * Top-level layers time every span. Nested layers are entered many
 * times per cycle, so they time one call in kSamplePeriod and scale
 * the sampled time by the call count.
 */
class LayerTimes
{
  public:
    static constexpr std::uint64_t kSamplePeriod = 16;

    /** Add one fully timed span of @p ns to @p l. */
    void
    add(Layer l, std::int64_t ns)
    {
        Stat &s = stats_[static_cast<std::size_t>(l)];
        s.ns += ns;
        ++s.timed;
        ++s.calls;
    }

    /** Count one call of nested layer @p l; true if it is to be timed. */
    bool
    sampleCall(Layer l)
    {
        Stat &s = stats_[static_cast<std::size_t>(l)];
        return s.calls++ % kSamplePeriod == 0;
    }

    /** Add the time of a call sampleCall() selected. */
    void
    addSample(Layer l, std::int64_t ns)
    {
        Stat &s = stats_[static_cast<std::size_t>(l)];
        s.ns += ns;
        ++s.timed;
    }

    /** Estimated total time in @p l, children included. */
    double inclusiveNs(Layer l) const;

    /** Inclusive time minus the inclusive time of @p l's children. */
    double selfNs(Layer l) const;

    /** Sum of the top-level layers' inclusive time. */
    double attributedNs() const;

    /** Timed spans of the top-level layers (one clock read each). */
    std::uint64_t topLevelTimedSpans() const;

    /** Calls (spans) recorded for @p l. */
    std::uint64_t
    calls(Layer l) const
    {
        return stats_[static_cast<std::size_t>(l)].calls;
    }

    LayerTimes &operator+=(const LayerTimes &other);

  private:
    struct Stat
    {
        std::int64_t ns = 0;
        std::uint64_t timed = 0;
        std::uint64_t calls = 0;
    };
    std::array<Stat, kLayers> stats_{};
};

/**
 * One recorded span: name, start, end, parent, and the job it belongs
 * to. Parent is an index into the log, or -1 for a job's root.
 */
struct Span
{
    std::uint32_t job = 0;
    std::string name;
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t parent = -1;
};

/**
 * Self time of every span: its duration minus the part of its
 * interval covered by its children (overlapping children count once).
 */
std::vector<std::int64_t> spanSelfTimes(const std::vector<Span> &spans);

/**
 * The in-memory span log. Coarse spans (job, warmup, measure,
 * interval boundaries) are recorded individually; per-cycle layer
 * time is aggregated per job into LayerTimes and written as one
 * summary line per (job, layer).
 */
class SpanLog
{
  public:
    /** Open a span now; returns its index. */
    std::int64_t begin(std::uint32_t job, const std::string &name,
                       std::int64_t parent);

    /** Close span @p idx now. */
    void end(std::int64_t idx);

    /** Attach a finished job's layer totals. */
    void addLayerTotals(std::uint32_t job, const LayerTimes &times);

    /** Write everything as JSON lines (spans, then layer totals). */
    void write(std::ostream &os) const;

  private:
    std::vector<Span> spans_;
    std::vector<std::pair<std::uint32_t, LayerTimes>> layerTotals_;
};

} // namespace hostbench

#endif // HOSTBENCH_TRACER_HH
