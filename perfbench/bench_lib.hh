/**
 * @file
 * Helpers of the host-time benchmark (perfbench/perfbench.cc) that carry
 * their own arithmetic, kept apart so perfbench/selftest.cc can check
 * them: metric names, medians, stats digests and span self times.
 */

#ifndef GCL_PERFBENCH_BENCH_LIB_HH
#define GCL_PERFBENCH_BENCH_LIB_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "util/stats.hh"

namespace gcl::perfbench
{

/**
 * True when @p name is a reportable metric name: 1 to 64 characters of
 * letters, digits, '_', '.' and '-', starting with a letter or digit.
 */
bool validMetricName(std::string_view name);

/** Median of @p values (mean of the middle pair when even); 0 if empty. */
double median(std::vector<double> values);

/** Hex FNV-1a 64-bit digest of StatsSet::serialize(). */
std::string statsDigest(const StatsSet &stats);

/**
 * One timed interval of the benchmark's own calls. Times are seconds
 * since the recorder was created. @c parent indexes the recorder's span
 * list (-1 for a root); @c run identifies the app run the span belongs
 * to (-1 for spans outside any app run).
 */
struct Span
{
    std::string name;
    double start = 0;
    double end = 0;
    int parent = -1;
    int run = -1;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * that the union of its direct children covers. Children may overlap
 * each other (parallel work) and are clipped to the parent's interval.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/** Thread-safe in-memory span list, written out when the run ends. */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Seconds since construction (steady clock). */
    double now() const;

    /** Open a span starting now; returns its index. */
    int begin(const std::string &name, int parent, int run);

    /** Close span @p index now. */
    void end(int index);

    /** Record a span with known bounds; returns its index. */
    int add(const std::string &name, double start, double end, int parent,
            int run);

    /** Every span recorded so far. */
    std::vector<Span> spans() const;

  private:
    int64_t origin_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

} // namespace gcl::perfbench

#endif // GCL_PERFBENCH_BENCH_LIB_HH
