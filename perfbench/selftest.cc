/**
 * @file
 * Self-tests of the benchmark's helpers (bench_lib.hh). perfbench/run.py
 * runs this before every measurement; it exits nonzero on any failure.
 */

#include <cmath>
#include <cstdio>

#include "bench_lib.hh"

namespace
{

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "perfbench_selftest: FAIL %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-12;
}

} // namespace

int
main()
{
    using namespace gcl::perfbench;

    // Metric-name charset: 1..64 of [A-Za-z0-9_.-], led by a letter/digit.
    check(validMetricName("wall_s"), "plain name");
    check(validMetricName("sim.ns_per_warp_inst"), "dotted name");
    check(validMetricName("9-lives"), "leading digit, dash");
    check(validMetricName(std::string(64, 'a')), "64 characters");
    check(!validMetricName(std::string(65, 'a')), "65 characters");
    check(!validMetricName(""), "empty");
    check(!validMetricName("_x"), "leading underscore");
    check(!validMetricName(".x"), "leading dot");
    check(!validMetricName("a b"), "space");
    check(!validMetricName("a/b"), "slash");

    // Median: odd, even (mean of the middle pair), unsorted, empty.
    check(median({3, 1, 2}) == 2, "odd median");
    check(median({4, 1, 3, 2}) == 2.5, "even median");
    check(median({5}) == 5, "single median");
    check(median({}) == 0, "empty median");

    // Digest: stable for equal sets, changed by any perturbation.
    gcl::StatsSet stats;
    stats.set("cycles", 1000);
    stats.set("warp_insts", 12345);
    gcl::StatsSet same = stats;
    check(statsDigest(stats) == statsDigest(same), "equal sets hash equal");
    check(statsDigest(stats).size() == 16, "64-bit hex digest");
    gcl::StatsSet value = stats;
    value.set("cycles", 1001);
    check(statsDigest(stats) != statsDigest(value), "changed value");
    gcl::StatsSet key = stats;
    key.set("launches", 0);
    check(statsDigest(stats) != statsDigest(key), "added key");

    // Self time: parent minus the union of its children, clipped.
    const std::vector<Span> spans = {
        {"bench.app_run", 0, 10, -1, 0},  // 0
        {"sim.launch", 1, 4, 0, 0},       // 1: covers [1,4]
        {"sim.launch", 3, 6, 0, 0},       // 2: overlaps 1 -> union [1,6]
        {"sim.finalize", 8, 12, 0, 0},    // 3: clipped to [8,10]
        {"crit.report", 4.5, 5, 2, 0},    // 4: child of 2
    };
    const std::vector<double> self = selfTimes(spans);
    check(near(self[0], 10 - 5 - 2), "parent self = 10 - union(5) - 2");
    check(near(self[1], 3), "leaf self = duration");
    check(near(self[2], 3 - 0.5), "nested child subtracted");
    check(near(self[3], 4), "leaf self is its own full duration");
    check(near(self[4], 0.5), "grandchild");

    if (failures == 0)
        std::printf("perfbench_selftest: ok\n");
    return failures == 0 ? 0 : 1;
}
