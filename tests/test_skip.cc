/**
 * @file
 * Event-driven cycle skipping must be invisible: jumping the clock over
 * spans every unit certified dead (config.cycleSkipping) is a pure
 * host-side optimization, so a run with skipping on must produce stats
 * and trace streams BYTE-identical to the same run ticked cycle by
 * cycle — under injected fault pressure, across a
 * checkpoint/resume, and in how it trips the --max-cycles deadline.
 * Both sides share the active-unit tracking and the bulk idle-cycle
 * credits, so committed stats digests (recorded when a loop still ticked
 * every unit every cycle) pin that bookkeeping from outside.
 *
 * Skipping has one certificate: the per-unit dormancy pass. A unit
 * whose next event lies beyond the next cycle sleeps and is credited in
 * bulk at wake, and the clock jumps only while every active unit sleeps
 * (to the earliest wake-at, crossbar delivery or deadline). The
 * dram_latency=800 leg runs where those jumps fire, and checks that the
 * host-side skip counters are nonzero so a silently disabled skip
 * cannot pass as byte-identical.
 *
 * This is the bit-identity proof referenced from Gpu::runCycles and
 * config.hh; scripts/check.sh additionally diffs whole memo-cache
 * directories and asserts the >=2x throughput gate with perf_diff
 * --expect-speedup.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/interconnect.hh"
#include "sim/mem_request.hh"
#include "snap/io.hh"
#include "trace/trace.hh"
#include "workloads/sim_context.hh"
#include "workloads/workload.hh"

namespace
{

using gcl::sim::GpuConfig;
using gcl::sim::Interconnect;
using gcl::sim::MemPools;
using gcl::trace::TraceEvent;
using gcl::workloads::SimContext;
using gcl::workloads::SnapOptions;
using gcl::workloads::byName;

struct RunArtifacts
{
    std::string stats;
    std::vector<TraceEvent> trace;
    std::string failureKind;
    std::string failureMessage;
    uint64_t skippedCycles = 0;   //!< host-side skip counters (SimContext)
    uint64_t skipEvents = 0;
    uint64_t dormantCycles = 0;
};

/**
 * Run @p app to completion and capture every artifact it produced.
 * @p overrides is a --sim-config string applied before the other fields.
 */
RunArtifacts
runApp(const std::string &app, bool skipping,
       const std::string &fault_plan = "", gcl::sim::Cycle max_cycles = 0,
       bool crit = false, const std::string &overrides = "")
{
    GpuConfig config{};
    config.applyOverrides(overrides);
    config.cycleSkipping = skipping;
    config.faultPlan = fault_plan;
    config.crit = crit;
    if (max_cycles != 0)
        config.maxCycles = max_cycles;
    SimContext ctx(byName(app), config);
    RunArtifacts out;
    ctx.enableTrace(0,
                    [&out](const TraceEvent *events, size_t count) {
                        out.trace.insert(out.trace.end(), events,
                                         events + count);
                    },
                    0);
    ctx.run();
    if (max_cycles == 0) {
        EXPECT_FALSE(ctx.failed())
            << app << ": " << ctx.failure().message;
        EXPECT_TRUE(ctx.verified()) << app;
    }
    out.stats = ctx.stats().serialize();
    out.failureKind = ctx.failure().kind;
    out.failureMessage = ctx.failure().message;
    out.skippedCycles = ctx.skippedCycles();
    out.skipEvents = ctx.skipEvents();
    out.dormantCycles = ctx.dormantCycles();
    return out;
}

void
expectIdentical(const RunArtifacts &skip, const RunArtifacts &ref,
                const std::string &label)
{
    EXPECT_FALSE(skip.stats.empty()) << label;
    EXPECT_EQ(skip.stats, ref.stats)
        << label << ": cycle skipping changed the stats";
    ASSERT_EQ(skip.trace.size(), ref.trace.size())
        << label << ": cycle skipping changed the trace event count";
    EXPECT_EQ(std::memcmp(skip.trace.data(), ref.trace.data(),
                          ref.trace.size() * sizeof(TraceEvent)),
              0)
        << label << ": cycle skipping changed the trace stream";
}

/** 64-bit FNV-1a of @p bytes, as 16 hex digits. */
std::string
fnv1a(const std::string &bytes)
{
    uint64_t h = 0xcbf29ce484222325ull;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(h));
    return hex;
}

TEST(Skip, ArtifactsBitIdenticalWithSkippingOnAndOff)
{
    // gaus drains its SMs between launches (long dead spans); bpr adds
    // atomic traffic through the partitions' ROP path.
    for (const char *app : {"gaus", "bpr"})
        expectIdentical(runApp(app, true), runApp(app, false), app);

    // The memory-stressed setup check.sh's speedup gate runs in: at an
    // 800-cycle DRAM latency every miss leaves long all-dormant waits
    // (gaus jumps 26,893 of its 59,809 cycles there).
    const std::string slow = "dram_latency=800";
    const RunArtifacts on = runApp("gaus", true, "", 0, false, slow);
    const RunArtifacts off = runApp("gaus", false, "", 0, false, slow);
    expectIdentical(on, off, "gaus dram_latency=800");
    // Byte identity alone also holds when skipping silently turns off:
    // the skipping run must really jump and sleep, the reference not.
    EXPECT_GT(on.skippedCycles, 0u);
    EXPECT_GT(on.skipEvents, 0u);
    EXPECT_GT(on.dormantCycles, 0u);
    EXPECT_EQ(off.skippedCycles, 0u);
    EXPECT_EQ(off.skipEvents, 0u);
    EXPECT_EQ(off.dormantCycles, 0u);
}

TEST(Skip, ArtifactsBitIdenticalUnderInjectedFaults)
{
    // Seeded backpressure windows (MSHR/ICNT/DRAM refusals, dropped
    // fills from seed 42) repeatedly stall and wake the very units whose
    // next-event certificates license the jumps. Fault windows also
    // disable the frozen-stall contract (MemPartition::ropHeadStall_,
    // Sm::ldstHeadStall_), so this leg proves the conservative fallback.
    expectIdentical(runApp("gaus", true, "seed=42;auto=3"),
                    runApp("gaus", false, "seed=42;auto=3"),
                    "gaus faulted");
}

TEST(Skip, CritReportBitIdenticalWithSkippingOnAndOff)
{
    // The crit profiler charges one issue-slot disposition per SM-cycle;
    // skipped and dormant spans are credited in bulk, so the exported
    // crit.* schema (which crit_report renders) must not move.
    expectIdentical(runApp("gaus", true, "", 0, /*crit=*/true),
                    runApp("gaus", false, "", 0, /*crit=*/true),
                    "gaus crit");
}

TEST(Skip, StatsMatchCommittedDigests)
{
    // One `<app>[:<fault plan>] <digest>` line per case: gaus drains its
    // SMs and DRAM channels repeatedly between launches (long idle
    // spans to credit), bpr adds atomic traffic, and the seeded fault
    // plan stalls and drains the tracked units mid-run.
    std::ifstream in(GCL_REPO_GOLDENS_DIR "/eager_stats_digests.txt");
    ASSERT_TRUE(in) << "missing goldens/eager_stats_digests.txt";
    std::string name, digest;
    int cases = 0;
    for (; in >> name >> digest; ++cases) {
        const size_t colon = name.find(':');
        const std::string app = name.substr(0, colon);
        const std::string plan =
            colon == std::string::npos ? "" : name.substr(colon + 1);
        for (const bool skipping : {true, false})
            EXPECT_EQ(fnv1a(runApp(app, skipping, plan).stats), digest)
                << name << ": stats moved, skipping=" << skipping;
    }
    EXPECT_EQ(cases, 3);
}

TEST(Skip, ResumeBitIdenticalWithSkippingOn)
{
    // A checkpoint captured mid-sequence by a skipping run must resume
    // into the same artifacts an uninterrupted per-cycle run produces.
    const std::string path = ::testing::TempDir() + "skip_resume.snap";
    const RunArtifacts ref = runApp("gaus", false);
    {
        GpuConfig config{};
        config.cycleSkipping = true;
        SnapOptions stop;
        stop.checkpointPath = path;
        stop.stopAfterKernels = 2;
        SimContext ctx(byName("gaus"), config);
        // Trace through the stop leg too: the snapshot must carry a trace
        // section for the resume leg to seed its stream from.
        std::vector<TraceEvent> discard;
        ctx.enableTrace(0,
                        [&discard](const TraceEvent *events, size_t count) {
                            discard.insert(discard.end(), events,
                                           events + count);
                        },
                        0);
        ctx.setSnapOptions(stop);
        ctx.run();
        ASSERT_TRUE(ctx.failed());
    }
    GpuConfig config{};
    config.cycleSkipping = true;
    SnapOptions resume;
    resume.resumeFrom = path;
    SimContext ctx(byName("gaus"), config);
    RunArtifacts resumed;
    ctx.enableTrace(0,
                    [&resumed](const TraceEvent *events, size_t count) {
                        resumed.trace.insert(resumed.trace.end(), events,
                                             events + count);
                    },
                    0);
    ctx.setSnapOptions(resume);
    ctx.run();
    ASSERT_FALSE(ctx.failed())
        << ctx.failure().kind << ": " << ctx.failure().message;
    ASSERT_TRUE(ctx.resumed());
    resumed.stats = ctx.stats().serialize();
    expectIdentical(resumed, ref, "gaus resumed");
    std::remove(path.c_str());
}

TEST(Skip, MaxCyclesDeadlineTripsAtTheSameCycle)
{
    // A jump must never overshoot the --max-cycles deadline: the timeout
    // has to fire at exactly the cycle the per-cycle run reports, with
    // the same structured failure record.
    const RunArtifacts skip = runApp("gaus", true, "", 2'000);
    const RunArtifacts ref = runApp("gaus", false, "", 2'000);
    EXPECT_EQ(skip.failureKind, "timeout");
    EXPECT_EQ(skip.failureKind, ref.failureKind);
    EXPECT_EQ(skip.failureMessage, ref.failureMessage)
        << "skipping moved the timeout cycle";
    EXPECT_EQ(skip.stats, ref.stats);
}

TEST(SkipEvent, IcntNextEventPinsAndClampsExactly)
{
    // Unit-level contract of the crossbar's next-event certificate: an
    // empty network reports "no event" (~0); anything waiting for
    // arbitration pins now + 1; an in-flight flit's delivery time is the
    // event, clamped to now + 1 once it is ripe (a jump may never leave
    // a deliverable flit undelivered).
    GpuConfig config{};
    MemPools pools;
    Interconnect icnt(config, pools);

    EXPECT_EQ(icnt.nextEventCycle(100), ~gcl::sim::Cycle{0});

    const gcl::sim::ReqHandle req = pools.reqs.alloc();
    pools.reqs.get(req).smId = 0;
    pools.reqs.get(req).partition = 1;
    icnt.inject(req, 100);
    EXPECT_EQ(icnt.nextEventCycle(100), 101u);

    icnt.cycle(100); // moves the flit in flight; delivery at 100 + latency
    EXPECT_EQ(icnt.nextEventCycle(100), 100 + config.icntLatency);
    EXPECT_EQ(icnt.reqHeadReadyAt(1), 100 + config.icntLatency);

    // Ripe (or past-due) heads clamp to now + 1, never earlier.
    EXPECT_EQ(icnt.nextEventCycle(100 + config.icntLatency),
              101 + config.icntLatency);

    while (!icnt.hasRequest(1, 100 + config.icntLatency)) {
        FAIL() << "flit never arrived";
    }
    pools.reqs.free(icnt.popRequest(1, 100 + config.icntLatency));
    EXPECT_EQ(icnt.nextEventCycle(200), ~gcl::sim::Cycle{0});
}

TEST(SkipEvent, RrPointerSkipAdvanceMatchesCycleByCycle)
{
    // The round-robin pointers advance once per cycle whether or not a
    // flit moves; a jump credits them with skipAdvance(span). Replaying
    // a large span (far past the pointer modulus, exercising wraparound)
    // must land both pointers exactly where span empty ticks would.
    GpuConfig config{};
    MemPools pools;
    Interconnect jumped(config, pools);
    Interconnect ticked(config, pools);

    const uint64_t span = uint64_t{3} * config.numSms * config.numPartitions + 7;
    jumped.skipAdvance(span);
    for (uint64_t i = 0; i < span; ++i)
        ticked.cycle(1000 + i);

    auto pointers = [](const Interconnect &icnt) {
        gcl::snap::SnapWriter out;
        icnt.save(out);
        gcl::snap::SnapReader in(out.buffer().data(), out.size());
        const uint32_t req_rr = in.u32();
        const uint32_t resp_rr = in.u32();
        return std::pair<uint32_t, uint32_t>{req_rr, resp_rr};
    };
    EXPECT_EQ(pointers(jumped), pointers(ticked));
}

} // namespace
