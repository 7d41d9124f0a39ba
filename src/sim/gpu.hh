/**
 * @file
 * The whole device: SMs, interconnect, memory partitions, the CTA
 * dispatcher, and the host-facing API (malloc / memcpy / launch), mirroring
 * the CUDA runtime surface the paper's benchmarks use.
 */

#ifndef GCL_SIM_GPU_HH
#define GCL_SIM_GPU_HH

#include <bit>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "config.hh"
#include "crit/crit.hh"
#include "functional.hh"
#include "guard/fault.hh"
#include "guard/sim_error.hh"
#include "guard/watchdog.hh"
#include "interconnect.hh"
#include "mem_partition.hh"
#include "memory.hh"
#include "sample.hh"
#include "sm.hh"
#include "stats.hh"
#include "trace/trace.hh"
#include "warp.hh"

namespace gcl::snap
{
class Snapshot;
class SnapWriter;
class SnapReader;
} // namespace gcl::snap

namespace gcl::sim
{

/** A simulated GPU device. */
class Gpu
{
  public:
    explicit Gpu(GpuConfig config = GpuConfig{});

    // ---- Host API ----

    /** Allocate device memory; returns the device address. */
    uint64_t deviceMalloc(size_t bytes);

    /** Host -> device copy. */
    void memcpyToDevice(uint64_t dst, const void *src, size_t bytes);

    /** Device -> host copy. */
    void memcpyToHost(void *dst, uint64_t src, size_t bytes);

    /**
     * Launch a kernel and simulate it to completion.
     *
     * Classification of the kernel's global loads (the paper's Section V
     * analysis) runs automatically and attributes every dynamic event to
     * its static class.
     *
     * @throws SimError when the run exceeds its max_cycles budget
     *         (Kind::Timeout), the forward-progress watchdog fires
     *         (Kind::Hang, HangReport attached), a configured fault plan
     *         stops the kernel (Kind::FaultInjected), or a simulator /
     *         workload invariant trips. The device is not usable after a
     *         throw; the owner abandons the whole run.
     */
    void launch(const ptx::Kernel &kernel, Dim3 grid, Dim3 cta,
                std::vector<uint64_t> params);

    // ---- Introspection ----

    const GpuConfig &config() const { return config_; }
    GlobalMemory &memory() { return gmem_; }
    SimStats &stats() { return stats_; }

    /** Cycles consumed by the most recent launch. */
    Cycle lastLaunchCycles() const { return lastLaunchCycles_; }

    /** Fold locality maps into the stats set; call once, after all launches. */
    void finalizeStats();

    /** Fault oracle for this run; null when no plan is configured. */
    const guard::FaultInjector *faultInjector() const { return fault_.get(); }

    /**
     * Install an event sink (gcl::trace) on every unit. When
     * @p timeline_interval is nonzero, occupancy/queue-depth counters are
     * additionally sampled every that many cycles during launches. Pass
     * nullptr to detach.
     */
    void attachTrace(trace::TraceSink *sink, Cycle timeline_interval = 0);

    /** Default line-address to memory-partition mapping. */
    static int mapPartition(uint64_t line_addr, int sm_id,
                            const GpuConfig &config);

    // ---- Event-driven cycle skipping (config.cycleSkipping) ----

    /**
     * Cycles the clock jumped over instead of simulating one by one.
     * A pure wall-clock diagnostic: skipped cycles are credited into the
     * same counters the cycle-by-cycle loop would have bumped, so this
     * number never appears in (or perturbs) the stats set.
     */
    uint64_t skippedCycles() const { return skippedCycles_; }

    /** Number of clock jumps taken (each covers >= 1 skipped cycle). */
    uint64_t skipEvents() const { return skipEvents_; }

    /**
     * Unit-cycles (SMs and partitions) not ticked because the unit lay
     * dormant (busy but frozen: stalled LD/ST or ROP head, or a pure
     * fill/arrival wait) while the clock advanced for other units.
     * Credited in bulk at wake, so — like skippedCycles() — a wall-clock
     * diagnostic that never reaches the stats set.
     */
    uint64_t
    dormantCycles() const
    {
        return smSet_.dormantCycles + partSet_.dormantCycles;
    }

    // ---- Checkpoint / restore (gcl::snap) ----

    /** Global monotonic cycle count (the value stamped into snapshots). */
    Cycle clock() const { return clock_; }

    /** Kernel launches completed so far (the snapshot boundary index). */
    uint64_t kernelsDone() const { return kernelsDone_; }

    /**
     * Install a kernel-boundary callback. It fires with k = 0 at the
     * first launch's entry (before any simulation) and with k = n after
     * the n-th launch retires — the two points where the device is fully
     * drained and a checkpoint is exact. Not fired while a resume is
     * skipping already-completed launches.
     */
    void setBoundaryHook(std::function<void(uint64_t)> hook)
    {
        boundaryHook_ = std::move(hook);
    }

    /**
     * Record every deviceMalloc and memcpyToHost from now on, so a later
     * checkpoint can replay the host program's device-visible inputs
     * deterministically. Must be enabled before the first host API call
     * of a run that intends to checkpoint.
     */
    void enableHostLog() { hostLogEnabled_ = true; }

    /**
     * Arm a restore from @p snapshot. The caller then re-runs the host
     * program from the start: launches that completed before the
     * checkpoint are skipped, memcpyToHost is served from the recorded
     * host log, and deviceMalloc is replayed with address verification.
     * The full device state is restored at the checkpoint's capture
     * point, after which simulation continues normally and every output
     * is byte-identical to the uninterrupted run.
     *
     * @throws SimError{Kind::Snapshot} on a config-fingerprint mismatch
     *         or a malformed snapshot.
     */
    void beginResume(std::shared_ptr<const snap::Snapshot> snapshot);

    /** True between beginResume() and the restore point. */
    bool resuming() const { return resume_; }

    /**
     * Serialize the full persistent device state into @p snapshot. Only
     * legal at a kernel boundary (every unit drained, pools empty);
     * violations raise SimError{Kind::Invariant}.
     */
    void save(snap::Snapshot &snapshot) const;

    // ---- Sampled simulation (config.sample; src/sim/sample.hh) ----

    /**
     * Install the warm-start capture hook. It fires at most once per run:
     * at the first moment detailed timing work is about to start, and
     * only when the run's prefix up to that point was purely functional
     * (fast-forward only, no timed cycles) and non-empty. At that moment
     * the device's only meaningful state is functional — global memory,
     * the host log, the warm ring, the extrapolation book — which is
     * machine-timing-independent, so the caller can saveFunctional() it
     * into a prefix snapshot keyed by functionalFingerprint() and share
     * it across a --machine sweep.
     */
    void setFfPrefixHook(std::function<void()> hook)
    {
        ffPrefixHook_ = std::move(hook);
    }

    /**
     * Serialize the functional-only prefix state (see setFfPrefixHook):
     * global memory, the host log, and the sampling bookkeeping. Restored
     * through the regular beginResume() path, which detects a functional
     * snapshot by its "ffstate" section and checks
     * functionalFingerprint() instead of fingerprint().
     */
    void saveFunctional(snap::Snapshot &snapshot) const;

  private:
    /** One recorded host API call (enableHostLog). */
    struct HostLogEntry
    {
        uint8_t op;                  //!< 0 = deviceMalloc, 1 = memcpyToHost
        uint64_t addr;
        uint64_t size;
        std::vector<uint8_t> data;   //!< memcpyToHost payload
    };

    /** Restore the armed snapshot at its capture point. */
    void applyRestore();
    void saveHostLog(snap::SnapWriter &out) const;
    void loadHostLog(snap::SnapReader &in);
    struct DispatchState
    {
        uint64_t next = 0;     //!< next dispatch position to place
        uint64_t total = 0;
        unsigned rrSm = 0;
        const LaunchContext *launch = nullptr;
        /**
         * Sampled simulation: when set, position i dispatches linear CTA
         * ctaList[i] instead of i itself (the detailed window of a
         * windowed launch). Each id is pinned to the SM the full run's
         * first dispatch wave would give it, so the window lands on the
         * L1 state (warm replay + previous windows) of the right SM.
         */
        const std::vector<uint64_t> *ctaList = nullptr;
    };

    void dispatchCtas(DispatchState &dispatch, Cycle now);
    void sampleTimeline(Cycle now) const;

    // ---- The cycle driver ----

    /**
     * Run one launch's timed session from cycle @p start until every CTA
     * is dispatched and every unit drained; returns the last cycle run.
     * Its one mode switch is config.cycleSkipping (off: every cycle runs,
     * the reference path; on: dormancy and clock jumps).
     */
    Cycle runCycles(DispatchState &dispatch, Cycle start);

    /** Tick every awake unit through cycle @p now, in pipeline order. */
    void tickUnits(Cycle now);

    /** Settle dormant spans; raise Timeout, FaultInjected or Canceled. */
    [[noreturn]] void abortLaunch(SimError::Kind kind,
                                  const std::string &kernel, Cycle now);

    /** Settle every credit, compose the hang report and raise it. */
    [[noreturn]] void raiseHang(const std::string &kernel, Cycle now);

    // ---- Sampled simulation internals (config.sample) ----

    /**
     * Split @p launch's grid around its detailed window: fast-forward the
     * CTAs before it, warm the caches, and return the window's CTA ids in
     * @p window (empty: the whole grid) and the CTAs to fast-forward after
     * the timed session in @p tail. Returns false when the whole launch
     * was fast-forwarded (its book entry recorded; no timed session).
     */
    bool sampleSplit(const LaunchContext &launch,
                     std::vector<uint64_t> &window,
                     std::vector<uint64_t> &tail);

    /**
     * Retire CTAs @p ids[skip..] of @p launch functionally: every warp
     * instruction executes through the architectural WarpExecutor in the
     * canonical order (occupancy-wave-sized batches of CTAs in list
     * order, one instruction per live warp per round-robin sweep across
     * the wave, (cta, warp) index order) with immediate memory
     * application. No unit ticks, no stats, no trace events — the clock
     * does not move. Global-space accesses are recorded into the warm
     * ring for the next detailed window's cache warm-up.
     */
    void fastForwardCtas(const LaunchContext &launch,
                         const std::vector<uint64_t> &ids, uint64_t skip);

    /**
     * CTAs the machine keeps resident at once for @p launch (per-SM
     * residency x numSms, the same capacity math as Sm::startLaunch) —
     * the fast-forward batch size and the extrapolation's wave unit.
     */
    uint64_t ctasPerWave(const LaunchContext &launch) const;

    /** Record one fast-forwarded memory instruction into the warm ring. */
    void recordWarm(const StepInfo &info, uint64_t cta_linear);

    /**
     * Replay the warm ring (oldest first) into the L1/L2 tag arrays via
     * Cache::warm, approximating the tag state the skipped span would
     * have left. Loads warm the home SM's L1 (heuristic: cta % numSms)
     * and the owning L2 slice; stores and atomics warm L2 only (the L1s
     * are no-write-allocate). Only called while the device is quiescent.
     */
    void warmCaches();

    /**
     * First timed work of a launch is about to start after @p ff_in_launch
     * fast-forwarded CTAs. Fires the warm-start capture hook when the
     * whole run so far was purely functional and the prefix is non-empty.
     */
    void beginDetailedWork(uint64_t ff_in_launch);

    /** Serialize / restore the sampling bookkeeping (book + warm ring). */
    void saveSampleState(snap::SnapWriter &out) const;
    void loadSampleState(snap::SnapReader &in);

    // ---- Active-unit tracking and per-unit dormancy ----
    //
    // The per-cycle loop visits only units that can do work: an SM is
    // active exactly while busy() (activated at launchCta, retired right
    // after the tick that drained it), a partition from the first flit
    // pushed toward it until it is drained with nothing in flight. An
    // idle SM is credited one smCycles per cycle (the Fig 4 denominator);
    // that debt is settled lazily from its span start by
    // flushIdleCredits().
    //
    // With config.cycleSkipping, an active unit whose nextEventCycle lies
    // beyond now + 1 goes dormant: it stops ticking while the clock
    // advances for the others, and its frozen per-cycle counters are
    // credited in bulk by its skipCycles at wake. An SM sleeps on a
    // frozen LD/ST head or with all requests in flight and wakes at its
    // own scheduled event (UnitSet::wakeAt), a response ripening in the
    // crossbar (checked each cycle), a CTA placement (activateSm), or
    // the hang/timeout flush. A partition sleeps on a frozen-stalled ROP
    // head or a pure maturity/arrival wait and wakes at its own event or
    // when an arrival it has room for ripens. The dormancy pass is the
    // one place the units' nextEventCycle is read: the clock jump
    // (skipTarget) only reads what it left behind.

    /**
     * Active and dormant bookkeeping for one kind of unit, kept once for
     * the SMs and once for the partitions. A dormant unit is active but
     * frozen and not ticked. One span start per unit serves both spans a
     * unit can owe: an SM's idle span while inactive and any unit's
     * dormant span while frozen (never both at once). The walks visit
     * units in id order and read each mask word once, before its first
     * unit, so a visitor may set or clear bits of the masks being walked.
     */
    template <typename Unit>
    class UnitSet
    {
      public:
        UnitSet(std::vector<std::unique_ptr<Unit>> &units, unsigned count)
            : from(count, 0), wakeAt(count, 0), units_(units),
              active_((count + 63) / 64, 0), dormant_(active_.size(), 0)
        {
        }
        UnitSet(const UnitSet &) = delete;

        bool active(unsigned u) const { return active_[u / 64] & bit(u); }
        bool dormant(unsigned u) const { return dormant_[u / 64] & bit(u); }
        unsigned activeCount() const { return activeCount_; }

        void
        activate(unsigned u)
        {
            active_[u / 64] |= bit(u);
            ++activeCount_;
        }

        /** Activate every unit whose bit is set in @p units. */
        void
        activate(const std::vector<uint64_t> &units)
        {
            for (size_t w = 0; w < units.size(); ++w) {
                const uint64_t add = units[w] & ~active_[w];
                active_[w] |= add;
                activeCount_ += static_cast<unsigned>(std::popcount(add));
            }
        }

        void
        deactivate(unsigned u)
        {
            active_[u / 64] &= ~bit(u);
            --activeCount_;
        }

        /** Freeze active unit @p u from cycle @p first until @p wake_at. */
        void
        sleep(unsigned u, Cycle first, Cycle wake_at)
        {
            dormant_[u / 64] |= bit(u);
            from[u] = first;
            wakeAt[u] = wake_at;
        }

        /**
         * End dormant unit @p u's span; it ticks again from cycle
         * @p resume. The frozen cycles before it are credited in bulk.
         */
        void
        wake(unsigned u, Cycle resume)
        {
            dormant_[u / 64] &= ~bit(u);
            if (resume > from[u]) {
                const uint64_t span = resume - from[u];
                units_[u]->skipCycles(from[u], span);
                dormantCycles += span;
            }
        }

        void
        wakeAll(Cycle resume)
        {
            forEachDormant([&](unsigned u) { wake(u, resume); });
        }

        /** True when some active unit is awake (not dormant). */
        bool
        anyAwake() const
        {
            return scanBits([&](size_t w) { return active_[w] & ~dormant_[w]; },
                            [](unsigned) { return true; });
        }

        template <typename Fn>
        void
        forEachActive(Fn &&fn) const
        {
            visit([&](size_t w) { return active_[w]; }, fn);
        }

        template <typename Fn>
        void
        forEachAwake(Fn &&fn) const
        {
            visit([&](size_t w) { return active_[w] & ~dormant_[w]; }, fn);
        }

        template <typename Fn>
        void
        forEachDormant(Fn &&fn) const
        {
            visit([&](size_t w) { return dormant_[w]; }, fn);
        }

        /**
         * Visit dormant units until @p fn returns true; returns whether
         * it did.
         */
        template <typename Fn>
        bool
        anyDormant(Fn &&fn) const
        {
            return scanBits([&](size_t w) { return dormant_[w]; }, fn);
        }

        /** First cycle of the unit's unsettled idle or dormant span. */
        std::vector<Cycle> from;
        /** The unit's own event that ends its dormant span (~0: none). */
        std::vector<Cycle> wakeAt;
        /** Unit-cycles credited by wake() (Gpu::dormantCycles). */
        uint64_t dormantCycles = 0;

      private:
        static uint64_t bit(unsigned u) { return uint64_t{1} << (u % 64); }

        /**
         * Visit the units whose bit is set in word(w) until @p fn returns
         * true; returns whether it did.
         */
        template <typename Word, typename Fn>
        bool
        scanBits(Word &&word, Fn &&fn) const
        {
            for (size_t w = 0; w < active_.size(); ++w)
                for (uint64_t bits = word(w); bits != 0; bits &= bits - 1)
                    if (fn(static_cast<unsigned>(
                            w * 64 +
                            static_cast<size_t>(std::countr_zero(bits)))))
                        return true;
            return false;
        }

        template <typename Word, typename Fn>
        void
        visit(Word &&word, Fn &&fn) const
        {
            scanBits(word, [&](unsigned u) {
                fn(u);
                return false;
            });
        }

        std::vector<std::unique_ptr<Unit>> &units_;
        std::vector<uint64_t> active_;    //!< bit u: unit u is active
        std::vector<uint64_t> dormant_;   //!< bit u: active but frozen
        unsigned activeCount_ = 0;
    };

    /** Mark SM @p sm active, settling its idle-cycle debt up to @p now. */
    void activateSm(unsigned sm, Cycle now);

    /** Retire units whose tick just drained them (end of cycle @p now). */
    void deactivateDrainedUnits(Cycle now);

    /**
     * Credit every inactive SM its owed idle cycles through @p up_to
     * (inclusive). Runs when the loop exits (before the stats can be
     * observed by a checkpoint) and before a hang report composes.
     */
    void flushIdleCredits(Cycle up_to);

    /** Wake every dormant unit whose event or arrival/response is due. */
    void wakeDueUnits(Cycle now);

    /**
     * Settle every dormant unit's span before an error unwinds or a hang
     * report composes, so the observable stats count every cycle that
     * ran, exactly as with cycle_skipping=0.
     */
    void wakeAllDormantUnits(Cycle resume);

    /** Put every frozen active unit to sleep (end of cycle @p now). */
    void updateDormantUnits(Cycle now);

    /**
     * The cycle the loop must run next, seen from the end of cycle
     * @p now after the dormancy pass; now + 1 means no skip. A jump needs
     * every active unit dormant; it lands on the earliest crossbar event,
     * dormant unit's wake-at or deadline. @p start is the launch's first
     * cycle (anchors the timeline-sample clamp).
     */
    Cycle skipTarget(Cycle now, Cycle start);
    guard::HangReport buildHangReport(const std::string &kernel,
                                      Cycle now) const;

    GpuConfig config_;
    GlobalMemory gmem_;
    SimStats stats_;
    /**
     * Handle pools for every memory request / warp op of the run. Declared
     * before the units that hold references into them (interconnect, SMs,
     * partitions) so the pools outlive all outstanding handles.
     */
    MemPools pools_;
    Interconnect icnt_;
    std::vector<std::unique_ptr<Sm>> sms_;
    std::vector<std::unique_ptr<MemPartition>> partitions_;
    /**
     * Global monotonic cycle counter across launches. Timing state with
     * absolute stamps (e.g.\ the DRAM channels' busy-until marks) persists
     * between launches, so the clock must never run backwards.
     */
    Cycle clock_ = 0;
    Cycle lastLaunchCycles_ = 0;

    trace::TraceSink *traceSink_ = nullptr;
    Cycle timelineInterval_ = 0;

    guard::Watchdog watchdog_;
    std::unique_ptr<guard::FaultInjector> fault_;

    /**
     * Criticality profiler (gcl::crit); null unless config_.crit. Owns
     * one shard per SM, installed on Sm::crit at construction and folded
     * into the stats set by finalizeStats().
     */
    std::unique_ptr<crit::CritStats> crit_;

    // ---- Active-unit tracking + event-driven skip state ----
    UnitSet<Sm> smSet_;
    UnitSet<MemPartition> partSet_;
    uint64_t skippedCycles_ = 0;
    uint64_t skipEvents_ = 0;

    // ---- Checkpoint / restore state (gcl::snap) ----
    uint64_t kernelsDone_ = 0;
    std::function<void(uint64_t)> boundaryHook_;
    bool firstBoundaryFired_ = false;
    bool hostLogEnabled_ = false;
    std::vector<HostLogEntry> hostLog_;
    size_t hostLogCursor_ = 0;       //!< replay position while resuming
    bool resume_ = false;            //!< skipping completed launches
    uint64_t resumeTarget_ = 0;      //!< snapshot's kernel boundary index
    std::shared_ptr<const snap::Snapshot> resumeSnap_;

    // ---- Sampled simulation state (config.sample) ----

    /** Parsed config_.sample; Mode::Off when sampling is disabled. */
    SamplePlan samplePlan_;

    /** Lazily created serial executor for fast-forwarded CTAs. */
    std::unique_ptr<WarpExecutor> ffExec_;

    /**
     * One global-space access of a fast-forwarded instruction, recorded
     * at a fixed machine-independent 128-byte granularity (converted to
     * the machine's own line sizes at replay) so the ring's bytes — and
     * the functional prefix snapshot holding them — are shared across a
     * --machine sweep.
     */
    struct WarmEntry
    {
        uint64_t chunk;    //!< 128B-aligned byte address
        uint32_t cta;      //!< linear CTA id (picks the home SM's L1)
        uint8_t isStore;   //!< store or atomic: skips the L1 at replay
    };

    /**
     * Bounded ring of the newest fast-forwarded accesses since the last
     * detailed window (oldest overwritten first). Cleared after each
     * window's warm-up: the window leaves real tag state behind, so
     * stale pre-window entries must not pollute the next warm-up.
     */
    static constexpr size_t kWarmRingCapacity = size_t{1} << 17;
    std::vector<WarmEntry> warmRing_;
    size_t warmHead_ = 0;    //!< oldest entry once the ring wrapped

    /**
     * Per-launch extrapolation record (finalizeStats). Extrapolation is
     * wave-based, not CTA-based: the machine retires CTAs in waves of
     * (numSms x per-SM residency), so a window's cycles scale by the
     * wave-count ratio. A CTA ratio would overestimate small launches
     * badly — a 2-of-5-CTA window is latency-bound just like the full
     * 5-CTA launch (both are a single wave), not 2.5x faster.
     */
    struct SampleLaunch
    {
        uint64_t kernel = 0;          //!< launch index
        uint64_t totalCtas = 0;
        uint64_t detailedCtas = 0;    //!< 0 = fully fast-forwarded
        uint64_t detailedCycles = 0;  //!< cycles of the detailed window
        uint64_t totalWaves = 0;      //!< occupancy waves of the full grid
        uint64_t detailedWaves = 0;   //!< waves of the detailed window
        uint64_t detailedWork = 0;    //!< thread-insts timed in the window
        uint64_t ffWork = 0;          //!< thread-insts fast-forwarded
    };
    std::vector<SampleLaunch> sampleBook_;

    /**
     * Thread-instructions fast-forwarded in the launch currently being
     * split (the work the extrapolation charges to skipped launches).
     * Restored from the prefix snapshot on a warm start so the resumed
     * run's book matches the fresh run's byte for byte.
     */
    uint64_t ffLaunchWork_ = 0;

    bool timedWorkDone_ = false;     //!< a detailed session has started
    std::function<void()> ffPrefixHook_;
    /** Prefix CTAs fast-forwarded in the captured launch (snapshot field). */
    uint64_t ffCaptureCtaIndex_ = 0;
    /** Prefix CTAs to skip in the restore-target launch (consumed once). */
    uint64_t ffSkipCtas_ = 0;
    bool ffResume_ = false;          //!< armed snapshot is functional-only
};

} // namespace gcl::sim

#endif // GCL_SIM_GPU_HH
