/**
 * @file
 * SM <-> memory-partition crossbar with finite injection buffers.
 *
 * Request side: each SM owns a bounded injection queue; a full queue is the
 * L1's "reservation fail by interconnection" (Section VI). Each cycle every
 * partition accepts at most one request and every SM transmits at most one
 * flit; transfers take icntLatency cycles. The response side is symmetric
 * with per-partition bounded response queues. cycle() runs the request-side
 * then the response-side arbitration, between the SMs' and the
 * partitions' ticks.
 *
 * Trace events are emitted through the calling unit's sink (inject() from
 * the SM, respond() from the partition).
 */

#ifndef GCL_SIM_INTERCONNECT_HH
#define GCL_SIM_INTERCONNECT_HH

#include <algorithm>
#include <deque>
#include <vector>

#include "config.hh"
#include "delay_queue.hh"
#include "mem_request.hh"
#include "trace/trace.hh"

namespace gcl::snap
{
class SnapWriter;
class SnapReader;
} // namespace gcl::snap

namespace gcl::sim
{

/** Crossbar interconnect between numSms SMs and numPartitions partitions. */
class Interconnect
{
  public:
    Interconnect(const GpuConfig &config, MemPools &pools);

    // ---- Request path (SM side) ----

    /** True when SM @p sm has room to inject one more request. */
    bool canInject(int sm) const;

    /** Queue @p req for transport; stamps tInjected. */
    void inject(ReqHandle req, Cycle now, trace::TraceSink *sink = nullptr);

    // ---- Request path (partition side) ----

    /** True when a request has arrived for partition @p part. */
    bool hasRequest(int part, Cycle now) const;

    /** Pop the next arrived request for partition @p part. */
    ReqHandle popRequest(int part, Cycle now);

    // ---- Response path (partition side) ----

    /** True when partition @p part has room to queue one more response. */
    bool canRespond(int part) const;

    /** Queue @p req's response for transport; stamps tRespDepart. */
    void respond(ReqHandle req, Cycle now, trace::TraceSink *sink = nullptr);

    // ---- Response path (SM side) ----

    bool hasResponse(int sm, Cycle now) const;
    ReqHandle popResponse(int sm, Cycle now);

    /** Advance arbitration: request side, then response side. */
    void cycle(Cycle now);

    /** All queues drained (used by the GPU's termination check). O(1). */
    bool
    idle() const
    {
        return injectCount_ == 0 && toPartCount_ == 0 && respQCount_ == 0 &&
               toSmCount_ == 0;
    }

    /** Requests anywhere in the request network (timeline sampling). */
    size_t reqQueued() const;

    /** Responses anywhere in the response network (timeline sampling). */
    size_t respQueued() const;

    /**
     * True when any SM-bound response is in flight or deliverable — the
     * gate for the GPU's per-cycle response drain loop. O(1).
     */
    bool
    anyResponsesInFlight() const
    {
        return toSmCount_ != 0;
    }

    /**
     * The next cycle > @p now at which ticking the crossbar could move a
     * flit, or ~0 when it is empty. Anything waiting for arbitration
     * (injection or response queues) can move next cycle; otherwise the
     * earliest in-flight delivery is the event. The round-robin pointers
     * also advance every cycle, but skipAdvance() replays them exactly,
     * so they do not pin the event.
     */
    Cycle nextEventCycle(Cycle now) const;

    /**
     * Ready time of SM @p sm's earliest in-flight response, ~0 when none
     * is in flight. A dormant SM's wake time must not pass this: the
     * delivery un-freezes the L1 resource its LD/ST head stalled on.
     */
    Cycle
    respHeadReadyAt(int sm) const
    {
        const auto &queue = toSm_[static_cast<size_t>(sm)];
        return queue.empty() ? ~Cycle{0} : queue.headReadyAt();
    }

    /**
     * Ready time of partition @p part's earliest in-flight request, ~0
     * when none is in flight. A dormant partition's wake time must not
     * pass this when its ROP queue has room: the arrival must be
     * accepted at exactly this cycle.
     */
    Cycle
    reqHeadReadyAt(int part) const
    {
        const auto &queue = toPart_[static_cast<size_t>(part)];
        return queue.empty() ? ~Cycle{0} : queue.headReadyAt();
    }

    /**
     * Credit a skipped span of @p count cycles: both round-robin pointers
     * advance once per cycle whether or not any flit moves, so a jump
     * must advance them by the span length to leave arbitration state
     * exactly as the cycle-by-cycle loop would have.
     */
    void
    skipAdvance(uint64_t count)
    {
        reqRrSm_ = static_cast<unsigned>(
            (reqRrSm_ + count) % config_.numSms);
        respRrPart_ = static_cast<unsigned>(
            (respRrPart_ + count) % config_.numPartitions);
    }

    /**
     * Bitmask words over partitions that received a flit since the last
     * clearPushedParts() — the Gpu's active-unit tracking re-activates
     * exactly these. Word w bit b = partition w*64+b.
     */
    const std::vector<uint64_t> &pushedParts() const { return pushedParts_; }

    void
    clearPushedParts()
    {
        std::fill(pushedParts_.begin(), pushedParts_.end(), 0);
    }

    /** In-flight flits bound for partition @p part (active-unit check). */
    size_t
    pendingToPart(int part) const
    {
        return toPart_[static_cast<size_t>(part)].size();
    }

    /**
     * Serialize the crossbar's persistent state — the two round-robin
     * arbitration pointers. Only legal when idle() (kernel boundary): the
     * queues are empty then, so the pointers are the sole state that
     * shapes future arbitration order.
     */
    void save(snap::SnapWriter &out) const;

    /** Restore state captured by save(). */
    void load(snap::SnapReader &in);

  private:
    void requestArbitration(Cycle now);
    void responseArbitration(Cycle now);

    const GpuConfig &config_;
    MemPools &pools_;

    std::vector<std::deque<ReqHandle>> injectQ_;   //!< per SM
    std::vector<DelayQueue<ReqHandle>> toPart_;    //!< per partition
    std::vector<std::deque<ReqHandle>> respQ_;     //!< per partition
    std::vector<DelayQueue<ReqHandle>> toSm_;      //!< per SM

    // Per-cycle arbitration scratch, sized once in the constructor so the
    // cycle loop never allocates.
    std::vector<uint8_t> smUsed_;
    std::vector<uint8_t> partUsed_;

    /** Partitions pushed to since clearPushedParts() (bitmask words). */
    std::vector<uint64_t> pushedParts_;

    // Occupancy counters kept exactly in sync with the queues above so
    // idle()/anyResponsesInFlight() — called every cycle by the GPU loop —
    // are O(1) instead of O(units).
    size_t injectCount_ = 0; //!< total across injectQ_
    size_t toPartCount_ = 0; //!< total across toPart_
    size_t respQCount_ = 0;  //!< total across respQ_
    size_t toSmCount_ = 0;   //!< total across toSm_

    unsigned reqRrSm_ = 0;     //!< round-robin pointer, request side
    unsigned respRrPart_ = 0;  //!< round-robin pointer, response side
};

} // namespace gcl::sim

#endif // GCL_SIM_INTERCONNECT_HH
