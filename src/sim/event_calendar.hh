/**
 * @file
 * Global min-calendar for event-driven cycle skipping.
 *
 * When the cycle loop finds no unit eligible to make progress in the
 * current cycle it asks every unit for its next interesting cycle and
 * jumps the clock to the minimum. This container computes that minimum:
 * offers land in a bucketed occupancy ring for near events (the common
 * case — DelayQueue heads and DRAM completions are at most a few hundred
 * cycles out) and spill into an overflow min-store for far ones (watchdog
 * deadlines, --max-cycles, timeline sample points). The ring is the same
 * power-of-two trick as DelayQueue's storage: offering is O(1), taking
 * the minimum is a short word scan, and no allocation happens after the
 * first far-future burst.
 *
 * Usage is per skip decision: reset(now + 1), offer() every candidate,
 * next(). The caller treats kNever ("no event anywhere") as "fall back
 * to a hard deadline" — Gpu always offers --max-cycles, so in practice
 * next() is finite.
 */

#ifndef GCL_SIM_EVENT_CALENDAR_HH
#define GCL_SIM_EVENT_CALENDAR_HH

#include <bit>
#include <cstdint>
#include <vector>

#include "config.hh"

namespace gcl::sim
{

/** Bucketed-ring + overflow-heap minimum over offered wake cycles. */
class EventCalendar
{
  public:
    /** Sentinel for "no event": the caller's deadline always wins. */
    static constexpr Cycle kNever = ~Cycle{0};

    /** @p horizon ring span in cycles; must be a power of two. */
    explicit EventCalendar(size_t horizon = kDefaultHorizon)
        : horizon_(horizon), words_(horizon / kBitsPerWord)
    {
        static_assert(kDefaultHorizon % kBitsPerWord == 0);
        // A horizon below one bitmap word or off a power of two would
        // break the physical-index arithmetic.
        if (horizon_ < kBitsPerWord || (horizon_ & (horizon_ - 1)) != 0)
            horizon_ = kDefaultHorizon;
        words_.assign(horizon_ / kBitsPerWord, 0);
    }

    /**
     * Start a fresh decision: the ring now covers [base, base + horizon)
     * and every previous offer is dropped.
     */
    void
    reset(Cycle base)
    {
        base_ = base;
        if (armed_) {
            words_.assign(words_.size(), 0);
            overflow_.clear();
            armed_ = false;
        }
    }

    /**
     * Register one candidate wake cycle. kNever is "this unit has no
     * event" and is ignored; offers before the base clamp to it (an
     * already-due event just means no skip happens).
     */
    void
    offer(Cycle when)
    {
        if (when == kNever)
            return;
        armed_ = true;
        if (when < base_)
            when = base_;
        const Cycle delta = when - base_;
        if (delta < horizon_) {
            const size_t slot = static_cast<size_t>(when & (horizon_ - 1));
            words_[slot / kBitsPerWord] |= uint64_t{1}
                                           << (slot % kBitsPerWord);
        } else {
            overflow_.push_back(when);
        }
    }

    /**
     * The earliest offered cycle, or kNever when nothing was offered.
     * Every ring event precedes every overflow event by construction, so
     * the ring scan short-circuits the heap.
     */
    Cycle
    next() const
    {
        // Scan physical words starting at the base's word, wrapping once.
        // Bits logically before the base inside the starting word belong
        // to the far end of the window, so they are masked off on the
        // first visit and only honored on the wrapped visit.
        const size_t base_slot = static_cast<size_t>(base_ & (horizon_ - 1));
        const size_t base_word = base_slot / kBitsPerWord;
        const size_t nwords = words_.size();
        for (size_t i = 0; i <= nwords; ++i) {
            const size_t w = (base_word + i) % nwords;
            uint64_t bits = words_[w];
            if (i == 0)
                bits &= ~uint64_t{0} << (base_slot % kBitsPerWord);
            else if (i == nwords)
                bits &= (uint64_t{1} << (base_slot % kBitsPerWord)) - 1;
            if (!bits)
                continue;
            const size_t slot =
                w * kBitsPerWord +
                static_cast<size_t>(std::countr_zero(bits));
            // Physical slot -> absolute cycle: the slot is base + the
            // forward distance from the base slot, wrapped over the ring.
            const Cycle ahead = (static_cast<Cycle>(slot) - base_) &
                                (horizon_ - 1);
            return base_ + ahead;
        }
        Cycle best = kNever;
        for (Cycle when : overflow_)
            if (when < best)
                best = when;
        return best;
    }

    Cycle base() const { return base_; }
    size_t horizon() const { return horizon_; }

  private:
    static constexpr size_t kDefaultHorizon = 512;
    static constexpr size_t kBitsPerWord = 64;

    size_t horizon_;
    Cycle base_ = 0;
    std::vector<uint64_t> words_;   //!< occupancy bitmap, physical index
    std::vector<Cycle> overflow_;   //!< events >= base_ + horizon_
    bool armed_ = false;            //!< anything offered since reset
};

} // namespace gcl::sim

#endif // GCL_SIM_EVENT_CALENDAR_HH
