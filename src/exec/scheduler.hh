/**
 * @file
 * `gcl::exec` — a small deterministic job scheduler.
 *
 * The simulator is strictly single-threaded *within* one device model, but
 * a characterization study runs many independent simulations (the 15-app
 * sweep, ablation grids, parameter scans). This subsystem supplies the
 * concurrency for that outer loop:
 *
 *  - ThreadPool: a fixed set of worker threads draining a FIFO work queue.
 *  - parallelFor / parallelMap: fan an index range out over a pool, with
 *    per-job result slots and per-job exception capture. Results land in
 *    index order regardless of completion order, so callers observe the
 *    same outputs as a serial loop — determinism comes from the slots, not
 *    from the schedule.
 *
 * Contract: a job must be *thread-confined* — it may only touch state it
 * owns (see DESIGN.md, "Thread confinement"). The scheduler guarantees a
 * happens-before edge between submit() and the job, and between the job
 * and wait()'s return, so a job's results may be read without further
 * synchronization once wait() (or parallelFor) returns.
 */

#ifndef GCL_EXEC_SCHEDULER_HH
#define GCL_EXEC_SCHEDULER_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gcl::exec
{

/** std::thread::hardware_concurrency(), never less than 1. */
unsigned hardwareThreads();

/**
 * Job-count policy shared by every parallel caller: an explicit request
 * wins; otherwise the @p envvar (e.g. "GCL_BENCH_JOBS") is consulted;
 * otherwise @p fallback. A value of 0 (from either source) means "one job
 * per hardware thread". The result is always >= 1.
 */
unsigned resolveJobs(unsigned requested, const char *envvar,
                     unsigned fallback = 1);

/** Fixed-size worker pool draining a FIFO queue of jobs. */
class ThreadPool
{
  public:
    /** Spawns @p num_threads workers (clamped to >= 1). */
    explicit ThreadPool(unsigned num_threads);

    /** Joins the workers after draining the queue. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue one job. Jobs must not throw — wrap the body if it can
     * (parallelFor does); an escaping exception terminates the process.
     */
    void submit(std::function<void()> job);

    /** Block until every submitted job has finished. */
    void wait();

    unsigned numThreads() const { return static_cast<unsigned>(workers_.size()); }

  private:
    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable workReady_;   //!< queue gained work / shutdown
    std::condition_variable drained_;     //!< queue empty and no job running
    size_t running_ = 0;                  //!< jobs currently executing
    bool shutdown_ = false;
};

/**
 * Run fn(0) ... fn(count-1) on @p jobs workers and return once all have
 * finished.
 *
 * jobs <= 1 runs every index inline on the calling thread, in order, with
 * exceptions propagating immediately — byte-for-byte the plain serial
 * loop. With jobs > 1, every job runs to completion even if another
 * throws; afterwards the captured exception with the lowest index is
 * rethrown, so the reported failure does not depend on thread timing.
 */
void parallelFor(unsigned jobs, size_t count,
                 const std::function<void(size_t)> &fn);

/**
 * parallelFor with a result slot per index: returns {fn(0), ...,
 * fn(count-1)} in index order. R must be default-constructible.
 */
template <typename R>
std::vector<R>
parallelMap(unsigned jobs, size_t count,
            const std::function<R(size_t)> &fn)
{
    std::vector<R> out(count);
    parallelFor(jobs, count, [&](size_t i) { out[i] = fn(i); });
    return out;
}

} // namespace gcl::exec

#endif // GCL_EXEC_SCHEDULER_HH
