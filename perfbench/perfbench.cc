/**
 * @file
 * perfbench — the simulator's host-time benchmark (see README.md beside
 * this file for the workloads, the metrics and the measured noise).
 *
 * One process, closed loop: a pass runs every member of the workload back
 * to back (or through exec::parallelFor at the workload's job count). After
 * one untimed warm-up pass, passes repeat for about --seconds. The only
 * threads are the workload's own sim_threads / jobs.
 *
 *   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
 *             --reference=FILE --results=DIR --work=DIR [--commit=ID]
 *   perfbench --record=FILE
 *
 * --trace=0 reports the end-to-end metrics; --trace=1 alternates plain
 * passes with passes whose calls into each layer are wrapped in spans and
 * reports the per-layer metrics. Every app run is checked against the CPU
 * reference, against the stats digest recorded by --record through the
 * plain workloads::SimContext::run path, and (sampled members) against
 * the sample_diff tolerance on the recorded full-run cycles and miss
 * rates. The last stdout line is the result object; the exit code is 0
 * only when every run passed its checks.
 */

#include <sched.h>
#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_lib.hh"
#include "core/classifier.hh"
#include "crit/report.hh"
#include "exec/scheduler.hh"
#include "sim/gpu.hh"
#include "sim/machine.hh"
#include "snap/snapshot.hh"
#include "trace/json.hh"
#include "trace/trace.hh"
#include "workloads/sim_context.hh"
#include "workloads/workload.hh"

namespace gcl::perfbench
{
namespace
{

/** Machine every member runs on (parsed as part of set-up). */
constexpr const char *kMachine = "configs/c2050.config";

/** tools/sample_diff cycle tolerance, the same for every member. */
constexpr double kCyclesTol = 0.05;

constexpr const char *kCrit = "crit=1,sim_threads=2";

enum class Prefix
{
    None,
    Cold,  //!< captures the shared functional prefix
    Warm,  //!< restores it (runs after every Cold member)
};

struct Member
{
    std::string app;
    std::string overrides;  //!< GpuConfig::applyOverrides spec
    Prefix prefix = Prefix::None;
    /**
     * sample_diff miss-rate tolerance, as scripts/check.sh gates each
     * sampled app: sub-launch windows measure a window-local working set.
     */
    double missTol = 0.05;

    std::string label() const
    {
        return overrides.empty() ? app : app + "@" + overrides;
    }
};

struct WorkloadSpec
{
    std::string name;
    std::vector<Member> members;
    unsigned jobs = 1;       //!< exec::parallelFor width of a pass
    bool simTrace = false;   //!< simulator events into a counting drain
    bool critReport = false; //!< render the crit report of every run
};

/** The workloads; README.md says why each was chosen. */
const std::vector<WorkloadSpec> &
workloadSpecs()
{
    static const std::vector<WorkloadSpec> specs = {
        {"dense-issue",
         {{"2mm", ""}, {"srad", ""}, {"htw", ""}, {"mriq", ""}},
         1, false, false},
        {"irregular-memory",
         {{"bfs", "dram_latency=800"}, {"spmv", "dram_latency=800"}},
         1, false, false},
        {"critical-load-analysis",
         {{"bfs", kCrit}, {"srad", kCrit}, {"lu", kCrit}, {"mriq", kCrit}},
         1, true, true},
        {"sampled-sweep",
         {{"sssp", "sample=kernels:9,dram_latency=400", Prefix::Cold},
          {"sssp", "sample=kernels:9,dram_latency=600", Prefix::Warm},
          {"sssp", "sample=kernels:9,dram_latency=800", Prefix::Warm},
          {"srad", "sample=kernels:2:3", Prefix::None, 0.10},
          {"gaus", "sample=every:4", Prefix::None, 0.10}},
         2, false, false},
    };
    return specs;
}

/** What --record wrote for one member. */
struct Reference
{
    std::string digest;
    double fullCycles = 0;  //!< sampled members: the full run's cycles
    double fullL1Miss = 0;
    double fullL2Miss = 0;
};

double
missRate(const StatsSet &stats, const char *level)
{
    const std::string l(level);
    const double access =
        stats.get(l + ".access.det") + stats.get(l + ".access.nondet");
    const double miss =
        stats.get(l + ".miss.det") + stats.get(l + ".miss.nondet");
    return access > 0 ? miss / access : 0.0;
}

sim::GpuConfig
memberConfig(const Member &member)
{
    sim::GpuConfig config = sim::loadMachineFile(kMachine);
    config.applyOverrides(member.overrides);
    return config;
}

/**
 * Seconds of CPU time @p clock has counted. With the kernel's paravirt
 * steal accounting, time the hypervisor gave to other guests while a
 * thread was runnable is left out.
 */
double
cpuSeconds(clockid_t clock)
{
    timespec ts{};
    clock_gettime(clock, &ts);
    return static_cast<double>(ts.tv_sec) + ts.tv_nsec * 1e-9;
}

/** Steal time summed over every CPU, in seconds (/proc/stat). */
double
stealSeconds()
{
    std::ifstream in("/proc/stat");
    std::string cpu;
    double field = 0, steal = 0;
    in >> cpu;
    for (int i = 0; i < 8 && in >> field; ++i)
        steal = field;  // user nice system idle iowait irq softirq steal
    return steal / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/** One app run of a pass. */
struct RunOutcome
{
    bool ok = false;
    std::string why;          //!< failure reason
    double wall = 0;          //!< seconds, Gpu construction to checks done
    StatsSet stats;
    double cycles = 0;        //!< simulated (sampled: estimated) cycles
    uint64_t skipped = 0;
    uint64_t skipEvents = 0;
    uint64_t dormant = 0;
    uint64_t traceEvents = 0;
    uint64_t traceDropped = 0;
    uint64_t launches = 0;    //!< boundary-hook launch retirements (spans)
    int runId = -1;           //!< app-run id of its spans (spans only)
    double sampleErr = 0;     //!< |est - full| / full cycles
    unsigned units = 0;       //!< SMs + partitions
    unsigned partitions = 0;
};

/** Shared state of one benchmark run. */
struct Bench
{
    const WorkloadSpec *spec = nullptr;
    std::map<std::string, Reference> refs;
    std::string prefixPath;
    SpanRecorder rec;
    std::atomic<int> nextRunId{0};
};

void
checkRun(const Bench &bench, const Member &member, bool verified,
         RunOutcome &out)
{
    const auto ref = bench.refs.find(member.label());
    if (!verified) {
        out.why = "CPU reference check failed";
        return;
    }
    if (ref == bench.refs.end()) {
        out.why = "no recorded reference";
        return;
    }
    const std::string digest = statsDigest(out.stats);
    if (digest != ref->second.digest) {
        out.why = "stats digest " + digest + " != recorded " +
                  ref->second.digest;
        return;
    }
    if (out.stats.has("sample.est.cycles")) {
        const Reference &r = ref->second;
        if (r.fullCycles <= 0) {
            out.why = "no recorded full-run cycles";
            return;
        }
        out.sampleErr = std::fabs(out.cycles / r.fullCycles - 1.0);
        const double l1 = std::fabs(missRate(out.stats, "l1") - r.fullL1Miss);
        const double l2 = std::fabs(missRate(out.stats, "l2") - r.fullL2Miss);
        if (out.sampleErr > kCyclesTol || l1 > member.missTol ||
            l2 > member.missTol) {
            std::ostringstream why;
            why << "sampled estimate out of tolerance: cycles "
                << out.sampleErr * 100 << "%, l1 miss " << l1 * 100
                << "pp, l2 miss " << l2 * 100 << "pp";
            out.why = why.str();
            return;
        }
    }
    out.ok = true;
}

/**
 * Simulate @p member under @p config, driving Gpu + Workload::run +
 * finalizeStats directly. With @p spans, the calls are wrapped in spans
 * under @p parent: launch spans run between consecutive boundary-hook
 * firings, so host code between launches counts as launch time.
 */
RunOutcome
runMember(Bench &bench, const Member &member, const sim::GpuConfig &config,
          bool spans, int parent)
{
    SpanRecorder &rec = bench.rec;
    const int run = spans ? bench.nextRunId++ : -1;
    const int app = spans ? rec.begin("bench.app_run", parent, run) : -1;
    auto span = [&](const char *name, double start) {
        if (spans)
            rec.add(name, start, rec.now(), app, run);
    };

    RunOutcome out;
    out.runId = run;
    const double t0 = rec.now();
    try {
        const workloads::Workload &workload =
            workloads::byName(member.app);
        sim::Gpu gpu(config);
        std::unique_ptr<trace::TraceSink> sink;
        if (bench.spec->simTrace) {
            sink = std::make_unique<trace::TraceSink>();
            sink->setDrain([&out](const trace::TraceEvent *, size_t n) {
                out.traceEvents += n;
            });
            sink->setEnabled(true);
            gpu.attachTrace(sink.get());
        }
        if (member.prefix == Prefix::Warm) {
            const double t = rec.now();
            auto prefix = std::make_shared<snap::Snapshot>(
                snap::Snapshot::readFile(bench.prefixPath));
            span("snap.prefix_read", t);
            if (!prefix->has("ffstate") || prefix->app != member.app ||
                prefix->configFingerprint != config.functionalFingerprint())
                throw std::runtime_error("functional prefix does not match");
            gpu.enableHostLog();
            gpu.beginResume(std::move(prefix));
        } else if (member.prefix == Prefix::Cold) {
            gpu.enableHostLog();
            gpu.setFfPrefixHook([&] {
                const double t = rec.now();
                snap::Snapshot prefix;
                prefix.configFingerprint = config.functionalFingerprint();
                prefix.machineName = config.machineName;
                prefix.app = member.app;
                prefix.kernelIndex = gpu.kernelsDone();
                prefix.cycle = gpu.clock();
                gpu.saveFunctional(prefix);
                prefix.writeFile(bench.prefixPath);
                span("snap.prefix_write", t);
            });
        }
        double last = rec.now();
        if (spans)
            gpu.setBoundaryHook([&](uint64_t k) {
                span(k == 0 ? "workloads.host" : "sim.launch", last);
                last = rec.now();
                out.launches += k > 0;
            });
        const bool verified = workload.run(gpu);
        span("workloads.host", last);

        const double tf = rec.now();
        gpu.finalizeStats();
        span("sim.finalize", tf);
        out.stats = gpu.stats().set();
        out.skipped = gpu.skippedCycles();
        out.skipEvents = gpu.skipEvents();
        out.dormant = gpu.dormantCycles();
        out.units = config.numSms + config.numPartitions;
        out.partitions = config.numPartitions;
        if (sink) {
            gpu.attachTrace(nullptr);
            sink->flush();
            out.traceDropped = sink->dropped();
        }
        out.cycles = out.stats.has("sample.est.cycles")
                         ? out.stats.get("sample.est.cycles")
                         : out.stats.get("cycles");

        if (bench.spec->critReport) {
            const double tc = rec.now();
            std::ostringstream report;
            crit::renderText(report, member.app, out.stats, 10);
            span("crit.report", tc);
            if (report.str().empty())
                throw std::runtime_error("empty crit report");
        }
        const double tv = rec.now();
        checkRun(bench, member, verified, out);
        span("bench.check", tv);
    } catch (const std::exception &error) {
        out.ok = false;
        out.why = error.what();
    }
    out.wall = rec.now() - t0;
    if (spans)
        rec.end(app);
    if (!out.ok)
        std::fprintf(stderr, "perfbench: %s failed: %s\n",
                     member.label().c_str(), out.why.c_str());
    return out;
}

/** One pass over the workload's members. */
struct PassResult
{
    double wall = 0;
    double cpu = 0;    //!< process CPU seconds, every thread
    double steal = 0;  //!< host steal seconds over all CPUs meanwhile
    std::vector<RunOutcome> runs;  //!< member order
    double busyFrac = 0;           //!< member time / (jobs x phase time)
};

/**
 * Run every member once, in the order the seed and pass index give.
 * Cold-prefix members and members without a prefix form the first phase,
 * warm-prefix members the second, so every pass splits the shared prefix
 * the same way (one capture, every other sssp member a restore).
 * @p threads_override (when nonzero) sets sim_threads.
 */
PassResult
runPass(Bench &bench, uint64_t seed, uint64_t pass, bool spans,
        unsigned threads_override)
{
    const WorkloadSpec &spec = *bench.spec;
    std::vector<size_t> order(spec.members.size());
    std::iota(order.begin(), order.end(), 0);
    std::mt19937_64 rng(seed * 1000003 + pass);
    std::shuffle(order.begin(), order.end(), rng);

    std::vector<sim::GpuConfig> configs;
    for (const Member &member : spec.members) {
        configs.push_back(memberConfig(member));
        if (threads_override)
            configs.back().simThreads = threads_override;
    }
    std::vector<std::vector<size_t>> phases(2);
    for (size_t i : order)
        phases[spec.members[i].prefix == Prefix::Warm].push_back(i);
    // The capture starts first: it is the longest run of its phase, so
    // the phase's makespan does not depend on the seed's order.
    std::stable_partition(phases[0].begin(), phases[0].end(), [&](size_t i) {
        return spec.members[i].prefix == Prefix::Cold;
    });

    std::filesystem::remove(bench.prefixPath);
    PassResult result;
    result.runs.resize(spec.members.size());
    SpanRecorder &rec = bench.rec;
    const double t0 = rec.now();
    const double cpu0 = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    const double steal0 = stealSeconds();
    const int pass_span = spans ? rec.begin("bench.pass", -1, -1) : -1;
    double member_time = 0, phase_time = 0;
    for (const auto &phase : phases) {
        if (phase.empty())
            continue;
        const double tp = rec.now();
        const int phase_span =
            spans ? rec.begin("exec.phase", pass_span, -1) : -1;
        exec::parallelFor(spec.jobs, phase.size(), [&](size_t i) {
            const size_t m = phase[i];
            result.runs[m] = runMember(bench, spec.members[m], configs[m],
                                       spans, phase_span);
        });
        if (spans)
            rec.end(phase_span);
        phase_time += rec.now() - tp;
        for (size_t m : phase)
            member_time += result.runs[m].wall;
    }
    if (spans)
        rec.end(pass_span);
    result.wall = rec.now() - t0;
    result.cpu = cpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - cpu0;
    result.steal = stealSeconds() - steal0;
    result.busyFrac = member_time / (spec.jobs * phase_time);
    return result;
}

// ---- Metrics ----

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Sum of @p field over the runs of @p pass. */
template <typename T>
double
sumOf(const PassResult &pass, T RunOutcome::*field)
{
    double total = 0;
    for (const RunOutcome &run : pass.runs)
        total += static_cast<double>(run.*field);
    return total;
}

double
statSum(const PassResult &pass, const std::string &key)
{
    double total = 0;
    for (const RunOutcome &run : pass.runs)
        total += run.stats.get(key);
    return total;
}

/** statSum of the det + nondet halves of a per-class counter. */
double
classSum(const PassResult &pass, const std::string &key)
{
    return statSum(pass, key + ".det") + statSum(pass, key + ".nondet");
}

/** Sum of every scalar of @p pass whose key starts with @p prefix. */
double
statPrefixSum(const PassResult &pass, const std::string &prefix)
{
    double total = 0;
    for (const RunOutcome &run : pass.runs)
        for (const auto &[key, value] : run.stats.scalars())
            if (key.compare(0, prefix.size(), prefix) == 0)
                total += value;
    return total;
}

double
ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

/** Per-pass simulated (deterministic) per-layer ratios. */
std::vector<Metric>
simulatedMetrics(const PassResult &pass)
{
    const double cycles = statSum(pass, "cycles");
    double unit_cycles = 0, part_cycles = 0;
    for (const RunOutcome &run : pass.runs) {
        unit_cycles += run.stats.get("cycles") * run.units;
        part_cycles += run.stats.get("cycles") * run.partitions;
    }
    const double l1_attempts = statPrefixSum(pass, "l1.outcome.");
    const double l1_fails = statPrefixSum(pass, "l1.outcome.fail_");
    double stall_slots = 0, slots = 0, err = 0;
    for (const RunOutcome &run : pass.runs) {
        const crit::CpiStack stack = crit::cpiStack(run.stats);
        if (stack.valid) {
            slots += stack.slots;
            for (double s : stack.stall)
                stall_slots += s;
        }
        err = std::max(err, run.sampleErr);
    }
    const double ff = statSum(pass, "sample.ff_work");
    const double detailed = statSum(pass, "sample.detailed_work");
    const double events = sumOf(pass, &RunOutcome::traceEvents);
    return {
        {"sim.ipc", ratio(statSum(pass, "warp_insts"), cycles), "winst/cycle"},
        {"sim.skipped_cycle_frac",
         ratio(sumOf(pass, &RunOutcome::skipped), cycles), "frac"},
        {"sim.skip_events", sumOf(pass, &RunOutcome::skipEvents), "count"},
        {"sim.dormant_unit_frac",
         ratio(sumOf(pass, &RunOutcome::dormant), unit_cycles), "frac"},
        {"sim.l1_attempts_per_cycle", ratio(l1_attempts, cycles), "1/cycle"},
        {"sim.l1_fail_frac", ratio(l1_fails, l1_attempts), "frac"},
        {"sim.l1_miss_rate",
         ratio(classSum(pass, "l1.miss"), classSum(pass, "l1.access")),
         "frac"},
        {"sim.l2_queries_per_cycle",
         ratio(statPrefixSum(pass, "l2.queries.p"), cycles), "1/cycle"},
        {"sim.l2_miss_rate",
         ratio(classSum(pass, "l2.miss"), classSum(pass, "l2.access")),
         "frac"},
        {"sim.part_stall_frac",
         ratio(statSum(pass, "part.stall_cycles"), part_cycles), "frac"},
        {"crit.stall_slot_frac", ratio(stall_slots, slots), "frac"},
        {"trace.events", events, "count"},
        {"trace.events_per_kcycle", ratio(events, cycles / 1000), "1/kcycle"},
        {"trace.dropped", sumOf(pass, &RunOutcome::traceDropped), "count"},
        {"sim.sample_ff_work_frac", ratio(ff, ff + detailed), "frac"},
        {"sample.err_pct", err * 100, "%"},
    };
}

// ---- Host context ----

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const size_t colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(line.find_first_not_of(' ', colon + 1));
        }
    return "unknown";
}

std::string
hostJson(const std::string &commit)
{
    std::ostringstream out;
    out << "{\"nproc\": " << std::thread::hardware_concurrency()
        << ", \"cpu_model\": " << trace::jsonQuote(cpuModel())
        << ", \"build_type\": " << trace::jsonQuote(PERFBENCH_BUILD_TYPE)
        << ", \"commit\": " << trace::jsonQuote(commit) << "}";
    return out.str();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::ostringstream out;
    out << "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        if (!validMetricName(metrics[i].name))
            throw std::logic_error("bad metric name " + metrics[i].name);
        out << (i ? ", " : "") << trace::jsonQuote(metrics[i].name)
            << ": {\"value\": " << trace::jsonNumber(metrics[i].value)
            << ", \"unit\": " << trace::jsonQuote(metrics[i].unit) << "}";
    }
    out << "}";
    return out.str();
}

// ---- Modes ----

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = 10;
    int trace = 0;
    std::string reference;
    std::string results;
    std::string work = ".";
    std::string commit = "unknown";
    std::string record;
};

std::map<std::string, Reference>
loadReferences(const std::string &path)
{
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    trace::JsonValue root;
    std::string error;
    if (!in || !trace::parseJson(text.str(), root, &error))
        throw std::runtime_error("cannot read reference '" + path + "' " +
                                 error);
    std::map<std::string, Reference> refs;
    for (const auto &[label, entry] : root["members"].object)
        refs[label] = {entry["digest"].string, entry["full_cycles"].number,
                       entry["full_l1_miss"].number,
                       entry["full_l2_miss"].number};
    return refs;
}

/**
 * Record the reference of every member through the plain SimContext::run
 * path: the stats digest and, for sampled members, the full run's cycles
 * and L1/L2 miss rates.
 */
int
record(const Args &args)
{
    std::ostringstream out;
    out << "{\"machine\": " << trace::jsonQuote(kMachine)
        << ", \"members\": {";
    bool first = true;
    std::map<std::string, bool> done;
    for (const WorkloadSpec &spec : workloadSpecs())
        for (const Member &member : spec.members) {
            if (done[member.label()])
                continue;
            done[member.label()] = true;
            auto simulate = [&](const sim::GpuConfig &config) {
                auto ctx = std::make_unique<workloads::SimContext>(
                    workloads::byName(member.app), config);
                if (spec.simTrace)
                    ctx->enableTrace(0, [](const trace::TraceEvent *,
                                           size_t) {}, 0);
                ctx->run();
                if (ctx->failed() || !ctx->verified())
                    throw std::runtime_error(member.label() +
                                             ": reference run failed");
                return ctx;
            };
            sim::GpuConfig config = memberConfig(member);
            const auto sampled = simulate(config);
            out << (first ? "" : ",") << "\n  "
                << trace::jsonQuote(member.label()) << ": {\"digest\": "
                << trace::jsonQuote(statsDigest(sampled->stats()));
            first = false;
            if (!config.sample.empty()) {
                config.sample.clear();
                const auto full = simulate(config);
                const StatsSet &stats = full->stats();
                out << ", \"full_cycles\": "
                    << trace::jsonNumber(stats.get("cycles"))
                    << ", \"full_l1_miss\": "
                    << trace::jsonNumber(missRate(stats, "l1"))
                    << ", \"full_l2_miss\": "
                    << trace::jsonNumber(missRate(stats, "l2"));
            }
            out << "}";
            std::fprintf(stderr, "perfbench: recorded %s\n",
                         member.label().c_str());
        }
    out << "\n}}\n";
    std::ofstream file(args.record);
    file << out.str();
    return file ? 0 : 1;
}

/**
 * Set-up repetitions: registry lookup (built on first use), kernel build
 * and machine-config parsing for every member, timed in thread CPU time.
 *
 * The host's CPUs run this code at speeds up to 2x apart, and which one
 * is slow changes over time (other tenants). So each round times a few
 * repetitions on every CPU the process may use and keeps the fastest
 * CPU's as the set-up samples; the passes then run unpinned again.
 */
class Setup
{
  public:
    Setup()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0)
            for (int c = 0; c < CPU_SETSIZE; ++c)
                if (CPU_ISSET(c, &set))
                    cpus_.push_back(c);
    }

    /** Time @p reps repetitions per CPU; keep the fastest CPU's. */
    void calibrate(const WorkloadSpec &spec, int reps)
    {
        if (cpus_.empty()) {  // affinity unknown: measure where we run
            for (int rep = 0; rep < reps; ++rep)
                once(spec, totals, builds);
            return;
        }
        std::vector<double> best_totals, best_builds;
        for (int cpu : cpus_) {
            pin({cpu});
            std::vector<double> t, b;
            for (int rep = 0; rep < reps; ++rep)
                once(spec, t, b);
            if (best_totals.empty() || median(t) < median(best_totals)) {
                best_totals = std::move(t);
                best_builds = std::move(b);
            }
        }
        pin(cpus_);
        totals.insert(totals.end(), best_totals.begin(), best_totals.end());
        builds.insert(builds.end(), best_builds.begin(), best_builds.end());
    }

    std::vector<double> totals;  //!< set-up CPU seconds, fastest CPU
    std::vector<double> builds;  //!< kernel-build part of each total

  private:
    static void once(const WorkloadSpec &spec,
                     std::vector<double> &totals, std::vector<double> &builds)
    {
        auto now = [] { return cpuSeconds(CLOCK_THREAD_CPUTIME_ID); };
        const double t0 = now();
        double build = 0;
        for (const Member &member : spec.members) {
            const double tb = now();
            const auto kernels = workloads::byName(member.app).kernels();
            build += now() - tb;
            if (kernels.empty())
                throw std::runtime_error(member.app + " has no kernels");
            (void)memberConfig(member);
        }
        totals.push_back(now() - t0);
        builds.push_back(build);
    }

    static void pin(const std::vector<int> &cpus)
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        for (int c : cpus)
            CPU_SET(c, &set);
        if (sched_setaffinity(0, sizeof(set), &set) != 0)
            throw std::runtime_error("sched_setaffinity failed");
    }

    std::vector<int> cpus_;
};

/**
 * Estimated launch-time classification cost: each distinct kernel of
 * every member is classified outside the timed passes, and the mean
 * per-kernel time is charged to each launch the member made.
 */
double
classifySeconds(const WorkloadSpec &spec, const PassResult &pass,
                SpanRecorder &rec)
{
    double total = 0;
    for (size_t m = 0; m < spec.members.size(); ++m) {
        const auto kernels =
            workloads::byName(spec.members[m].app).kernels();
        std::vector<double> times;
        for (int rep = 0; rep < 5; ++rep) {
            const double t0 = rec.now();
            for (const ptx::Kernel &kernel : kernels)
                core::LoadClassifier classifier(kernel);
            times.push_back(rec.now() - t0);
        }
        total += median(times) / kernels.size() * pass.runs[m].launches;
    }
    return total;
}

/** Every pass of a run, by kind (see bench()). */
using Passes = std::vector<std::vector<PassResult>>;

/** --trace=0: the end-to-end metrics over the plain passes. */
std::vector<Metric>
endToEndMetrics(const Passes &passes, const Setup &setup, uint64_t attempted,
                uint64_t failed, std::ostream &detail)
{
    std::vector<double> cpus, rates;
    for (const PassResult &pass : passes[0]) {
        cpus.push_back(pass.cpu);
        rates.push_back(sumOf(pass, &RunOutcome::cycles) / pass.cpu / 1000);
    }
    const std::pair<const char *, double PassResult::*> lists[] = {
        {"pass_walls", &PassResult::wall},
        {"pass_cpu_s", &PassResult::cpu},
        {"pass_steal_s", &PassResult::steal},
    };
    for (const auto &[key, field] : lists) {
        detail << (key == lists[0].first ? "\"" : ", \"") << key << "\": [";
        for (size_t i = 0; i < passes[0].size(); ++i)
            detail << (i ? ", " : "")
                   << trace::jsonNumber(passes[0][i].*field);
        detail << "]";
    }
    return {
        {"cpu_s", median(cpus), "s"},
        {"kcycles_per_cpu_s", median(rates), "kcycle/s"},
        {"setup_s", median(setup.totals), "s"},
        {"peak_rss_mb", peakRssMb(), "MB"},
        {"ok_frac", 1.0 - ratio(double(failed), double(attempted)), "frac"},
    };
}

/**
 * --trace=1: the per-layer metrics. Span timings are medians over the
 * traced passes; simulated ratios come from the last traced pass.
 */
std::vector<Metric>
perLayerMetrics(Bench &bench, const Passes &passes, const Setup &setup,
                std::ostream &detail)
{
    const WorkloadSpec &spec = *bench.spec;
    SpanRecorder &rec = bench.rec;
    const std::vector<Span> spans = rec.spans();
    const std::vector<double> self = selfTimes(spans);
    // Self time per (app run, layer); an app run's own self time is
    // the part no layer span covers.
    std::map<int, std::map<std::string, double>> by_run;
    for (size_t i = 0; i < spans.size(); ++i)
        if (spans[i].run >= 0)
            by_run[spans[i].run][spans[i].name == "bench.app_run"
                                     ? "unattributed"
                                     : spans[i].name] += self[i];
    std::map<std::string, std::vector<double>> layer_totals;
    detail << "\"app_runs\": [";
    for (size_t t = 0; t < passes[1].size(); ++t) {
        std::map<std::string, double> pass_total;
        for (size_t m = 0; m < spec.members.size(); ++m) {
            const auto &layers = by_run[passes[1][t].runs[m].runId];
            detail << (t || m ? ",\n  " : "\n  ") << "{\"pass\": " << t
                   << ", \"member\": "
                   << trace::jsonQuote(spec.members[m].label())
                   << ", \"self_s\": {";
            bool first = true;
            for (const auto &[name, value] : layers) {
                pass_total[name] += value;
                detail << (first ? "" : ", ") << trace::jsonQuote(name)
                       << ": " << trace::jsonNumber(value);
                first = false;
            }
            detail << "}}";
        }
        for (const auto &[name, value] : pass_total)
            layer_totals[name].push_back(value);
    }
    detail << "],\n ";
    auto layer = [&](const std::string &name) {
        return median(layer_totals[name]);
    };

    auto median_wall = [&](int kind) {
        std::vector<double> walls;
        for (const PassResult &pass : passes[kind])
            walls.push_back(pass.wall);
        return median(walls);
    };

    const PassResult &last = passes[1].back();
    const double cycles = statSum(last, "cycles");
    const double warp_insts = statSum(last, "warp_insts");
    std::vector<double> busy, saving;
    for (const PassResult &pass : passes[1]) {
        busy.push_back(pass.busyFrac);
        double cold = 0, warm = 0, nwarm = 0;
        for (size_t m = 0; m < spec.members.size(); ++m) {
            if (spec.members[m].prefix == Prefix::Cold)
                cold += pass.runs[m].wall;
            if (spec.members[m].prefix == Prefix::Warm) {
                warm += pass.runs[m].wall;
                ++nwarm;
            }
        }
        if (nwarm > 0)
            saving.push_back(cold - warm / nwarm);
    }
    std::error_code ec;
    const auto bytes = std::filesystem::file_size(bench.prefixPath, ec);
    const double launch_s = layer("sim.launch");

    std::vector<Metric> metrics = {
        {"sim.ns_per_warp_inst", ratio(launch_s * 1e9, warp_insts), "ns"},
        {"sim.ns_per_cycle", ratio(launch_s * 1e9, cycles), "ns"},
        {"sim.launch_s", launch_s, "s"},
        {"sim.launches", sumOf(last, &RunOutcome::launches), "count"},
        {"sim.finalize_s", layer("sim.finalize"), "s"},
        {"workloads.host_s", layer("workloads.host"), "s"},
        {"ptx.build_s", median(setup.builds), "s"},
        {"core.classify_s", classifySeconds(spec, last, rec), "s"},
        {"crit.report_s", layer("crit.report"), "s"},
        {"snap.prefix_bytes", ec ? 0.0 : double(bytes), "bytes"},
        {"snap.prefix_read_s", layer("snap.prefix_read"), "s"},
        {"snap.prefix_saving_s", median(saving), "s"},
        {"exec.busy_frac", median(busy), "frac"},
        {"exec.sim_threads_speedup", ratio(median_wall(2), median_wall(0)),
         "x"},
        {"bench.wall_s", median_wall(0), "s"},
        {"bench.trace_overhead", ratio(median_wall(1), median_wall(0)), "x"},
        {"bench.unattributed_s", layer("unattributed"), "s"},
    };
    for (Metric &m : simulatedMetrics(last))
        metrics.push_back(std::move(m));

    // Median per-pass self time of each layer, and the spans.
    detail << "\"layer_self_s\": {";
    bool first = true;
    for (const auto &[name, values] : layer_totals) {
        detail << (first ? "" : ", ") << trace::jsonQuote(name) << ": "
               << trace::jsonNumber(median(values));
        std::fprintf(stderr, "perfbench: self %-20s %10.6f s/pass\n",
                     name.c_str(), median(values));
        first = false;
    }
    detail << "}, \"spans\": [";
    for (size_t i = 0; i < spans.size(); ++i)
        detail << (i ? ",\n  " : "\n  ") << "{\"name\": "
               << trace::jsonQuote(spans[i].name) << ", \"start\": "
               << trace::jsonNumber(spans[i].start) << ", \"end\": "
               << trace::jsonNumber(spans[i].end) << ", \"parent\": "
               << spans[i].parent << ", \"run\": " << spans[i].run
               << ", \"self\": " << trace::jsonNumber(self[i]) << "}";
    detail << "]";
    return metrics;
}

int
bench(const Args &args)
{
    Bench bench;
    for (const WorkloadSpec &spec : workloadSpecs())
        if (spec.name == args.workload)
            bench.spec = &spec;
    if (!bench.spec) {
        std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    const WorkloadSpec &spec = *bench.spec;
    bench.refs = loadReferences(args.reference);
    std::filesystem::create_directories(args.work);
    std::filesystem::create_directories(args.results);
    bench.prefixPath = args.work + "/ffprefix." +
                       std::to_string(static_cast<long>(getpid())) + ".snap";
    SpanRecorder &rec = bench.rec;

    // Set-up rounds run before the first pass (which also builds the
    // registry) and before every pass, so the samples span the run.
    Setup setup;
    setup.calibrate(spec, 5);

    // Pass kinds: 0 = plain (no spans); with --trace=1 also 1 = spans,
    // and for traced simulator runs 2 = plain at sim_threads=1.
    std::vector<int> kinds{0};
    if (args.trace) {
        kinds.push_back(1);
        if (spec.simTrace)
            kinds.push_back(2);
    }
    // One untimed warm-up pass (first-touch page faults, cold caches); its
    // runs are still checked. Timed passes then repeat while the next one,
    // at the median pass wall so far, still ends within --seconds.
    Passes passes(3);
    const PassResult warmup =
        runPass(bench, args.seed, std::numeric_limits<uint64_t>::max(),
                false, 0);
    std::vector<double> walls;
    const double start = rec.now();
    for (uint64_t p = 0;; ++p) {
        const int kind = kinds[p % kinds.size()];
        if (p >= kinds.size() &&
            rec.now() - start + median(walls) >= args.seconds)
            break;
        setup.calibrate(spec, 5);
        passes[kind].push_back(
            runPass(bench, args.seed, p / kinds.size(), kind == 1,
                    kind == 2 ? 1 : 0));
        walls.push_back(passes[kind].back().wall);
    }

    uint64_t attempted = 0, failed = 0;
    for (const RunOutcome &run : warmup.runs) {
        ++attempted;
        failed += !run.ok;
    }
    for (const auto &list : passes)
        for (const PassResult &pass : list)
            for (const RunOutcome &run : pass.runs) {
                ++attempted;
                failed += !run.ok;
            }

    std::ostringstream detail;  // results-file body
    const std::vector<Metric> metrics =
        args.trace ? perLayerMetrics(bench, passes, setup, detail)
                   : endToEndMetrics(passes, setup, attempted, failed, detail);
    const std::string metrics_json = metricsJson(metrics);
    const std::string host = hostJson(args.commit);
    const std::string result_path =
        args.results + "/" + spec.name + "-seed" + std::to_string(args.seed) +
        "-trace" + std::to_string(args.trace) + ".json";
    std::ofstream file(result_path);
    file << "{\"workload\": " << trace::jsonQuote(spec.name)
         << ", \"seed\": " << args.seed << ", \"seconds\": "
         << trace::jsonNumber(args.seconds) << ", \"trace\": " << args.trace
         << ",\n \"host\": " << host << ",\n \"attempted\": " << attempted
         << ", \"failed\": " << failed << ",\n \"metrics\": " << metrics_json
         << ",\n " << detail.str() << "}\n";
    std::filesystem::remove(bench.prefixPath);

    std::printf("perfbench host: %s\n", host.c_str());
    std::printf("perfbench details: %s\n", result_path.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                failed == 0 ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed),
                metrics_json.c_str());
    return failed == 0 ? 0 : 1;
}

} // namespace
} // namespace gcl::perfbench

int
main(int argc, char **argv)
{
    using namespace gcl::perfbench;
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const size_t eq = arg.find('=');
        const std::string key = arg.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : arg.substr(eq + 1);
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::stoull(value);
        else if (key == "--seconds")
            args.seconds = std::stod(value);
        else if (key == "--trace")
            args.trace = std::stoi(value);
        else if (key == "--reference")
            args.reference = value;
        else if (key == "--results")
            args.results = value;
        else if (key == "--work")
            args.work = value;
        else if (key == "--commit")
            args.commit = value;
        else if (key == "--record")
            args.record = value;
        else {
            std::fprintf(stderr, "perfbench: unknown argument '%s'\n",
                         arg.c_str());
            return 2;
        }
    }
    try {
        return args.record.empty() ? bench(args) : record(args);
    } catch (const std::exception &error) {
        std::fprintf(stderr, "perfbench: %s\n", error.what());
        return 2;
    }
}
