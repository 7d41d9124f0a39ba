#include "bench_lib.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

namespace gcl::perfbench
{

namespace
{

int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

bool
nameChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

} // namespace

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64 || !nameChar(name[0]) ||
        name[0] == '_' || name[0] == '.' || name[0] == '-')
        return false;
    return std::all_of(name.begin(), name.end(), nameChar);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : (values[mid - 1] + values[mid]) / 2;
}

std::string
statsDigest(const StatsSet &stats)
{
    uint64_t hash = 0xcbf29ce484222325ull;
    for (const char c : stats.serialize()) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    char text[17];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(hash));
    return text;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &span : spans)
        if (span.parent >= 0 &&
            static_cast<size_t>(span.parent) < spans.size())
            children[span.parent].emplace_back(span.start, span.end);

    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
        const double lo = spans[i].start;
        const double hi = spans[i].end;
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0;
        double reach = lo;  // end of the union merged so far
        for (const auto &[start, end] : kids) {
            const double s = std::max(start, reach);
            const double e = std::min(end, hi);
            if (e > s) {
                covered += e - s;
                reach = e;
            }
        }
        self[i] = (hi - lo) - covered;
    }
    return self;
}

SpanRecorder::SpanRecorder() : origin_(steadyNs()) {}

double
SpanRecorder::now() const
{
    return static_cast<double>(steadyNs() - origin_) * 1e-9;
}

int
SpanRecorder::begin(const std::string &name, int parent, int run)
{
    const double t = now();
    return add(name, t, t, parent, run);
}

void
SpanRecorder::end(int index)
{
    const double t = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[index].end = t;
}

int
SpanRecorder::add(const std::string &name, double start, double end,
                  int parent, int run)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({name, start, end, parent, run});
    return static_cast<int>(spans_.size() - 1);
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

} // namespace gcl::perfbench
