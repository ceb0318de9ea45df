#include "harness.hh"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>

#include "obs/metrics.hh"

namespace perfbench
{

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

void
Result::metric(const std::string &name, double value, const std::string &unit)
{
    metrics[name] = Metric{value, unit};
}

void
Result::fail(const std::string &why)
{
    correct = false;
    std::fprintf(stderr, "perfbench: check failed: %s\n", why.c_str());
}

void
Result::tally(std::uint64_t n, std::uint64_t bad)
{
    attempted += n;
    failed += bad;
}

std::string
Result::json() const
{
    std::ostringstream os;
    os.precision(17);
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"digest\": \"" << digest << "\", \"metrics\": {";
    bool first = true;
    for (const auto &[name, m] : metrics) {
        // JSON has no infinity; an unbounded latency (too many rejected
        // offers) prints as the largest double, never as a good value.
        const double v = std::isfinite(m.value)
                             ? m.value
                             : std::numeric_limits<double>::max();
        os << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << v
           << ", \"unit\": \"" << m.unit << "\"}";
        first = false;
    }
    os << "}}";
    return os.str();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t i =
        static_cast<std::size_t>(std::clamp(rank, 1.0, double(v.size()))) - 1;
    return v[i];
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void
Digest::add(std::uint64_t v)
{
    for (int i = 0; i < 8; ++i) {
        h_ ^= (v >> (8 * i)) & 0xFF;
        h_ *= 0x100000001b3ULL;
    }
}

void
Digest::add(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
}

namespace
{

diffy::obs::Tracer g_inert;
std::atomic<diffy::obs::Tracer *> g_active{&g_inert};

} // namespace

diffy::obs::Tracer &
tracer()
{
    return *g_active.load(std::memory_order_acquire);
}

void
setTracing(diffy::obs::Tracer *on)
{
    g_active.store(on != nullptr ? on : &g_inert, std::memory_order_release);
}

void
resetObsRegistry()
{
    auto &reg = diffy::obs::MetricsRegistry::instance();
    const diffy::obs::MetricsSnapshot snap = reg.snapshot();
    for (const auto &entry : snap.counters)
        reg.counter(entry.first).reset();
    for (const auto &entry : snap.gauges)
        reg.gauge(entry.first).set(0.0);
    for (const auto &entry : snap.histograms)
        reg.histogram(entry.first).reset();
}

diffy::obs::Tracer *
TraceFiles::next()
{
    tracers_.push_back(std::make_unique<diffy::obs::Tracer>(
        base_ + "." + std::to_string(tracers_.size()) + ".json"));
    return tracers_.back().get();
}

std::vector<double>
repeat(double budget, int minReps, int maxReps,
       const std::function<double()> &rep, TraceFiles *traced,
       std::vector<double> *tracedTimes)
{
    std::vector<double> times;
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < maxReps; ++i) {
        if (i >= minReps && secondsSince(t0) >= budget)
            break;
        const bool trace = traced != nullptr && i % 2 == 1;
        setTracing(trace ? traced->next() : nullptr);
        const double s = rep();
        setTracing(nullptr);
        (trace ? *tracedTimes : times).push_back(s);
    }
    return times;
}

} // namespace perfbench
