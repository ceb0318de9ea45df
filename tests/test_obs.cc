/**
 * @file
 * Tests for the observability layer (src/obs): sharded counter and
 * histogram determinism across thread counts, the disabled-registry
 * zero-allocation guarantee, JSON snapshot round-trips, and the span
 * tracer's Chrome trace output (parsed back by a minimal JSON reader
 * below — well-formedness is part of the contract).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <condition_variable>
#include <mutex>

#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "runtime/thread_pool.hh"

namespace diffy
{
namespace
{

/* --------------------------------------------------------- JSON reader */

/**
 * Minimal recursive-descent JSON value, just enough to verify that the
 * artifacts we emit are well-formed and carry the expected fields.
 */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };
    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> items;
    std::map<std::string, JsonValue> fields;

    const JsonValue &at(const std::string &key) const
    {
        auto it = fields.find(key);
        if (it == fields.end())
            throw std::runtime_error("json: missing key " + key);
        return it->second;
    }
    bool has(const std::string &key) const
    {
        return fields.count(key) > 0;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(std::string text) : text_(std::move(text)) {}

    JsonValue parse()
    {
        JsonValue v = parseValue();
        skipSpace();
        if (pos_ != text_.size())
            throw std::runtime_error("json: trailing content");
        return v;
    }

  private:
    void skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            throw std::runtime_error("json: unexpected end");
        return text_[pos_];
    }

    void expect(char c)
    {
        if (peek() != c)
            throw std::runtime_error(std::string("json: expected '") + c +
                                     "' at " + std::to_string(pos_));
        ++pos_;
    }

    bool consume(char c)
    {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    JsonValue parseValue()
    {
        char c = peek();
        if (c == '{')
            return parseObject();
        if (c == '[')
            return parseArray();
        if (c == '"') {
            JsonValue v;
            v.kind = JsonValue::Kind::String;
            v.str = parseString();
            return v;
        }
        if (text_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
        }
        if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            return v;
        }
        if (text_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            return JsonValue{};
        }
        return parseNumber();
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        while (pos_ < text_.size() && text_[pos_] != '"') {
            char c = text_[pos_++];
            if (c == '\\') {
                if (pos_ >= text_.size())
                    throw std::runtime_error("json: bad escape");
                char e = text_[pos_++];
                switch (e) {
                  case '"':
                  case '\\':
                  case '/':
                    out.push_back(e);
                    break;
                  case 'n':
                    out.push_back('\n');
                    break;
                  case 't':
                    out.push_back('\t');
                    break;
                  case 'u':
                    // \uXXXX: ASCII subset only (what we emit).
                    if (pos_ + 4 > text_.size())
                        throw std::runtime_error("json: bad \\u");
                    out.push_back(static_cast<char>(std::stoi(
                        text_.substr(pos_, 4), nullptr, 16)));
                    pos_ += 4;
                    break;
                  default:
                    throw std::runtime_error("json: bad escape");
                }
            } else {
                out.push_back(c);
            }
        }
        if (pos_ >= text_.size())
            throw std::runtime_error("json: unterminated string");
        ++pos_; // closing quote
        return out;
    }

    JsonValue parseNumber()
    {
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E'))
            ++pos_;
        if (pos_ == start)
            throw std::runtime_error("json: expected a value at " +
                                     std::to_string(start));
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = std::stod(text_.substr(start, pos_ - start));
        return v;
    }

    JsonValue parseObject()
    {
        expect('{');
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        if (consume('}'))
            return v;
        do {
            std::string key = parseString();
            expect(':');
            v.fields.emplace(std::move(key), parseValue());
        } while (consume(','));
        expect('}');
        return v;
    }

    JsonValue parseArray()
    {
        expect('[');
        JsonValue v;
        v.kind = JsonValue::Kind::Array;
        if (consume(']'))
            return v;
        do {
            v.items.push_back(parseValue());
        } while (consume(','));
        expect(']');
        return v;
    }

    std::string text_;
    std::size_t pos_ = 0;
};

JsonValue
parseJsonFile(const std::string &path)
{
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return JsonParser(buffer.str()).parse();
}

std::string
tempPath(const std::string &name)
{
    return testing::TempDir() + name;
}

/* ------------------------------------------------------------ counters */

/** Spread @p total increments over @p threads workers and return the
 *  counter's merged value. */
std::uint64_t
countAcross(obs::Counter &counter, int threads, int total)
{
    std::vector<std::thread> workers;
    int per = total / threads;
    for (int t = 0; t < threads; ++t) {
        workers.emplace_back([&counter, per] {
            for (int i = 0; i < per; ++i)
                counter.add(1);
        });
    }
    for (auto &w : workers)
        w.join();
    return counter.value();
}

TEST(ObsCounter, ExactAcrossThreadCounts)
{
    auto &reg = obs::MetricsRegistry::instance();
    for (int threads : {1, 2, 8}) {
        obs::Counter &counter = reg.counter(
            "test.counter_threads_" + std::to_string(threads));
        EXPECT_EQ(countAcross(counter, threads, 8000), 8000u)
            << threads << " threads";
        // One shard per recording thread, no more.
        EXPECT_LE(counter.shardCount(),
                  static_cast<std::size_t>(threads));
    }
}

TEST(ObsCounter, ExitedThreadsHandTheirShardsOn)
{
    // Sweeps start fresh workers every time; their shards must be
    // reused, not accumulate one per thread ever started.
    auto &reg = obs::MetricsRegistry::instance();
    obs::Counter &counter = reg.counter("test.counter_churn");
    obs::LatencyHistogram &hist = reg.histogram("test.hist_churn");
    for (int round = 0; round < 20; ++round) {
        std::thread([&] {
            counter.add(2);
            hist.record(0.001);
        }).join();
    }
    EXPECT_EQ(counter.value(), 40u);
    EXPECT_EQ(counter.shardCount(), 1u);
    EXPECT_EQ(hist.snapshot().stat.count(), 20u);
    EXPECT_EQ(hist.shardCount(), 1u);
}

TEST(ObsCounter, ResetZeroesButKeepsShards)
{
    auto &reg = obs::MetricsRegistry::instance();
    obs::Counter &counter = reg.counter("test.counter_reset");
    countAcross(counter, 2, 100);
    std::size_t shards = counter.shardCount();
    counter.reset();
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(counter.shardCount(), shards);
    counter.add(3);
    EXPECT_EQ(counter.value(), 3u);
}

TEST(ObsRegistry, FindOrCreateReturnsSameHandle)
{
    auto &reg = obs::MetricsRegistry::instance();
    EXPECT_EQ(&reg.counter("test.same_handle"),
              &reg.counter("test.same_handle"));
    EXPECT_EQ(&reg.histogram("test.same_hist"),
              &reg.histogram("test.same_hist"));
    EXPECT_EQ(&reg.gauge("test.same_gauge"),
              &reg.gauge("test.same_gauge"));
}

/* ---------------------------------------------------------- histograms */

TEST(ObsHistogram, SnapshotDeterministicAcrossThreadCounts)
{
    // Exactly representable sample values: count/sum/min/max and the
    // integer bucket map must merge to identical results regardless of
    // how the samples were spread over shards.
    auto &reg = obs::MetricsRegistry::instance();
    obs::LatencyHistogram::Snapshot reference;
    bool first = true;
    for (int threads : {1, 2, 8}) {
        obs::LatencyHistogram &hist = reg.histogram(
            "test.hist_threads_" + std::to_string(threads));
        std::vector<std::thread> workers;
        for (int t = 0; t < threads; ++t) {
            workers.emplace_back([&hist, t, threads] {
                for (int i = t; i < 64; i += threads)
                    hist.record(0.25 * (1 + i % 8));
            });
        }
        for (auto &w : workers)
            w.join();
        obs::LatencyHistogram::Snapshot snap = hist.snapshot();
        EXPECT_EQ(snap.stat.count(), 64u);
        if (first) {
            reference = snap;
            first = false;
            continue;
        }
        EXPECT_EQ(snap.stat.count(), reference.stat.count());
        EXPECT_EQ(snap.stat.sum(), reference.stat.sum());
        EXPECT_EQ(snap.stat.min(), reference.stat.min());
        EXPECT_EQ(snap.stat.max(), reference.stat.max());
        // Welford's mean is order-sensitive at the ULP level.
        EXPECT_NEAR(snap.stat.mean(), reference.stat.mean(), 1e-12);
        EXPECT_EQ(snap.log2Nanos.bins(), reference.log2Nanos.bins());
    }
}

TEST(ObsHistogram, BucketsArePowerOfTwoNanos)
{
    auto &reg = obs::MetricsRegistry::instance();
    obs::LatencyHistogram &hist = reg.histogram("test.hist_buckets");
    hist.record(1e-9); // 1 ns  -> bit_width(1)  = 1
    hist.record(1e-6); // 1 us  -> bit_width(1000) = 10
    hist.record(1e-3); // 1 ms  -> bit_width(1e6) = 20
    hist.record(0.0);  // non-positive -> bucket 0
    obs::LatencyHistogram::Snapshot snap = hist.snapshot();
    EXPECT_EQ(snap.log2Nanos.countOf(0), 1u);
    EXPECT_EQ(snap.log2Nanos.countOf(1), 1u);
    EXPECT_EQ(snap.log2Nanos.countOf(10), 1u);
    EXPECT_EQ(snap.log2Nanos.countOf(20), 1u);
}

/* ------------------------------------------------------ disable switch */

TEST(ObsRegistry, DisabledRecordingAllocatesNothing)
{
    auto &reg = obs::MetricsRegistry::instance();
    obs::Counter &counter = reg.counter("test.disabled_counter");
    obs::LatencyHistogram &hist = reg.histogram("test.disabled_hist");
    ASSERT_TRUE(obs::MetricsRegistry::enabled());
    obs::MetricsRegistry::setEnabled(false);
    counter.add(5);
    hist.record(0.5);
    {
        obs::ScopedLatency timer(hist); // inert: no clock, no record
    }
    std::thread other([&] {
        counter.add(7);
        hist.record(0.25);
    });
    other.join();
    obs::MetricsRegistry::setEnabled(true);
    // Zero shards were created, zero samples recorded.
    EXPECT_EQ(counter.shardCount(), 0u);
    EXPECT_EQ(counter.value(), 0u);
    EXPECT_EQ(hist.shardCount(), 0u);
    EXPECT_EQ(hist.snapshot().stat.count(), 0u);
}

/* -------------------------------------------------------- JSON snapshot */

TEST(ObsSnapshot, JsonRoundTripsThroughAParser)
{
    auto &reg = obs::MetricsRegistry::instance();
    reg.counter("test.json_counter").add(41);
    reg.counter("test.json_counter").add(1);
    reg.gauge("test.json_gauge").set(2.5);
    reg.histogram("test.json_hist").record(0.5);
    reg.histogram("test.json_hist").record(0.25);

    std::ostringstream os;
    obs::writeJson(reg.snapshot(), os);
    JsonValue root = JsonParser(os.str()).parse();

    EXPECT_EQ(root.at("counters").at("test.json_counter").number, 42.0);
    EXPECT_EQ(root.at("gauges").at("test.json_gauge").number, 2.5);
    const JsonValue &hist =
        root.at("histograms").at("test.json_hist");
    EXPECT_EQ(hist.at("count").number, 2.0);
    EXPECT_EQ(hist.at("sum").number, 0.75);
    EXPECT_EQ(hist.at("min").number, 0.25);
    EXPECT_EQ(hist.at("max").number, 0.5);
    EXPECT_FALSE(hist.at("log2_nanos").fields.empty());
}

TEST(ObsSnapshot, EscapesAwkwardMetricNames)
{
    auto &reg = obs::MetricsRegistry::instance();
    reg.counter("test.quote\"backslash\\name").add(1);
    std::ostringstream os;
    obs::writeJson(reg.snapshot(), os);
    JsonValue root = JsonParser(os.str()).parse();
    EXPECT_EQ(root.at("counters")
                  .at("test.quote\"backslash\\name")
                  .number,
              1.0);
}

/* --------------------------------------------------------------- spans */

TEST(ObsTracer, NestedSpansEmitWellFormedChromeTrace)
{
    const std::string path = tempPath("obs_nested_trace.json");
    {
        obs::Tracer tracer(path);
        {
            obs::Span outer(tracer, "outer", 7);
            {
                obs::Span inner(tracer, "inner");
            }
        }
        EXPECT_EQ(tracer.eventCount(), 2u);
        tracer.flush();
    }
    JsonValue root = parseJsonFile(path);
    EXPECT_EQ(root.at("displayTimeUnit").str, "ms");
    const JsonValue &events = root.at("traceEvents");
    ASSERT_EQ(events.items.size(), 2u);

    // Spans close inner-first, so events arrive in end order.
    const JsonValue &inner = events.items[0];
    const JsonValue &outer = events.items[1];
    EXPECT_EQ(inner.at("name").str, "inner");
    EXPECT_EQ(outer.at("name").str, "outer");
    EXPECT_EQ(inner.at("ph").str, "X");
    EXPECT_EQ(outer.at("args").at("index").number, 7.0);
    EXPECT_FALSE(inner.has("args"));
    // Timestamp containment: the inner span nests inside the outer.
    double innerStart = inner.at("ts").number;
    double innerEnd = innerStart + inner.at("dur").number;
    double outerStart = outer.at("ts").number;
    double outerEnd = outerStart + outer.at("dur").number;
    EXPECT_LE(outerStart, innerStart);
    EXPECT_LE(innerEnd, outerEnd);
    std::remove(path.c_str());
}

TEST(ObsTracer, DisabledTracerRecordsNothing)
{
    obs::Tracer tracer; // no path: disabled
    EXPECT_FALSE(tracer.enabled());
    {
        obs::Span span(tracer, "ignored");
        obs::Span arg(tracer, "ignored_too", 3);
    }
    EXPECT_EQ(tracer.eventCount(), 0u);
    // An empty span name is inert even on an enabled tracer.
    const std::string path = tempPath("obs_empty_name.json");
    {
        obs::Tracer enabled(path);
        obs::Span span(enabled, "");
    }
    JsonValue root = parseJsonFile(path);
    EXPECT_TRUE(root.at("traceEvents").items.empty());
    std::remove(path.c_str());
}

TEST(ObsTracer, ConfigureRedirectsAndClears)
{
    const std::string first = tempPath("obs_cfg_first.json");
    const std::string second = tempPath("obs_cfg_second.json");
    obs::Tracer tracer(first);
    {
        obs::Span span(tracer, "one");
    }
    tracer.configure(second); // flushes "one" to first, then clears
    {
        obs::Span span(tracer, "two");
    }
    tracer.configure(""); // flushes "two" to second, then disables
    EXPECT_FALSE(tracer.enabled());

    JsonValue a = parseJsonFile(first);
    ASSERT_EQ(a.at("traceEvents").items.size(), 1u);
    EXPECT_EQ(a.at("traceEvents").items[0].at("name").str, "one");
    JsonValue b = parseJsonFile(second);
    ASSERT_EQ(b.at("traceEvents").items.size(), 1u);
    EXPECT_EQ(b.at("traceEvents").items[0].at("name").str, "two");
    std::remove(first.c_str());
    std::remove(second.c_str());
}

TEST(ObsScopedLatency, RecordsOneSample)
{
    auto &reg = obs::MetricsRegistry::instance();
    obs::LatencyHistogram &hist = reg.histogram("test.scoped_latency");
    {
        obs::ScopedLatency timer(hist);
    }
    obs::LatencyHistogram::Snapshot snap = hist.snapshot();
    EXPECT_EQ(snap.stat.count(), 1u);
    EXPECT_GE(snap.stat.min(), 0.0);
}

// Backpressure observability pins (DESIGN.md §13): the serving loop
// relies on `thread_pool.queue_depth` and `serve.rejected` existing
// under exactly these names — CI scripts and dashboards key on them.

TEST(ObsGauge, ThreadPoolQueueDepthTracksBacklog)
{
    auto &gauge =
        obs::MetricsRegistry::instance().gauge("thread_pool.queue_depth");
    std::mutex m;
    std::condition_variable cv;
    bool started = false;
    bool release = false;
    ThreadPool pool(1);
    // Block the only worker so submissions pile up deterministically.
    pool.submit([&] {
        std::unique_lock<std::mutex> lock(m);
        started = true;
        cv.notify_all();
        cv.wait(lock, [&] { return release; });
    });
    {
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return started; });
    }
    for (int i = 0; i < 4; ++i)
        pool.submit([] {});
    EXPECT_EQ(gauge.value(), 4.0);
    {
        std::lock_guard<std::mutex> lock(m);
        release = true;
    }
    cv.notify_all();
    pool.wait();
    EXPECT_EQ(gauge.value(), 0.0);
    auto snap = obs::MetricsRegistry::instance().snapshot();
    EXPECT_TRUE(snap.gauges.count("thread_pool.queue_depth"));
}

TEST(ObsCounter, ServeRejectedCounterNameIsPinned)
{
    auto &counter =
        obs::MetricsRegistry::instance().counter("serve.rejected");
    const std::uint64_t before = counter.value();
    counter.add(3);
    EXPECT_EQ(counter.value(), before + 3);
    auto snap = obs::MetricsRegistry::instance().snapshot();
    EXPECT_EQ(snap.counters.at("serve.rejected"), before + 3);
}

} // namespace
} // namespace diffy
