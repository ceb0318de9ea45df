/**
 * @file
 * The serve-pan workload: a StreamServer running MicroServe on four
 * 64x64 panning streams (reanchor 16, queue cap 8, batch 4).
 *
 * Closed loop: every stream always has a frame offered; run_s is the
 * wall time of a 64-frame block on a fresh, warmed server.
 *
 * Open loop: every stream is a camera delivering rate/4 frames per
 * second, each frame at a seeded jitter within its period, whatever
 * the server is doing. Offers happen between batches on the driving
 * thread, so a frame's latency runs from its due time to the return of
 * the runBatch that served it: a stall is charged to every frame it
 * delays. How late the generator offered each frame is reported too.
 */

#include <algorithm>
#include <cmath>
#include <deque>
#include <thread>
#include <utility>

#include "common/cache_registry.hh"
#include "common/rng.hh"
#include "core/temporal.hh"
#include "harness.hh"
#include "image/sequence.hh"
#include "nn/executor.hh"
#include "nn/models.hh"
#include "runtime/sweep.hh"
#include "serve/stream_server.hh"

namespace perfbench
{

namespace
{

using namespace diffy;

constexpr int kStreams = 4;
constexpr int kClosedRounds = 16; // x 4 streams = one 64-frame block
// Warm-up: the anchor frame of every stream plus three delta frames, so
// both temporal paths have run on every worker before timing.
constexpr int kWarmupRounds = 4;
constexpr int kReplayFrames = 64;

ServeOptions
serveOptions(const Config &cfg, bool verifyOracle = false)
{
    ServeOptions o;
    o.network = "MicroServe";
    o.streams = kStreams;
    o.queueCapacity = 8;
    o.batchMax = 4;
    o.threads = cfg.threads;
    o.reanchorInterval = 16;
    o.frameHeight = 64;
    o.frameWidth = 64;
    o.seed = cfg.seed;
    o.motion = MotionKind::Pan;
    o.verifyOracle = verifyOracle;
    return o;
}

/** Offer one frame per stream and serve them: one closed-loop round. */
void
closedRound(StreamServer &server, std::int64_t id)
{
    for (int k = 0; k < kStreams; ++k)
        server.offer(k);
    obs::Span span(tracer(), "serve.run_batch", id);
    server.runBatch();
}

void
warmUp(StreamServer &server)
{
    for (int r = 0; r < kWarmupRounds; ++r)
        closedRound(server, -1);
}

std::uint64_t
doneFrames(const StreamServer &server, int k)
{
    const StreamCounters &c = server.counters(k);
    return c.served + c.failed;
}

/** Outcome of one open-loop phase. */
struct OpenLoop
{
    /** Per admitted frame: due time (s from start), latency (ms). */
    std::vector<double> dueS, latencyMs;
    /** Per offer: how late the generator made it (ms). */
    std::vector<double> lagMs;
    std::uint64_t offered = 0, rejected = 0, failed = 0, batches = 0,
                  batchFrames = 0;
    double depthSum = 0.0;
    /** Admitted requests still queued when the last frame fell due. */
    std::size_t endBacklog = 0;
    /** Stall window of the self-test (s from start), if any. */
    double stallBeginS = -1.0, stallEndS = -1.0;

    /** p-quantile latency; a rejected offer counts as infinitely late. */
    double latencyQuantile(double q) const
    {
        std::vector<double> all = latencyMs;
        all.insert(all.end(), rejected, INFINITY);
        return quantile(all, q);
    }
};

/**
 * Serve @p rate frames per second for @p seconds on a fresh, warmed
 * server. @p stallBatch >= 0 holds the return of that batch for
 * @p stallMs (the generator self-test).
 */
OpenLoop
openLoop(const Config &cfg, double rate, double seconds,
         std::int64_t stallBatch = -1, double stallMs = 0.0)
{
    StreamServer server(serveOptions(cfg));
    warmUp(server);
    const std::uint64_t warmFailed = server.totals().sum.failed;

    // The arrival schedule: (due time, stream), merged across cameras.
    Rng jitter(SweepScheduler::jobSeed(cfg.seed, 0xA1));
    const double period = kStreams / rate;
    std::vector<std::pair<double, int>> arrivals;
    for (int k = 0; k < kStreams; ++k)
        for (double slot = 0.0; slot < seconds; slot += period)
            arrivals.push_back({slot + jitter.uniform() * period, k});
    std::sort(arrivals.begin(), arrivals.end());
    const std::size_t total = arrivals.size();

    std::vector<std::deque<double>> due(kStreams);
    OpenLoop out;
    const Clock::time_point t0 = Clock::now();
    std::size_t next = 0;
    while (true) {
        const double now = secondsSince(t0);
        for (; next < total && arrivals[next].first <= now; ++next) {
            const auto [at, k] = arrivals[next];
            out.lagMs.push_back(1e3 * (secondsSince(t0) - at));
            ++out.offered;
            if (server.offer(k))
                due[static_cast<std::size_t>(k)].push_back(at);
            else
                ++out.rejected;
            if (next + 1 == total)
                out.endBacklog = server.pending();
        }
        if (server.pending() > 0) {
            std::uint64_t before[kStreams];
            for (int k = 0; k < kStreams; ++k)
                before[k] = doneFrames(server, k);
            out.depthSum += double(server.pending());
            {
                obs::Span span(tracer(), "serve.run_batch",
                               std::int64_t(out.batches));
                out.batchFrames += std::uint64_t(server.runBatch());
            }
            if (std::int64_t(out.batches) == stallBatch) {
                out.stallBeginS = secondsSince(t0);
                std::this_thread::sleep_for(
                    std::chrono::duration<double, std::milli>(stallMs));
                out.stallEndS = secondsSince(t0);
            }
            ++out.batches;
            const double back = secondsSince(t0);
            for (int k = 0; k < kStreams; ++k) {
                auto &q = due[static_cast<std::size_t>(k)];
                for (std::uint64_t n = doneFrames(server, k) - before[k];
                     n > 0 && !q.empty(); --n) {
                    out.dueS.push_back(q.front());
                    out.latencyMs.push_back(1e3 * (back - q.front()));
                    q.pop_front();
                }
            }
        } else if (next < total) {
            std::this_thread::sleep_until(
                t0 + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(arrivals[next].first)));
        } else {
            break;
        }
    }
    out.failed = server.totals().sum.failed - warmFailed;
    return out;
}

/** True when the rate meets the SLO: p99 under the limit, nothing
 *  rejected, and no more than one batch queued at the end. */
bool
meetsSlo(const Config &cfg, const OpenLoop &o)
{
    return o.rejected == 0 && o.failed == 0 &&
           o.latencyQuantile(0.99) < cfg.p99LimitMs &&
           o.endBacklog <= std::size_t(4);
}

/**
 * Highest ladder rate meeting the SLO (binary search; the ladder is
 * ascending and meeting the SLO is monotone in the rate).
 */
double
sloRate(const Config &cfg, double probeSeconds)
{
    double best = 0.0;
    std::size_t lo = 0, hi = cfg.ladderFps.size();
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        const double rate = cfg.ladderFps[mid];
        if (meetsSlo(cfg, openLoop(cfg, rate, probeSeconds))) {
            best = rate;
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    return best;
}

/**
 * Generator self-test: hold one batch for 250 ms and require that the
 * frames falling due during the stall are charged the wait from their
 * due time, while the frames served before it are not.
 */
void
stallSelfTest(const Config &cfg, Result &result)
{
    const double stallMs = 250.0;
    const OpenLoop o = openLoop(cfg, 40.0, 1.0, 8, stallMs);
    int during = 0;
    bool ok = o.stallBeginS > 0.0;
    for (std::size_t i = 0; i < o.dueS.size(); ++i) {
        if (o.dueS[i] >= o.stallBeginS && o.dueS[i] < o.stallEndS) {
            ++during;
            ok &= o.latencyMs[i] >= 1e3 * (o.stallEndS - o.dueS[i]) - 1.0;
        }
        if (o.dueS[i] < o.stallBeginS - 0.1) // served before the stall
            ok &= o.latencyMs[i] < stallMs;
    }
    if (!ok || during < 3)
        result.fail("open-loop self-test: a stalled batch was not charged "
                    "to the frames queued behind it");
}

/** Untimed oracle pass: a few frames with verifyOracle on. */
void
oracleCheck(const Config &cfg, Result &result)
{
    StreamServer server(serveOptions(cfg, true));
    for (int r = 0; r < 3; ++r)
        closedRound(server, r);
    const ServeTotals t = server.totals();
    if (t.sum.served != 3 * kStreams || t.sum.failed != 0)
        result.fail("serve-pan: verifyOracle pass failed " +
                    std::to_string(t.sum.failed) + " frames");
}

void
digestTotals(Digest &d, const ServeTotals &t)
{
    const StreamCounters &c = t.sum;
    for (std::uint64_t v :
         {c.offered, c.admitted, c.rejected, c.served, c.failed,
          c.anchoredLayers, c.layers, c.values, c.rawTerms, c.spatialTerms,
          c.temporalTerms, c.temporalSpatialTerms, c.codecBits})
        d.add(v);
}

/** Replay one stream's frames through the public per-frame calls. */
TemporalFrameStats
replayStream(const Config &cfg)
{
    SequenceParams p;
    p.scene.kind = SceneKind::Nature;
    p.scene.width = 64;
    p.scene.height = 64;
    p.scene.seed = SweepScheduler::jobSeed(cfg.seed, 0);
    p.motion = MotionKind::Pan;
    p.amplitude = 4;
    p.motionSeed = SweepScheduler::jobSeed(cfg.seed ^ 0xD1FF5EEDULL, 0);
    const FrameSequence seq(p);
    const NetworkSpec net = makeNetwork("MicroServe");
    TemporalNetState state;
    TemporalOptions topts;
    topts.reanchorInterval = 16;
    TemporalFrameStats sum;
    obs::Span run(tracer(), "bench.replay", 0);
    for (int t = 0; t < kReplayFrames; ++t) {
        Tensor3<float> rgb;
        {
            obs::Span span(tracer(), "image.render", t);
            rgb = seq.frame(t);
        }
        NetworkTrace trace;
        {
            obs::Span span(tracer(), "nn.run_network", t);
            trace = runNetwork(net, rgb);
        }
        obs::Span span(tracer(), "temporal.step", t);
        sum += temporalStep(state, trace, t, topts);
    }
    return sum;
}

} // namespace

Result
runServePan(const Config &cfg)
{
    Result result;
    oracleCheck(cfg, result);
    stallSelfTest(cfg, result);

    // Set-up: build a server and serve its warm-up rounds, five times.
    std::vector<double> setups;
    for (int i = 0; i < 5; ++i) {
        const Clock::time_point s0 = Clock::now();
        StreamServer server(serveOptions(cfg));
        warmUp(server);
        setups.push_back(secondsSince(s0));
    }
    result.metric("setup_s", median(setups), "s");

    std::string first;
    std::int64_t rep = 0;
    auto block = [&]() {
        clearRegisteredThreadCaches();
        resetObsRegistry();
        StreamServer server(serveOptions(cfg));
        warmUp(server);
        obs::Span run(tracer(), "bench.run", rep);
        const Clock::time_point t0 = Clock::now();
        for (int r = 0; r < kClosedRounds; ++r)
            closedRound(server, rep * 1000 + r);
        const double seconds = secondsSince(t0);
        ++rep;

        Digest d;
        const ServeTotals t = server.totals();
        digestTotals(d, t);
        if (first.empty())
            first = d.hex();
        const std::string &expect =
            cfg.expectDigest.empty() ? first : cfg.expectDigest;
        std::uint64_t bad = t.sum.failed;
        if (d.hex() != expect) {
            result.fail("digest " + d.hex() + " != expected " + expect);
            bad = t.sum.offered;
        }
        result.tally(t.sum.offered, bad);
        return seconds;
    };

    if (cfg.digestOnly) {
        block();
        result.digest = first;
        return result;
    }

    // Closed loop, then the fixed-rate open loop; a traced run gives
    // part of its budget to the SLO ladder and the temporal replay.
    const double closedShare = 0.3;
    TraceFiles traced(cfg.traceOut);
    std::vector<double> tracedTimes;
    const std::vector<double> times =
        repeat(cfg.seconds * closedShare, cfg.trace ? 4 : 3, 10000, block,
               cfg.trace ? &traced : nullptr, &tracedTimes);
    result.digest = first;

    const OpenLoop o = openLoop(cfg, cfg.rateFps,
                                cfg.seconds * (cfg.trace ? 0.3 : 0.7));
    result.tally(o.offered, o.rejected + o.failed);

    result.metric("run_s", median(times), "s");
    result.metric("p50_ms", o.latencyQuantile(0.50), "ms");
    result.metric("p95_ms", o.latencyQuantile(0.95), "ms");
    result.metric("peak_rss_mb", peakRssMb(), "MiB");
    if (cfg.trace) {
        result.metric("traced_run_s", median(tracedTimes), "s");
        result.metric("serve.batches", double(o.batches), "count");
        result.metric("serve.fps", kClosedRounds * kStreams / median(times),
                      "1/s");
        result.metric("serve.batch_fill",
                      double(o.batchFrames) / double(4 * o.batches), "ratio");
        result.metric("serve.queue_depth_mean",
                      o.depthSum / double(o.batches), "count");
        result.metric("serve.rejected", double(o.rejected), "count");
        result.metric("serve.offer_lag_p99_ms", quantile(o.lagMs, 0.99),
                      "ms");
        result.metric("serve.slo_fps",
                      sloRate(cfg, cfg.seconds * 0.25 / 4.0), "1/s");

        setTracing(traced.next());
        const TemporalFrameStats s = replayStream(cfg);
        setTracing(nullptr);
        result.metric("temporal.anchor_ratio",
                      double(s.anchored) / double(s.layerCount), "ratio");
        result.metric("temporal.term_ratio",
                      double(s.temporalTerms) / double(s.rawTerms), "ratio");
        result.metric("temporal.bits_per_value",
                      double(s.codecBits) / double(s.values), "bits");
        result.metric("nn.passes", kReplayFrames, "count");
    }
    return result;
}

} // namespace perfbench
