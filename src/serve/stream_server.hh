/**
 * @file
 * Streaming inference server (DESIGN.md §13).
 *
 * The StreamServer turns the batch simulator into a long-lived
 * service: it owns N logical client streams, each a deterministic
 * FrameSequence plus the per-stream temporal-delta state
 * (core/temporal.hh), and admits frame-inference requests into
 * batches executed over a *persistent* worker pool.
 *
 * Why not a SweepScheduler per batch: SweepScheduler::run() is built
 * for one-shot grids — it spawns a fresh pool and clears every
 * registered thread cache at setup, on every batch. A serving loop
 * keeps its pool alive across batches (the weights live in the
 * process-wide WeightStore whichever thread runs a frame), and reuses
 * only the scheduler's determinism idioms:
 * preallocated result slots, reduction in admission order, per-job
 * exception capture.
 *
 * Stream state machine (per stream):
 *
 *     Anchored --delta frame--> Delta --K-th frame/format change--+
 *        ^                                                        |
 *        +--------------------------------------------------------+
 *
 * A request is one frame of one stream. The stream's frame clock
 * advances on every *offer* — a rejected frame is dropped, not
 * deferred, so the next admitted frame carries a wider temporal delta
 * (exactly what a real camera feed does under backpressure). Rejected
 * offers are counted per stream and in the `serve.rejected` obs
 * counter.
 *
 * Admission/backpressure: a bounded FIFO of admitted requests
 * (queueCapacity). runBatch() drains up to batchMax requests, never
 * two of the same stream — frame t+1 needs frame t's output as its
 * temporal reference, so per-stream execution is sequential while
 * distinct streams run concurrently.
 *
 * Determinism contract: every counter and stat visible on stdout is a
 * pure function of the offer/admission sequence — independent of
 * thread count and scheduling. Wall-clock latency goes only to the
 * obs registry (per-stream `serve.frame_seconds:s<k>` histograms,
 * `serve.batch_seconds`), never stdout. Failures inside a job are
 * classified through the sweep failure taxonomy into
 * `serve.errors.<kind>` counters and the stream's failed tally.
 */

#ifndef DIFFY_SERVE_STREAM_SERVER_HH
#define DIFFY_SERVE_STREAM_SERVER_HH

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "common/pool.hh"
#include "core/temporal.hh"
#include "image/sequence.hh"
#include "nn/executor.hh"
#include "runtime/resilience.hh"
#include "runtime/thread_pool.hh"

namespace diffy
{

/** Configuration of a StreamServer. */
struct ServeOptions
{
    /** Zoo model served to every stream. */
    std::string network = "MicroServe";
    ExecutorOptions exec;
    /** Logical client streams. */
    int streams = 4;
    /** Bound on admitted-but-unserved requests (all streams). */
    int queueCapacity = 8;
    /** Most requests drained into one batch. */
    int batchMax = 4;
    /** Worker threads; 0 resolves via DIFFY_THREADS (fallback 1). */
    int threads = 1;
    /** Temporal re-anchor interval (the DeltaD K knob); 0 = never. */
    int reanchorInterval = 16;
    /** Frame geometry of every stream. */
    int frameHeight = 32;
    int frameWidth = 32;
    /** Seed namespace: stream k's scene/motion derive from (seed, k). */
    std::uint64_t seed = 1;
    /** Camera model of every stream's sequence. */
    MotionKind motion = MotionKind::Pan;
    /** Camera excursion in pixels. */
    int amplitude = 4;
    /** Check every delta reconstruction against the per-frame oracle. */
    bool verifyOracle = false;

    /** @throws std::invalid_argument naming the offending knob. */
    void validate() const;
};

/** Deterministic per-stream accounting. */
struct StreamCounters
{
    std::uint64_t offered = 0;
    std::uint64_t admitted = 0;
    /** Offers dropped by backpressure (queue full). */
    std::uint64_t rejected = 0;
    /** Frames fully served (inference retired). */
    std::uint64_t served = 0;
    /** Frames whose job failed (classified, stream keeps going). */
    std::uint64_t failed = 0;
    /** Layer executions that took the anchor path. */
    std::uint64_t anchoredLayers = 0;
    /** Layer executions across all served frames. */
    std::uint64_t layers = 0;
    /** Work/footprint tallies summed over served frames. */
    std::uint64_t values = 0;
    std::uint64_t rawTerms = 0;
    std::uint64_t spatialTerms = 0;
    std::uint64_t temporalTerms = 0;
    std::uint64_t temporalSpatialTerms = 0;
    std::uint64_t codecBits = 0;
};

/** Aggregate view over all streams (index order, deterministic). */
struct ServeTotals
{
    StreamCounters sum;
    /** Per-kind failure counts, indexed by FailureKind cast. */
    std::vector<std::uint64_t> failuresByKind;
};

/** A long-lived multi-stream inference server. */
class StreamServer
{
  public:
    /** @throws std::invalid_argument via ServeOptions::validate(). */
    explicit StreamServer(const ServeOptions &opts);
    ~StreamServer();

    StreamServer(const StreamServer &) = delete;
    StreamServer &operator=(const StreamServer &) = delete;

    const ServeOptions &options() const { return opts_; }
    /** Resolved worker count (>= 1). */
    int threads() const { return threads_; }

    /**
     * Offer stream @p stream's next frame. The stream's frame clock
     * always advances; returns false (and counts the rejection) when
     * the admission queue is at capacity.
     */
    bool offer(int stream);

    /** Admitted requests not yet served. */
    std::size_t pending() const { return pending_.size(); }

    /**
     * Drain up to batchMax admitted requests — at most one per stream
     * — and execute them on the worker pool. Returns the number of
     * requests executed (0 when the queue is empty).
     */
    int runBatch();

    /** Run batches until the admission queue is empty. */
    void drainAll();

    /** Counters of stream @p stream. */
    const StreamCounters &counters(int stream) const;

    /** Sum over streams plus the failure-kind breakdown. */
    ServeTotals totals() const;

    /**
     * Declare warmup over: any later pool heap fetch counts into the
     * pool.allocs_steady_state gauge (the zero-allocation gate).
     */
    void markSteadyState() { buffers_.markSteadyState(); }

    /** The server-owned buffer pool (stats inspection). */
    const BufferPool &bufferPool() const { return buffers_; }

  private:
    struct Stream;
    struct Request
    {
        int stream = 0;
        std::int64_t frame = 0;
    };

    void serveOne(Stream &s, std::int64_t frame);

    ServeOptions opts_;
    int threads_ = 1;
    NetworkSpec net_;
    /**
     * Recycled frame buffers. Declared before streams_: each Stream
     * owns a FrameArena leasing slabs from this pool, and members
     * destroy in reverse order, so every arena dies first.
     */
    BufferPool buffers_;
    std::vector<std::unique_ptr<Stream>> streams_;
    std::deque<Request> pending_;
    std::unique_ptr<ThreadPool> pool_; ///< null when threads_ == 1
    std::vector<std::uint64_t> failuresByKind_;
};

} // namespace diffy

#endif // DIFFY_SERVE_STREAM_SERVER_HH
