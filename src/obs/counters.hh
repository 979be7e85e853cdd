/**
 * @file
 * Process-wide named counters for engine observability: TraceCache
 * hits/misses, baseline/timing memo hits/misses, dispatch retries and
 * re-queues, wire bytes. Counting is always on (one relaxed atomic
 * increment at per-cell or per-memo granularity — never per memory
 * reference), and the registry is only *read* when a telemetry sink
 * was requested, so default runs pay nothing observable.
 *
 * Counter values are deterministic across thread counts: every
 * counted event is tied to a memoization slot (std::call_once) or a
 * protocol action, not to scheduling order.
 */

#ifndef STEMS_OBS_COUNTERS_HH
#define STEMS_OBS_COUNTERS_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace stems::obs {

/**
 * Every engine counter, declared once: X(member, "snapshot_name").
 * The Counters fields, reset() and snapshotCounters() (whose order is
 * the telemetry schema's) all expand from this list.
 */
#define STEMS_COUNTERS(X)                                             \
    X(traceCacheHits, "trace_cache_hits")                             \
    X(traceCacheMisses, "trace_cache_misses")                         \
    X(traceSpillReplays, "trace_spill_replays")                       \
    X(baselineMemoHits, "baseline_memo_hits")                         \
    X(baselineMemoMisses, "baseline_memo_misses")                     \
    X(timingMemoHits, "timing_memo_hits")                             \
    X(timingMemoMisses, "timing_memo_misses")                         \
    X(cellsExecuted, "cells_executed")                                \
    X(dispatchRetries, "dispatch_retries")                            \
    X(cellsRequeued, "cells_requeued")                                \
    X(workerRespawns, "worker_respawns")                              \
    X(wireBytesSent, "wire_bytes_sent")                               \
    X(wireBytesReceived, "wire_bytes_received")                       \
    /* fault tolerance: chaos injection, liveness, run durability */  \
    /* and straggler mitigation */                                    \
    X(faultsInjected, "faults_injected")                              \
    X(heartbeatsMissed, "heartbeats_missed")                          \
    X(journalCellsWritten, "journal_cells_written")                   \
    X(journalCellsReplayed, "journal_cells_replayed")                 \
    X(speculativeRedispatches, "speculative_redispatches")            \
    X(degradedCells, "degraded_cells")                                \
    /* streaming traces. Bytes mapped and spill replays stay */       \
    /* slot-tied (deterministic); prefetch-ahead and stream stalls */ \
    /* depend on scheduling and are only meaningful as rates. */      \
    X(traceBytesMapped, "trace_bytes_mapped")                         \
    X(tracePrefetchAhead, "trace_prefetch_ahead")                     \
    X(streamStalls, "stream_stalls")                                  \
    /* experiment service: admission-queue outcomes, warm-cache */    \
    /* reuse across requests and the socket control channel */        \
    X(serveRequestsAdmitted, "serve_requests_admitted")               \
    X(serveRequestsQueued, "serve_requests_queued")                   \
    X(serveRequestsRejected, "serve_requests_rejected")               \
    X(serveCacheWarmHits, "serve_cache_warm_hits")                    \
    X(socketBytesSent, "socket_bytes_sent")                           \
    X(socketBytesReceived, "socket_bytes_received")

/** The fixed set of engine counters. */
struct Counters
{
#define STEMS_COUNTER_FIELD(member, name) std::atomic<uint64_t> member{0};
    STEMS_COUNTERS(STEMS_COUNTER_FIELD)
#undef STEMS_COUNTER_FIELD

    static Counters &get();

    /** Zero every counter (tests only — not thread-safe vs counting). */
    void reset();

    void
    add(std::atomic<uint64_t> &c, uint64_t n = 1)
    {
        c.fetch_add(n, std::memory_order_relaxed);
    }
};

/** Shorthand: bump a counter on the process-wide registry. */
inline void
count(std::atomic<uint64_t> Counters::*member, uint64_t n = 1)
{
    (Counters::get().*member).fetch_add(n, std::memory_order_relaxed);
}

/**
 * Name → value snapshot in declaration order; zero-valued counters
 * included so the telemetry schema is stable run to run.
 */
std::vector<std::pair<std::string, uint64_t>> snapshotCounters();

/** Peak resident set size of this process in KB (getrusage). */
uint64_t peakRssKb();

} // namespace stems::obs

#endif // STEMS_OBS_COUNTERS_HH
