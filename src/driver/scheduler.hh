/**
 * @file
 * CellScheduler: the one place that decides which cell runs next,
 * whose result counts, and which cells to warm ahead. Every sweep is
 * a set of independent cells, and every execution context drives the
 * same scheduler as a lane that loops claim -> execute -> complete:
 * driver::Runner's threads, dispatch::Coordinator's worker processes
 * (and its in-process fallback), and serve::ExperimentService's fleet
 * (one scheduler per request).
 *
 * The rules, all behind one mutex and none blocking:
 *  - claims are trace-affine: a claim takes the first pending cell,
 *    in the spec's scheduleOrder (FIFO, or LPT for schedule=cost),
 *    whose trace (workload, ncpu, refs, seed) has no copy in flight,
 *    or the front cell when every pending trace is busy, so lanes
 *    work on different workloads instead of waiting on one another
 *    to build the same CellExecutor memos;
 *  - the first result for a cell commits it; later copies are dropped;
 *  - a lost remote copy is re-queued at the front, or committed as an
 *    error once its attempts reach the caller's cap;
 *  - a lane that can stall on its own (a remote worker) may duplicate
 *    one tail straggler per cell once its round trip exceeds 3x the
 *    median committed round trip (with a floor);
 *  - lookahead() names each of the next kLookahead unclaimed cells,
 *    in claim preference order, once, so one TracePrefetcher can warm
 *    their traces.
 *
 * Results land by expansion index, so reports are byte-identical
 * whichever lanes produced them.
 */

#ifndef STEMS_DRIVER_SCHEDULER_HH
#define STEMS_DRIVER_SCHEDULER_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "driver/executor.hh"
#include "driver/spec.hh"

namespace stems::driver {

/** Called once per committed cell (serialized), with the number of
 *  committed cells so far and the total. */
using ProgressFn = std::function<void(const CellResult &, size_t done,
                                      size_t total)>;

class CellScheduler
{
  public:
    /** Unclaimed cells lookahead() keeps ahead of the claim cursor. */
    static constexpr size_t kLookahead = 2;

    /** A lane's hold on one copy of a cell. */
    struct Claim
    {
        size_t cell = 0;       //!< index into cells()
        uint32_t attempt = 1;  //!< 1-based; retries and duplicates count
        uint64_t startNs = 0;  //!< claim time (obs::monotonicNs)
    };

    /** Runs once per committed cell, before progress (journal append). */
    using CommitHook = std::function<void(const CellResult &)>;

    /** The spec's selected cells, pending in scheduleOrder. */
    explicit CellScheduler(const ExperimentSpec &spec,
                           ProgressFn progress = {},
                           CommitHook onCommit = {});
    ~CellScheduler();
    CellScheduler(const CellScheduler &) = delete;
    CellScheduler &operator=(const CellScheduler &) = delete;

    /**
     * Commit journal-replayed results (keyed by cell id) before any
     * claim. They fire neither progress nor the commit hook; the
     * cell's local expansion stays authoritative.
     * @return the number of cells preloaded
     */
    size_t preload(const std::map<uint32_t, CellResult> &replayed);

    /**
     * The first pending cell, in schedule order, whose trace has no
     * copy in flight (else the front pending cell); with @p duplicate
     * and nothing pending, a second copy of the worst tail straggler.
     * nullopt when there is nothing to run now.
     */
    std::optional<Claim> claim(bool duplicate = false);

    /**
     * Deliver a claim's result. The first result for a cell commits
     * it (firing the hook and progress outside the lock); a later
     * copy is dropped.
     * @return whether this result was committed
     */
    bool complete(const Claim &claim, CellResult result);

    /**
     * A remote lane lost its copy (crash, timeout, protocol error).
     * Unless the cell is committed or another copy still runs, it is
     * re-queued at the front, or committed as an error once it has
     * had @p maxAttempts attempts.
     */
    void release(const Claim &claim, const std::string &reason,
                 uint32_t maxAttempts);

    /** Unclaimed cells newly inside the lookahead window, each
     *  returned at most once. */
    std::vector<size_t> lookahead();

    /** Cells waiting for a claim. */
    size_t pending() const;

    /** Every cell committed and reported. */
    bool finished() const;

    const std::vector<RunCell> &cells() const { return cells_; }

    /** Move the results out (by expansion index) once finished(). */
    std::vector<CellResult> results();

  private:
    struct Slot
    {
        bool committed = false;
        bool duplicated = false;
        bool hinted = false;   //!< returned by lookahead()
        uint32_t attempts = 0;
        uint32_t running = 0;  //!< copies in flight
        uint64_t startNs = 0;  //!< latest claim of this cell
    };

    /** The first @p n pending positions in claim preference order. */
    std::vector<size_t> preferredLocked(size_t n) const;
    Claim start(size_t cell);
    void stop(const Claim &claim);
    bool commitLocked(size_t cell, CellResult &&result);
    void report(size_t cell);

    const std::vector<RunCell> cells_;
    const ProgressFn progress_;
    const CommitHook onCommit_;

    mutable std::mutex mu;
    std::deque<size_t> pending_;
    std::vector<Slot> slots_;
    std::vector<uint32_t> traceOf_;        //!< cell -> trace key
    std::vector<uint32_t> tracesRunning_;  //!< trace key -> copies in flight
    std::vector<CellResult> results_;  //!< a committed slot never changes
    std::vector<double> roundTripsMs_; //!< committed claims (median)

    mutable std::mutex reportMu;  //!< serializes hook + progress
    size_t reported_ = 0;
};

/**
 * One background thread that warms traces ahead of execution through
 * CellExecutor::prefetch, fed by lookahead hints. The queue keeps the
 * newest kCapacity hints; stale lookahead is worthless once the lanes
 * have moved on. prefetch() never counts a cache lookup and never
 * fails a cell, so results are identical with or without it.
 */
class TracePrefetcher
{
  public:
    static constexpr size_t kCapacity = 8;

    TracePrefetcher();
    /** Drops queued hints and joins (a prefetch in progress ends). */
    ~TracePrefetcher();
    TracePrefetcher(const TracePrefetcher &) = delete;
    TracePrefetcher &operator=(const TracePrefetcher &) = delete;

    /** Queue @p cell's trace; @p executor must outlive this object. */
    void hint(CellExecutor &executor, RunCell cell);

  private:
    void run();

    std::mutex mu;
    std::condition_variable cv;
    std::deque<std::pair<CellExecutor *, RunCell>> queue;
    bool stop = false;
    std::thread thread;
};

} // namespace stems::driver

#endif // STEMS_DRIVER_SCHEDULER_HH
