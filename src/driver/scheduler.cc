#include "driver/scheduler.hh"

#include <algorithm>
#include <tuple>

#include "driver/costmodel.hh"
#include "obs/counters.hh"
#include "obs/obs.hh"
#include "obs/sampler.hh"

namespace stems::driver {

namespace {

/** Minimum straggler round trip before a duplicate may be claimed. */
constexpr double kSpeculateFloorMs = 2000;

double
elapsedMs(uint64_t sinceNs, uint64_t nowNs)
{
    return static_cast<double>(nowNs - sinceNs) / 1e6;
}

} // anonymous namespace

CellScheduler::CellScheduler(const ExperimentSpec &spec,
                             ProgressFn progress, CommitHook onCommit)
    : cells_(selectedCells(spec)), progress_(std::move(progress)),
      onCommit_(std::move(onCommit)), slots_(cells_.size()),
      traceOf_(cells_.size()), results_(cells_.size())
{
    // the TraceCache key: cells sharing it share one trace and the
    // executor's memos built on it
    std::map<std::tuple<std::string, uint32_t, uint64_t, uint64_t>,
             uint32_t> traces;
    for (size_t i = 0; i < cells_.size(); ++i) {
        const RunCell &c = cells_[i];
        traceOf_[i] = traces.try_emplace(
            {c.workload, c.params.ncpu, c.params.refsPerCpu,
             c.params.seed},
            static_cast<uint32_t>(traces.size())).first->second;
    }
    tracesRunning_.assign(traces.size(), 0);
    for (size_t i : scheduleOrder(spec, cells_))
        pending_.push_back(i);
    obs::gaugeAdd(&obs::Gauges::cellsPending,
                  static_cast<int64_t>(pending_.size()));
}

CellScheduler::~CellScheduler()
{
    // an abandoned scheduler (service stop) leaves the gauge balanced
    obs::gaugeAdd(&obs::Gauges::cellsPending,
                  -static_cast<int64_t>(pending_.size()));
}

size_t
CellScheduler::preload(const std::map<uint32_t, CellResult> &replayed)
{
    size_t n = 0;
    {
        std::lock_guard<std::mutex> lk(mu);
        for (auto it = pending_.begin(); it != pending_.end();) {
            const auto jo = replayed.find(cells_[*it].id);
            if (jo == replayed.end()) {
                ++it;
                continue;
            }
            // the journal, like the wire, carries measurements only
            CellResult r;
            r.metrics = jo->second.metrics;
            r.telemetry = jo->second.telemetry;
            commitLocked(*it, std::move(r));
            it = pending_.erase(it);
            ++n;
        }
    }
    obs::gaugeAdd(&obs::Gauges::cellsPending, -static_cast<int64_t>(n));
    std::lock_guard<std::mutex> lk(reportMu);
    reported_ += n;
    return n;
}

std::vector<size_t>
CellScheduler::preferredLocked(size_t n) const
{
    // cells whose trace is idle first, then the rest, each group in
    // schedule order
    std::vector<size_t> pos;
    for (int busy = 0; busy < 2; ++busy)
        for (size_t k = 0; k < pending_.size() && pos.size() < n; ++k)
            if ((tracesRunning_[traceOf_[pending_[k]]] > 0) == busy)
                pos.push_back(k);
    return pos;
}

CellScheduler::Claim
CellScheduler::start(size_t cell)
{
    Slot &s = slots_[cell];
    ++s.attempts;
    ++s.running;
    ++tracesRunning_[traceOf_[cell]];
    s.startNs = obs::monotonicNs();
    obs::gaugeAdd(&obs::Gauges::workersBusy, 1);
    return Claim{cell, s.attempts, s.startNs};
}

void
CellScheduler::stop(const Claim &claim)
{
    --slots_[claim.cell].running;
    --tracesRunning_[traceOf_[claim.cell]];
    obs::gaugeAdd(&obs::Gauges::workersBusy, -1);
}

std::optional<CellScheduler::Claim>
CellScheduler::claim(bool duplicate)
{
    std::lock_guard<std::mutex> lk(mu);
    if (!pending_.empty()) {
        const auto at = pending_.begin() +
            static_cast<std::ptrdiff_t>(preferredLocked(1).front());
        const size_t cell = *at;
        pending_.erase(at);
        obs::gaugeAdd(&obs::Gauges::cellsPending, -1);
        return start(cell);
    }
    if (!duplicate || roundTripsMs_.size() < 3)
        return std::nullopt;

    // the straggler tail: duplicate the slowest in-flight cell once
    // its round trip exceeds 3x the median committed round trip
    std::vector<double> rtts = roundTripsMs_;
    std::nth_element(rtts.begin(), rtts.begin() + rtts.size() / 2,
                     rtts.end());
    double worstMs = std::max(3.0 * rtts[rtts.size() / 2],
                              kSpeculateFloorMs);
    const uint64_t now = obs::monotonicNs();
    std::optional<size_t> straggler;
    for (size_t i = 0; i < slots_.size(); ++i) {
        const Slot &s = slots_[i];
        if (s.running == 0 || s.committed || s.duplicated)
            continue;
        const double ms = elapsedMs(s.startNs, now);
        if (ms > worstMs) {
            worstMs = ms;
            straggler = i;
        }
    }
    if (!straggler)
        return std::nullopt;
    slots_[*straggler].duplicated = true;
    obs::count(&obs::Counters::speculativeRedispatches);
    obs::instant("speculative_redispatch",
                 {{"cell", std::to_string(cells_[*straggler].id)}});
    return start(*straggler);
}

bool
CellScheduler::commitLocked(size_t cell, CellResult &&result)
{
    Slot &s = slots_[cell];
    if (s.committed)
        return false;
    s.committed = true;
    // the local expansion is authoritative for the report
    result.cell = cells_[cell];
    results_[cell] = std::move(result);
    obs::gaugeAdd(&obs::Gauges::cellsDone, 1);
    return true;
}

void
CellScheduler::report(size_t cell)
{
    // committed slots are never rewritten, so results_[cell] is read
    // outside mu
    std::lock_guard<std::mutex> lk(reportMu);
    if (onCommit_)
        onCommit_(results_[cell]);
    ++reported_;
    if (progress_)
        progress_(results_[cell], reported_, cells_.size());
}

bool
CellScheduler::complete(const Claim &claim, CellResult result)
{
    {
        std::lock_guard<std::mutex> lk(mu);
        stop(claim);
        if (!commitLocked(claim.cell, std::move(result)))
            return false;
        roundTripsMs_.push_back(
            elapsedMs(claim.startNs, obs::monotonicNs()));
    }
    report(claim.cell);
    return true;
}

void
CellScheduler::release(const Claim &claim, const std::string &reason,
                       uint32_t maxAttempts)
{
    {
        std::lock_guard<std::mutex> lk(mu);
        stop(claim);
        const Slot &s = slots_[claim.cell];
        if (s.committed || s.running > 0)
            return;  // a twin delivered, or is still running
        if (s.attempts < std::max<uint32_t>(maxAttempts, 1)) {
            pending_.push_front(claim.cell);  // retry promptly
            obs::gaugeAdd(&obs::Gauges::cellsPending, 1);
            obs::count(&obs::Counters::cellsRequeued);
            obs::instant("cell_requeued",
                         {{"cell", std::to_string(cells_[claim.cell].id)}});
            return;
        }
        CellResult failed;
        failed.error = "dispatch: " + reason + " after " +
            std::to_string(s.attempts) + " attempt(s)";
        commitLocked(claim.cell, std::move(failed));
    }
    report(claim.cell);
}

std::vector<size_t>
CellScheduler::lookahead()
{
    std::lock_guard<std::mutex> lk(mu);
    std::vector<size_t> fresh;
    for (size_t k : preferredLocked(kLookahead)) {
        Slot &s = slots_[pending_[k]];
        if (!s.hinted) {
            s.hinted = true;
            fresh.push_back(pending_[k]);
        }
    }
    return fresh;
}

size_t
CellScheduler::pending() const
{
    std::lock_guard<std::mutex> lk(mu);
    return pending_.size();
}

bool
CellScheduler::finished() const
{
    std::lock_guard<std::mutex> lk(reportMu);
    return reported_ == cells_.size();
}

std::vector<CellResult>
CellScheduler::results()
{
    std::lock_guard<std::mutex> lk(mu);
    return std::move(results_);
}

// ---------------------------------------------------------------------
// trace prefetcher
// ---------------------------------------------------------------------

TracePrefetcher::TracePrefetcher() : thread([this] { run(); }) {}

TracePrefetcher::~TracePrefetcher()
{
    {
        std::lock_guard<std::mutex> lk(mu);
        stop = true;
    }
    cv.notify_all();
    thread.join();
}

void
TracePrefetcher::hint(CellExecutor &executor, RunCell cell)
{
    {
        std::lock_guard<std::mutex> lk(mu);
        if (queue.size() >= kCapacity)
            queue.pop_front();
        queue.emplace_back(&executor, std::move(cell));
    }
    cv.notify_one();
}

void
TracePrefetcher::run()
{
    obs::setThreadName("prefetch");
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
        cv.wait(lk, [this] { return stop || !queue.empty(); });
        if (stop)
            return;
        auto [executor, cell] = std::move(queue.front());
        queue.pop_front();
        lk.unlock();
        executor->prefetch(cell);
        lk.lock();
    }
}

} // namespace stems::driver
