#include "driver/runner.hh"

#include <algorithm>
#include <chrono>
#include <optional>
#include <thread>

#include "obs/counters.hh"
#include "obs/obs.hh"

namespace stems::driver {

Runner::Runner(const ExperimentSpec &spec)
    : spec(spec), cells_(selectedCells(spec)),
      executor_(executorConfig(spec))
{
}

std::vector<CellResult>
Runner::run(const ProgressFn &progress)
{
    CellScheduler sched(spec, progress);
    run(sched);
    return sched.results();
}

void
Runner::run(CellScheduler &sched)
{
    uint32_t nthreads = spec.threads;
    if (nthreads == 0) {
        nthreads = std::thread::hardware_concurrency();
        if (nthreads == 0)
            nthreads = 1;
    }
    nthreads = std::min<uint32_t>(
        nthreads, static_cast<uint32_t>(std::max<size_t>(
                      sched.pending(), 1)));

    std::optional<TracePrefetcher> prefetcher;
    if (spec.stream)
        prefetcher.emplace();
    const auto queuedAt = std::chrono::steady_clock::now();

    auto drainCells = [&] {
        while (const auto claim = sched.claim()) {
            const RunCell &cell = sched.cells()[claim->cell];
            if (prefetcher) {
                // a stall = the pool reached a cell the prefetcher had
                // not finished (or started) preparing — this thread
                // pays the generate/replay cost inline
                if (!executor_.prepared(cell))
                    obs::count(&obs::Counters::streamStalls);
                for (size_t i : sched.lookahead())
                    prefetcher->hint(executor_, sched.cells()[i]);
            }
            CellResult result;
            {
                // queue_ms: how long the cell sat behind earlier work
                // before a pool thread picked it up
                const double waitMs =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - queuedAt)
                        .count();
                obs::Span span("cell",
                               {{"workload", cell.workload},
                                {"engine", cell.engine.kind},
                                {"id", std::to_string(cell.id)},
                                {"queue_ms", std::to_string(waitMs)}});
                result = executor_.execute(cell);
            }
            sched.complete(*claim, std::move(result));
        }
    };

    if (nthreads <= 1) {
        drainCells();
    } else {
        std::vector<std::thread> pool;
        for (uint32_t k = 0; k < nthreads; ++k)
            pool.emplace_back([&, k] {
                obs::setThreadName("runner-" + std::to_string(k));
                drainCells();
            });
        for (auto &th : pool)
            th.join();
    }
}

} // namespace stems::driver
