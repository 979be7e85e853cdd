/**
 * @file
 * The thread-pooled runner: expands an experiment spec into cells and
 * executes them on N threads, each looping claim -> execute ->
 * complete against a CellScheduler, through one shared CellExecutor
 * (each cell owns its MemorySystem — runs are embarrassingly
 * parallel). With stream=1 the threads feed the scheduler's lookahead
 * to a TracePrefetcher, so the next cells' traces are prepared while
 * the current ones simulate. Multi-process execution of the same
 * cells lives in dispatch/coordinator.hh; both share the executor, so
 * results are identical regardless of where a cell ran.
 */

#ifndef STEMS_DRIVER_RUNNER_HH
#define STEMS_DRIVER_RUNNER_HH

#include <vector>

#include "driver/executor.hh"
#include "driver/scheduler.hh"
#include "driver/spec.hh"

namespace stems::driver {

/** Executes an experiment spec's cells across a thread pool. */
class Runner
{
  public:
    explicit Runner(const ExperimentSpec &spec);

    /** Run all cells; results ordered by cell id. */
    std::vector<CellResult> run(const ProgressFn &progress = {});

    /** Drive @p sched's pending cells to completion on this pool. */
    void run(CellScheduler &sched);

    /** The expanded (and cells=-filtered) cells, fixed at construction. */
    const std::vector<RunCell> &cells() const { return cells_; }

  private:
    ExperimentSpec spec;
    std::vector<RunCell> cells_;
    CellExecutor executor_;
};

} // namespace stems::driver

#endif // STEMS_DRIVER_RUNNER_HH
