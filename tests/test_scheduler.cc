/**
 * @file
 * CellScheduler invariants — the one place that checks every cell
 * commits exactly one result: concurrent claimers, trace-affine claim
 * order, a duplicate losing and a duplicate winning, release ->
 * requeue -> failure at the attempt cap, journal-preloaded cells that
 * never re-fire progress, and lookahead that never names a claimed
 * cell.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "driver/costmodel.hh"
#include "driver/scheduler.hh"

using namespace stems;
using namespace stems::driver;

namespace {

/** A FIFO spec selecting cells 0..n-1 (n <= 75); scheduler tests
 *  never execute them. */
ExperimentSpec
specOf(size_t n)
{
    return parseSpec({"workloads=all",
                      "prefetchers=sms,ghb,stride,next-line,none",
                      "cells=0-" + std::to_string(n - 1)});
}

/** A result tagged with the lane copy that produced it. */
CellResult
tagged(const std::string &who)
{
    CellResult r;
    r.error = who;
    return r;
}

} // anonymous namespace

TEST(Scheduler, ConcurrentClaimersCommitEveryCellExactlyOnce)
{
    constexpr size_t kCells = 75;
    std::mutex mu;
    std::vector<size_t> progressDone;
    std::multiset<uint32_t> hooked;
    CellScheduler sched(
        specOf(kCells),
        [&](const CellResult &, size_t done, size_t total) {
            std::lock_guard<std::mutex> lk(mu);
            EXPECT_EQ(total, kCells);
            progressDone.push_back(done);
        },
        [&](const CellResult &r) {
            std::lock_guard<std::mutex> lk(mu);
            hooked.insert(r.cell.id);
        });

    std::atomic<size_t> claims{0};
    std::vector<std::thread> lanes;
    for (int t = 0; t < 8; ++t)
        lanes.emplace_back([&] {
            while (const auto c = sched.claim()) {
                ++claims;
                EXPECT_EQ(c->attempt, 1u);
                EXPECT_TRUE(sched.complete(*c, {}));
            }
        });
    for (auto &th : lanes)
        th.join();

    EXPECT_EQ(claims.load(), kCells);
    EXPECT_TRUE(sched.finished());
    EXPECT_EQ(sched.pending(), 0u);
    // progress fired once per cell, counting 1..N in order
    ASSERT_EQ(progressDone.size(), kCells);
    for (size_t i = 0; i < kCells; ++i)
        EXPECT_EQ(progressDone[i], i + 1);
    // the hook saw every cell once, and results land by index with the
    // scheduler's own cell (the local expansion is authoritative)
    EXPECT_EQ(hooked.size(), kCells);
    const auto results = sched.results();
    ASSERT_EQ(results.size(), kCells);
    for (size_t i = 0; i < kCells; ++i) {
        EXPECT_EQ(hooked.count(results[i].cell.id), 1u);
        EXPECT_EQ(results[i].cell.id, i);
        EXPECT_EQ(results[i].cell.workload, sched.cells()[i].workload);
    }
}

TEST(Scheduler, ClaimsFollowScheduleOrder)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse,graph", "prefetchers=none,ghb,sms",
         "schedule=cost"});
    CellScheduler sched(spec);
    std::vector<size_t> claimed;
    while (const auto c = sched.claim())
        claimed.push_back(c->cell);
    EXPECT_EQ(claimed, scheduleOrder(spec, sched.cells()));
    // LPT: the heaviest engine first, not expansion order
    EXPECT_EQ(sched.cells()[claimed.front()].engine.kind, "sms");
}

TEST(Scheduler, ClaimSpreadsLanesAcrossTraces)
{
    // specOf(10): cells 0-4 share one workload's trace, 5-9 the next
    CellScheduler sched(specOf(10));
    const auto a = sched.claim();
    const auto b = sched.claim();
    ASSERT_TRUE(a && b);
    EXPECT_EQ(a->cell, 0u);
    EXPECT_EQ(b->cell, 5u);
    EXPECT_NE(sched.cells()[a->cell].workload,
              sched.cells()[b->cell].workload);

    // the first trace is idle again: its next cell is the next claim
    EXPECT_TRUE(sched.complete(*a, {}));
    const auto c = sched.claim();
    ASSERT_TRUE(c);
    EXPECT_EQ(c->cell, 1u);
    EXPECT_EQ(sched.cells()[c->cell].workload,
              sched.cells()[a->cell].workload);
}

TEST(Scheduler, ClaimFallsBackToFrontWhenEveryTraceIsBusy)
{
    CellScheduler sched(specOf(10));
    std::vector<CellScheduler::Claim> c;
    for (int i = 0; i < 4; ++i) {
        const auto x = sched.claim();
        ASSERT_TRUE(x);
        c.push_back(*x);
    }
    // one cell per trace, then the front of schedule order
    EXPECT_EQ(c[0].cell, 0u);
    EXPECT_EQ(c[1].cell, 5u);
    EXPECT_EQ(c[2].cell, 1u);
    EXPECT_EQ(c[3].cell, 2u);

    // the second trace idles while the first still has two copies
    // running: its next cell jumps the queue
    EXPECT_TRUE(sched.complete(c[1], {}));
    EXPECT_TRUE(sched.complete(c[0], {}));
    const auto next = sched.claim();
    ASSERT_TRUE(next);
    EXPECT_EQ(next->cell, 6u);
}

TEST(Scheduler, TailStragglerDuplicateLosesOrWinsOnce)
{
    // five cells: three commit at once (the median round trip), two
    // stall past the floor and each gets exactly one duplicate
    size_t progressCalls = 0;
    CellScheduler sched(specOf(5),
                        [&](const CellResult &, size_t, size_t) {
                            ++progressCalls;
                        });
    std::vector<CellScheduler::Claim> first;
    while (const auto c = sched.claim(true))
        first.push_back(*c);
    ASSERT_EQ(first.size(), 5u);
    for (size_t i = 0; i < 3; ++i)
        ASSERT_TRUE(sched.complete(first[i], tagged("")));
    // still inside the floor: nothing to duplicate, and lanes that
    // cannot stall on their own never duplicate
    EXPECT_FALSE(sched.claim(true));
    std::this_thread::sleep_for(std::chrono::milliseconds(2100));
    EXPECT_FALSE(sched.claim(false));

    // the oldest straggler first, then the other, then none: at most
    // one duplicate per cell
    const auto dup3 = sched.claim(true);
    ASSERT_TRUE(dup3);
    EXPECT_EQ(dup3->cell, 3u);
    EXPECT_EQ(dup3->attempt, 2u);
    const auto dup4 = sched.claim(true);
    ASSERT_TRUE(dup4);
    EXPECT_EQ(dup4->cell, 4u);
    EXPECT_FALSE(sched.claim(true));

    // cell 3: the duplicate wins, the original's late result is dropped
    EXPECT_TRUE(sched.complete(*dup3, tagged("duplicate")));
    EXPECT_FALSE(sched.complete(first[3], tagged("original")));
    // cell 4: the original wins, the duplicate loses
    EXPECT_TRUE(sched.complete(first[4], tagged("original")));
    EXPECT_FALSE(sched.complete(*dup4, tagged("duplicate")));

    EXPECT_TRUE(sched.finished());
    EXPECT_EQ(progressCalls, 5u);
    const auto results = sched.results();
    EXPECT_EQ(results[3].error, "duplicate");
    EXPECT_EQ(results[4].error, "original");
}

TEST(Scheduler, ReleaseRequeuesThenFailsAtAttemptCap)
{
    std::vector<std::string> progressErrors;
    CellScheduler sched(specOf(2),
                        [&](const CellResult &r, size_t, size_t) {
                            progressErrors.push_back(r.error);
                        });
    const auto a1 = sched.claim();
    ASSERT_TRUE(a1);
    EXPECT_EQ(a1->cell, 0u);

    // attempt 1 lost: re-queued at the front, ahead of cell 1
    sched.release(*a1, "worker exited", 2);
    EXPECT_EQ(sched.pending(), 2u);
    const auto a2 = sched.claim();
    ASSERT_TRUE(a2);
    EXPECT_EQ(a2->cell, 0u);
    EXPECT_EQ(a2->attempt, 2u);

    // attempt 2 lost at the cap: committed as an error, not re-queued
    sched.release(*a2, "worker exited", 2);
    EXPECT_EQ(sched.pending(), 1u);
    ASSERT_EQ(progressErrors.size(), 1u);
    EXPECT_EQ(progressErrors[0],
              "dispatch: worker exited after 2 attempt(s)");

    // a late result for the failed cell cannot overwrite it
    EXPECT_FALSE(sched.complete(*a2, {}));

    const auto b = sched.claim();
    ASSERT_TRUE(b);
    EXPECT_EQ(b->cell, 1u);
    EXPECT_TRUE(sched.complete(*b, {}));
    EXPECT_TRUE(sched.finished());
    const auto results = sched.results();
    EXPECT_FALSE(results[0].error.empty());
    EXPECT_TRUE(results[1].error.empty());
}

TEST(Scheduler, ReleaseWhileTwinRunsKeepsTheCellInFlight)
{
    // three quick commits arm duplication; the straggler's original
    // copy is lost while its duplicate still runs — no requeue, and
    // the duplicate's result commits the cell
    CellScheduler sched(specOf(4));
    std::vector<CellScheduler::Claim> c;
    while (const auto x = sched.claim(true))
        c.push_back(*x);
    for (size_t i = 0; i < 3; ++i)
        ASSERT_TRUE(sched.complete(c[i], {}));
    std::this_thread::sleep_for(std::chrono::milliseconds(2100));
    const auto dup = sched.claim(true);
    ASSERT_TRUE(dup);
    sched.release(c[3], "worker exited", 1);
    EXPECT_EQ(sched.pending(), 0u);
    EXPECT_FALSE(sched.finished());
    EXPECT_TRUE(sched.complete(*dup, {}));
    EXPECT_TRUE(sched.finished());
}

TEST(Scheduler, PreloadedCellsNeverFireProgressOrTheHook)
{
    std::vector<uint32_t> progressIds;
    std::vector<uint32_t> hookIds;
    std::vector<size_t> progressDone;
    CellScheduler sched(
        specOf(4),
        [&](const CellResult &r, size_t done, size_t) {
            progressIds.push_back(r.cell.id);
            progressDone.push_back(done);
        },
        [&](const CellResult &r) { hookIds.push_back(r.cell.id); });

    std::map<uint32_t, CellResult> journal;
    journal[1].metrics.setWallMs(7);
    journal[3].metrics.setWallMs(9);
    journal[999] = {};  // an id outside this spec is ignored
    EXPECT_EQ(sched.preload(journal), 2u);
    EXPECT_EQ(sched.pending(), 2u);
    EXPECT_TRUE(progressIds.empty());
    EXPECT_TRUE(hookIds.empty());

    // only the un-journaled cells are claimable
    std::vector<size_t> claimed;
    while (const auto c = sched.claim()) {
        claimed.push_back(c->cell);
        EXPECT_TRUE(sched.complete(*c, {}));
    }
    EXPECT_EQ(claimed, (std::vector<size_t>{0, 2}));
    EXPECT_EQ(progressIds, (std::vector<uint32_t>{0, 2}));
    EXPECT_EQ(hookIds, (std::vector<uint32_t>{0, 2}));
    EXPECT_EQ(progressDone, (std::vector<size_t>{3, 4}));
    EXPECT_TRUE(sched.finished());
    const auto results = sched.results();
    EXPECT_EQ(results[1].cell.id, 1u);
    EXPECT_EQ(results[1].metrics.wallMs(), 7.0);
    EXPECT_EQ(results[3].metrics.wallMs(), 9.0);

    // everything journaled: finished before any claim
    CellScheduler all(specOf(2));
    std::map<uint32_t, CellResult> full;
    full[0] = {};
    full[1] = {};
    EXPECT_EQ(all.preload(full), 2u);
    EXPECT_TRUE(all.finished());
    EXPECT_FALSE(all.claim());
}

TEST(Scheduler, LookaheadNeverReturnsAClaimedCell)
{
    CellScheduler sched(specOf(6));
    std::set<size_t> claimed;
    std::set<size_t> hinted;
    auto look = [&] {
        for (size_t i : sched.lookahead()) {
            EXPECT_EQ(claimed.count(i), 0u) << "hinted claimed cell " << i;
            EXPECT_TRUE(hinted.insert(i).second) << "hinted twice " << i;
        }
    };

    look();  // the window before any claim: cells 0 and 1
    EXPECT_EQ(hinted, (std::set<size_t>{0, 1}));
    EXPECT_TRUE(sched.lookahead().empty());  // nothing new to name
    while (const auto c = sched.claim()) {
        claimed.insert(c->cell);
        look();
        EXPECT_LE(hinted.size(), claimed.size() + CellScheduler::kLookahead);
    }
    EXPECT_EQ(hinted.size(), 6u);

    // concurrent claimers and lookahead callers
    CellScheduler shared(specOf(75));
    std::vector<std::thread> lanes;
    std::atomic<bool> bad{false};
    for (int t = 0; t < 4; ++t)
        lanes.emplace_back([&] {
            while (const auto c = shared.claim()) {
                for (size_t i : shared.lookahead())
                    if (i == c->cell)
                        bad = true;
                shared.complete(*c, {});
            }
        });
    for (auto &th : lanes)
        th.join();
    EXPECT_FALSE(bad.load());
    EXPECT_TRUE(shared.finished());
}
