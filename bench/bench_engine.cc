/**
 * @file
 * Google-Benchmark harness over the engine's per-reference hot paths:
 * the full MemorySystem::access pipeline (with and without SMS), the
 * SMS train+predict path alone, and the complete sim::runTiming
 * two-phase model. Counters report per-reference time and refs/s so
 * runs are directly comparable with `stems bench` / BENCH_engine.json.
 *
 * Trace length scales with STEMS_REFS_PER_CPU / STEMS_SCALE like the
 * figure benches.
 */

#include <benchmark/benchmark.h>

#include "core/sms.hh"
#include "driver/registry.hh"
#include "mem/memsys.hh"
#include "sim/timing.hh"
#include "study/suite.hh"
#include "trace/interleaver.hh"
#include "workloads/workload.hh"

using namespace stems;

namespace {

constexpr uint32_t kNcpu = 4;
const char *kWorkload = "OLTP-DB2";

/** Per-CPU streams for the bench workload (generated once). */
const std::vector<trace::Trace> &
benchStreams()
{
    static const std::vector<trace::Trace> streams = [] {
        workloads::WorkloadParams p = study::defaultParams(20000);
        p.ncpu = kNcpu;
        return workloads::findWorkload(kWorkload)
            ->make()
            ->generateStreams(p);
    }();
    return streams;
}

/** The interleaved trace (materialised once for the access benches). */
const trace::Trace &
benchTrace()
{
    static const trace::Trace t =
        trace::canonicalInterleaver(1).merge(benchStreams());
    return t;
}

void
reportRefRate(benchmark::State &state, uint64_t refs_per_iter)
{
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations() * refs_per_iter));
    state.counters["refs/s"] = benchmark::Counter(
        static_cast<double>(state.iterations() * refs_per_iter),
        benchmark::Counter::kIsRate);
}

void
BM_MemsysAccess(benchmark::State &state)
{
    const trace::Trace &t = benchTrace();
    for (auto _ : state) {
        mem::MemSysConfig cfg;
        cfg.ncpu = kNcpu;
        mem::MemorySystem sys(cfg);
        for (const auto &a : t)
            benchmark::DoNotOptimize(sys.access(a).level);
    }
    reportRefRate(state, t.size());
}
BENCHMARK(BM_MemsysAccess)->Unit(benchmark::kMillisecond);

void
BM_MemsysSmsAccess(benchmark::State &state)
{
    const trace::Trace &t = benchTrace();
    for (auto _ : state) {
        mem::MemSysConfig cfg;
        cfg.ncpu = kNcpu;
        mem::MemorySystem sys(cfg);
        core::SmsController sms(sys, core::SmsConfig{});
        for (const auto &a : t)
            benchmark::DoNotOptimize(sys.access(a).level);
    }
    reportRefRate(state, t.size());
}
BENCHMARK(BM_MemsysSmsAccess)->Unit(benchmark::kMillisecond);

void
BM_SmsTrainPredict(benchmark::State &state)
{
    const trace::Trace &t = benchTrace();
    uint64_t sink = 0;
    for (auto _ : state) {
        core::SmsUnit unit(0, core::SmsConfig{},
                           [&sink](uint32_t, uint64_t a, bool) {
                               sink += a;
                           });
        for (const auto &a : t)
            unit.onAccess(a.pc, a.addr);
    }
    benchmark::DoNotOptimize(sink);
    reportRefRate(state, t.size());
}
BENCHMARK(BM_SmsTrainPredict)->Unit(benchmark::kMillisecond);

void
BM_RunTiming(benchmark::State &state)
{
    const trace::StreamSet set = trace::StreamSet::borrowed(benchStreams());
    const trace::Trace &t = benchTrace();
    for (auto _ : state) {
        sim::TimingConfig cfg;
        cfg.sys.ncpu = kNcpu;
        std::unique_ptr<driver::PrefetcherDeployment> dep;
        prefetch::PfAttach attach;
        if (state.range(0) != 0)
            attach = driver::registryAttach("sms", dep);
        benchmark::DoNotOptimize(
            sim::runTiming(set, cfg, 1, attach).cycles);
    }
    reportRefRate(state, t.size());
}
BENCHMARK(BM_RunTiming)
    ->Arg(0)
    ->Arg(1)
    ->ArgName("sms")
    ->Unit(benchmark::kMillisecond);

} // anonymous namespace

BENCHMARK_MAIN();
