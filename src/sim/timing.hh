/**
 * @file
 * Trace-driven out-of-order timing model for the performance
 * experiments (Figures 12-13). A two-phase approach mirrors the
 * paper's methodology at reduced fidelity:
 *
 *  phase 1 — the interleaved trace runs through the coherent
 *  multiprocessor MemorySystem (with any attached prefetcher — see
 *  below) and each access is annotated with where it hit, including
 *  prefetched-into-L1/L2 provenance from the hierarchy's outcome
 *  bits;
 *
 *  phase 2 — each CPU's annotated stream is replayed through an
 *  analytic out-of-order core model: 8-wide dispatch/retire, a
 *  256-entry ROB bounding the overlap window, MSHR-limited
 *  memory-level parallelism, dependence distances serializing pointer
 *  chases, and a 64-entry store buffer that stalls retirement when
 *  full (the effect that gates Qry1). Head-of-ROB stall cycles are
 *  attributed to off-chip reads, on-chip reads, store-buffer-full, or
 *  other, producing the Figure 13 breakdown.
 *
 * The model is engine-agnostic: it hosts prefetchers through the
 * attach seam (prefetch::PfAttach), the same contract
 * study::runSystem uses, so every registry prefetcher — SMS, GHB
 * PC/DC, stride, next-line — gets a uIPC/speedup number. Prefetches
 * are priced uniformly from the annotation: a block streamed into L1
 * turns its read into an L1 hit; a block prefetched only to L2 turns
 * an off-chip read into an on-chip one; and a store that hits a block
 * any engine streamed read-only still pays a full
 * fetch-for-ownership round trip before the store buffer can drain
 * it (Section 4.7's Qry1 observation). No engine owns a privileged
 * code path.
 */

#ifndef STEMS_SIM_TIMING_HH
#define STEMS_SIM_TIMING_HH

#include <cstdint>
#include <vector>

#include "mem/memsys.hh"
#include "prefetch/attach.hh"
#include "sim/torus.hh"
#include "trace/access.hh"
#include "trace/stream.hh"

namespace stems::sim {

/** Core microarchitecture parameters (Table 1 values at 4 GHz). */
struct CoreConfig
{
    uint32_t width = 8;           //!< dispatch/retire width
    uint32_t robEntries = 256;
    uint32_t storeBuffer = 64;
    uint32_t mshrs = 32;
    uint32_t l1Latency = 2;       //!< load-to-use
    uint32_t l2Latency = 25;
    uint32_t memLatency = 240;    //!< 60 ns
    uint32_t hopLatency = 100;    //!< 25 ns per interconnect hop
    uint32_t upgradeLatency = 430;//!< write permission: directory
                                  //!< round-trip + invalidation acks
    double otherStallPerInstr = 0.08;  //!< branch/I-cache proxy
};

/** Time per activity category, in cycles (Figure 13's stack). */
struct TimeBreakdown
{
    double userBusy = 0;
    double systemBusy = 0;
    double offChipRead = 0;
    double onChipRead = 0;
    double storeBuffer = 0;
    double other = 0;

    double
    total() const
    {
        return userBusy + systemBusy + offChipRead + onChipRead +
            storeBuffer + other;
    }

    TimeBreakdown &
    operator+=(const TimeBreakdown &o)
    {
        userBusy += o.userBusy;
        systemBusy += o.systemBusy;
        offChipRead += o.offChipRead;
        onChipRead += o.onChipRead;
        storeBuffer += o.storeBuffer;
        other += o.other;
        return *this;
    }
};

/** Configuration of one timing run. */
struct TimingConfig
{
    CoreConfig core;
    mem::MemSysConfig sys;
};

/** Result of one timing run. */
struct TimingResult
{
    double cycles = 0;            //!< elapsed (max over CPUs)
    uint64_t userInstructions = 0;
    uint64_t systemInstructions = 0;
    TimeBreakdown breakdown;      //!< summed over CPUs

    /** Aggregate user IPC — the paper's performance metric. */
    double
    uipc() const
    {
        return cycles > 0 ? double(userInstructions) / cycles : 0.0;
    }
};

/**
 * Run the timing model over the canonical interleave of @p set for
 * workload seed @p seed — the fused annotate+retire pass, whatever
 * backs the set (StreamSet::borrowed covers in-memory vectors; a
 * mapped spill is consumed straight from the page cache).
 *
 * @param attach builds a prefetcher deployment onto the run's
 *               MemorySystem before the first reference (empty = no
 *               prefetcher). The returned handle is drained after the
 *               last reference, exactly as in study::runSystem.
 */
TimingResult runTiming(const trace::StreamSet &set,
                       const TimingConfig &cfg, uint64_t seed = 1,
                       const prefetch::PfAttach &attach = {});

} // namespace stems::sim

#endif // STEMS_SIM_TIMING_HH
