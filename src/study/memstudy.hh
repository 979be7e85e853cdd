/**
 * @file
 * Full-system trace study on the multiprocessor memory hierarchy:
 * drives a MemorySystem (with any prefetcher attached through the
 * attach seam) over the canonical interleave of a StreamSet and
 * collects the measurements behind Figures 4, 5 and 11 — per-level
 * miss rates, oracle opportunity at a set of region sizes,
 * access-density histograms, off-chip coverage, and the true/false
 * sharing split.
 */

#ifndef STEMS_STUDY_MEMSTUDY_HH
#define STEMS_STUDY_MEMSTUDY_HH

#include <array>
#include <cstdint>
#include <vector>

#include "mem/memsys.hh"
#include "prefetch/attach.hh"
#include "study/density.hh"
#include "trace/stream.hh"

namespace stems::study {

/**
 * The attach seam (see prefetch/attach.hh): driver::registryAttach
 * builds these, so runSystem — and sim::runTiming — host any
 * registered prefetcher through one factory.
 */
using AttachedPrefetcher = prefetch::AttachedPrefetcher;
using PfAttach = prefetch::PfAttach;

/** Configuration of one full-system run. */
struct SystemStudyConfig
{
    mem::MemSysConfig sys;
    /** Track oracle generations at these region sizes (L1 and L2). */
    std::vector<uint32_t> oracleRegionSizes;
    bool trackDensity = false;
    uint32_t densityRegionSize = 2048;
};

/** Everything a system run measures. */
struct SystemStudyResult
{
    uint64_t instructions = 0;
    uint64_t l1ReadAccesses = 0;
    uint64_t l1ReadMisses = 0;
    uint64_t l2ReadMisses = 0;   //!< off-chip read misses
    uint64_t l1Misses = 0;       //!< all demand L1 misses (incl writes)
    uint64_t l2Misses = 0;       //!< all demand off-chip misses
    uint64_t l1Covered = 0;      //!< reads hitting L1-prefetched blocks
    uint64_t l2Covered = 0;      //!< first uses of L2-prefetched blocks
    uint64_t l1Overpred = 0;
    uint64_t l2Overpred = 0;
    uint64_t trueSharing = 0;
    uint64_t falseSharing = 0;
    uint64_t readCohMisses = 0;
    uint64_t memWritebacks = 0;
    std::vector<uint64_t> oracleL1Gens;  //!< parallel to region sizes
    std::vector<uint64_t> oracleL2Gens;
    std::array<uint64_t, kDensityBuckets> l1Density{};
    std::array<uint64_t, kDensityBuckets> l2Density{};

    double
    l1MissesPerKilo() const
    {
        return instructions
                   ? 1000.0 * double(l1ReadMisses) / double(instructions)
                   : 0.0;
    }

    double
    l2MissesPerKilo() const
    {
        return instructions
                   ? 1000.0 * double(l2ReadMisses) / double(instructions)
                   : 0.0;
    }
};

/**
 * Drive the system from per-CPU streams in the canonical interleaved
 * order for workload seed @p seed (the order workloads::makeTrace
 * materialises), whatever backs @p set — vectors or an mmap'd spill
 * whose consumed pages are dropped behind the cursor.
 *
 * @param attach deploys a prefetcher onto the run's MemorySystem
 *               before the first reference (empty = none); the handle
 *               it returns is drained after the last reference,
 *               before harvest.
 */
SystemStudyResult runSystem(const trace::StreamSet &set,
                            const SystemStudyConfig &cfg, uint64_t seed,
                            const PfAttach &attach = {});

} // namespace stems::study

#endif // STEMS_STUDY_MEMSTUDY_HH
