#include "study/memstudy.hh"

#include <memory>

#include "core/oracle.hh"
#include "trace/interleaver.hh"

namespace stems::study {

namespace {

/** Adapts a cache's departure stream onto an OracleTracker. */
class OracleListener : public mem::CacheListener
{
  public:
    explicit OracleListener(const core::RegionGeometry &geom)
        : tracker(geom)
    {}

    void evicted(uint64_t addr, bool, bool) override
    {
        tracker.onBlockRemoved(addr);
    }

    void invalidated(uint64_t addr, bool) override
    {
        tracker.onBlockRemoved(addr);
    }

    core::OracleTracker tracker;
};

} // anonymous namespace

SystemStudyResult
runSystem(const trace::StreamSet &set, const SystemStudyConfig &cfg,
          uint64_t seed, const PfAttach &attach)
{
    SystemStudyResult res;
    mem::MemorySystem sys(cfg.sys);
    const uint32_t ncpu = cfg.sys.ncpu;

    AttachedPrefetcher *pf = attach ? attach(sys) : nullptr;

    // oracle trackers, one per (cpu, level, region size)
    const size_t nsizes = cfg.oracleRegionSizes.size();
    std::vector<std::unique_ptr<OracleListener>> oracleL1, oracleL2;
    for (size_t s = 0; s < nsizes; ++s) {
        core::RegionGeometry geom(cfg.oracleRegionSizes[s],
                                  cfg.sys.l1.blockSize);
        for (uint32_t c = 0; c < ncpu; ++c) {
            oracleL1.push_back(std::make_unique<OracleListener>(geom));
            sys.addL1Listener(c, oracleL1.back().get());
            oracleL2.push_back(std::make_unique<OracleListener>(geom));
            sys.addL2Listener(c, oracleL2.back().get());
        }
    }
    auto l1OracleAt = [&](size_t s, uint32_t c) -> OracleListener & {
        return *oracleL1[s * ncpu + c];
    };
    auto l2OracleAt = [&](size_t s, uint32_t c) -> OracleListener & {
        return *oracleL2[s * ncpu + c];
    };

    // density trackers
    std::vector<std::unique_ptr<DensityTracker>> densL1, densL2;
    if (cfg.trackDensity) {
        core::RegionGeometry geom(cfg.densityRegionSize,
                                  cfg.sys.l1.blockSize);
        for (uint32_t c = 0; c < ncpu; ++c) {
            densL1.push_back(std::make_unique<DensityTracker>(geom));
            sys.addL1Listener(c, densL1.back().get());
            densL2.push_back(std::make_unique<DensityTracker>(geom));
            sys.addL2Listener(c, densL2.back().get());
        }
    }

    trace::canonicalView(set, seed).forEach([&](const trace::MemAccess &a) {
        res.instructions += a.ninst + 1;
        mem::AccessOutcome out = sys.access(a);

        if (!a.isWrite) {
            if (out.l1PrefetchHit)
                ++res.l1Covered;
            if (out.l2PrefetchHit)
                ++res.l2Covered;
        }

        const bool l1_miss = out.level != mem::HitLevel::L1;
        for (size_t s = 0; s < nsizes; ++s) {
            l1OracleAt(s, a.cpu).tracker.onAccess(a.addr);
            if (l1_miss)
                l2OracleAt(s, a.cpu).tracker.onAccess(a.addr);
        }
        if (l1_miss)
            ++res.l1Misses;
        const bool offchip = out.level == mem::HitLevel::Remote ||
            out.level == mem::HitLevel::Memory;
        if (offchip)
            ++res.l2Misses;
        if (cfg.trackDensity) {
            // Figure 5 histograms *misses* per generation density
            if (l1_miss)
                densL1[a.cpu]->onAccess(a.addr);
            if (offchip)
                densL2[a.cpu]->onAccess(a.addr);
        }
    });

    if (pf)
        pf->drain();

    // harvest
    res.l1ReadAccesses = sys.l1ReadAccesses();
    res.l1ReadMisses = sys.l1ReadMisses();
    res.l2ReadMisses = sys.l2ReadMisses();
    for (uint32_t c = 0; c < ncpu; ++c) {
        res.l1Overpred += sys.l1(c).stats().prefetchUnused;
        res.l2Overpred += sys.l2(c).stats().prefetchUnused;
    }
    const mem::DirectoryStats &ds = sys.directory().finalize();
    res.trueSharing = ds.trueSharing;
    res.falseSharing = ds.falseSharing;
    res.readCohMisses = ds.readCohMisses;
    res.memWritebacks = sys.memoryWritebacks();

    res.oracleL1Gens.assign(nsizes, 0);
    res.oracleL2Gens.assign(nsizes, 0);
    for (size_t s = 0; s < nsizes; ++s) {
        for (uint32_t c = 0; c < ncpu; ++c) {
            res.oracleL1Gens[s] += l1OracleAt(s, c).tracker.generations();
            res.oracleL2Gens[s] += l2OracleAt(s, c).tracker.generations();
        }
    }
    if (cfg.trackDensity) {
        for (uint32_t c = 0; c < ncpu; ++c) {
            densL1[c]->finalize();
            densL2[c]->finalize();
            for (size_t b = 0; b < kDensityBuckets; ++b) {
                res.l1Density[b] += densL1[c]->accessHist()[b];
                res.l2Density[b] += densL2[c]->accessHist()[b];
            }
        }
    }
    return res;
}

} // namespace stems::study
