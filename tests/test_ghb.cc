/** @file GHB PC/DC prefetcher tests (Nesbit & Smith variant). */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "prefetch/ghb.hh"
#include "trace/rng.hh"
#include "util/bits.hh"

using namespace stems::prefetch;
using stems::isPow2;
using stems::log2i;
using stems::mem::HitLevel;

namespace {

ObservedAccess
miss(uint64_t pc, uint64_t addr, HitLevel lvl = HitLevel::Memory)
{
    ObservedAccess a;
    a.pc = pc;
    a.addr = addr;
    a.level = lvl;
    return a;
}

/**
 * The two-pass GHB PC/DC walk this engine replaced, kept as an oracle:
 * walk the whole chain into a scratch vector, difference it into an
 * oldest-first deltas vector, then scan that backwards for the most
 * recent earlier (d1, d2) pair. observe() is the former
 * GhbPcDc::observe verbatim.
 */
class ReferenceGhb
{
  public:
    explicit ReferenceGhb(const GhbConfig &config) : cfg(config)
    {
        buffer.resize(cfg.ghbEntries);
        indexTable.resize(cfg.itEntries);
        walkScratch.reserve(cfg.maxWalk);
    }

    void
    observe(const ObservedAccess &a, std::vector<uint64_t> &out)
    {
        // GHB-PC/DC trains on the L2 access stream: L1 misses only
        if (!a.l1Miss())
            return;
        ++stats_.triggers;

        const uint32_t shift = log2i(cfg.blockSize);
        const uint64_t blk = a.addr >> shift;

        // insert the new entry, linking to this PC's previous miss
        ItEntry &it = indexTable[a.pc % cfg.itEntries];
        uint64_t prev = 0;
        bool has_prev = false;
        if (it.valid && it.pc == a.pc && inWindow(it.head)) {
            prev = it.head;
            has_prev = true;
        }
        const uint64_t seq = head++;
        GhbEntry &e = buffer[seq % cfg.ghbEntries];
        e.blockAddr = blk;
        e.link = prev;
        e.hasLink = has_prev;
        it.pc = a.pc;
        it.head = seq;
        it.valid = true;

        // walk this PC's chain, newest -> oldest
        walkScratch.clear();
        uint64_t cur = seq;
        while (walkScratch.size() < cfg.maxWalk) {
            const GhbEntry &g = buffer[cur % cfg.ghbEntries];
            walkScratch.push_back(g.blockAddr);
            if (!g.hasLink || !inWindow(g.link))
                break;
            // guard against a stale link overwritten by wrap-around
            cur = g.link;
        }
        if (walkScratch.size() < 3)
            return;
        ++stats_.walks;

        // deltas oldest -> newest: d[i] = addr[i+1] - addr[i]
        const size_t n = walkScratch.size();
        std::vector<int64_t> deltas(n - 1);
        for (size_t i = 0; i + 1 < n; ++i) {
            // walkScratch is newest-first; reverse while differencing
            deltas[n - 2 - i] = static_cast<int64_t>(walkScratch[i]) -
                static_cast<int64_t>(walkScratch[i + 1]);
        }

        // correlate on the most recent delta pair
        if (deltas.size() < 2)
            return;
        const int64_t d1 = deltas[deltas.size() - 2];
        const int64_t d2 = deltas[deltas.size() - 1];

        // find the most recent earlier occurrence of (d1, d2); pairs may
        // overlap the current context by one delta (constant strides)
        size_t match = SIZE_MAX;
        for (size_t j = deltas.size() - 1; j-- > 1;) {
            if (deltas[j - 1] == d1 && deltas[j] == d2) {
                match = j;
                break;
            }
        }
        if (match == SIZE_MAX)
            return;
        ++stats_.correlations;

        // the deltas between the match and the present form one period
        // of the pattern; replay them (cyclically) ahead of the miss
        const size_t period = deltas.size() - 1 - match;
        uint64_t addr = blk;
        for (uint32_t k = 0; k < cfg.degree; ++k) {
            addr = static_cast<uint64_t>(static_cast<int64_t>(addr) +
                                         deltas[match + 1 + (k % period)]);
            out.push_back(addr << shift);
            ++stats_.issued;
        }
    }

    const GhbStats &stats() const { return stats_; }

  private:
    struct GhbEntry
    {
        uint64_t blockAddr = 0;
        uint64_t link = 0;
        bool hasLink = false;
    };

    struct ItEntry
    {
        uint64_t pc = 0;
        uint64_t head = 0;
        bool valid = false;
    };

    bool
    inWindow(uint64_t seq) const
    {
        return seq < head && head - seq <= cfg.ghbEntries;
    }

    GhbConfig cfg;
    std::vector<GhbEntry> buffer;
    std::vector<ItEntry> indexTable;
    uint64_t head = 0;
    std::vector<uint64_t> walkScratch;
    GhbStats stats_;
};

/** A seeded miss stream of @p n accesses; one in 16 is an L1 hit. */
std::vector<ObservedAccess>
missStream(const std::string &kind, uint64_t seed, size_t n)
{
    stems::trace::Rng rng(seed);
    std::vector<ObservedAccess> s;
    std::vector<uint64_t> next(8, 0);
    std::vector<size_t> steps(next.size(), 0);
    size_t pcIdx = 0;
    for (size_t i = 0; i < n; ++i) {
        // runs from one PC keep chains forming when PCs share a slot
        if (rng.below(4) == 0)
            pcIdx = rng.below(next.size());
        // PCs 1024 apart alias one index-table slot at every size
        const uint64_t pc = kind == "alias" ? 0x400 + pcIdx * 1024
                                            : 0x10 + pcIdx * 4;
        uint64_t &blk = next[pcIdx];
        if (kind == "random") {
            blk = rng.below(1 << 20);
        } else if (kind == "strided") {
            blk += pcIdx + 1 + (rng.below(32) == 0 ? rng.below(7) : 0);
        } else {
            // period-k delta patterns (k = pcIdx % 5 + 1), mixed signs,
            // with rare noise to break and re-form the pattern
            static const int64_t pattern[] = {3, -1, 7, 2, -5};
            const size_t k = pcIdx % 5 + 1;
            const int64_t d = rng.below(64) == 0
                ? static_cast<int64_t>(rng.below(100)) - 50
                : pattern[steps[pcIdx]++ % k];
            blk = static_cast<uint64_t>(static_cast<int64_t>(blk) + d) &
                ((uint64_t(1) << 40) - 1);
        }
        s.push_back(miss(pc, blk * 64 + rng.below(64),
                         rng.below(16) == 0 ? HitLevel::L1
                                            : HitLevel::Memory));
    }
    return s;
}

} // anonymous namespace

TEST(Ghb, IgnoresL1Hits)
{
    GhbPcDc ghb(GhbConfig{});
    std::vector<uint64_t> out;
    for (int i = 0; i < 10; ++i)
        ghb.observe(miss(0x1, i * 64, HitLevel::L1), out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(ghb.stats().triggers, 0u);
}

TEST(Ghb, DetectsConstantStride)
{
    GhbConfig cfg;
    cfg.degree = 4;
    GhbPcDc ghb(cfg);
    std::vector<uint64_t> out;
    // constant 256 B stride from one PC
    for (int i = 0; i < 6; ++i) {
        out.clear();
        ghb.observe(miss(0x42, 0x10000 + uint64_t(i) * 256), out);
    }
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 0x10000u + 5 * 256 + 256);
    EXPECT_EQ(out[1], 0x10000u + 5 * 256 + 512);
}

TEST(Ghb, DetectsRepeatingDeltaPattern)
{
    // deltas (in blocks): +1, +3, +1, +3, ... a period-2 pattern
    GhbConfig cfg;
    cfg.degree = 2;
    GhbPcDc ghb(cfg);
    std::vector<uint64_t> out;
    uint64_t addr = 0x20000;
    const int deltas[] = {1, 3, 1, 3, 1, 3, 1};
    ghb.observe(miss(0x7, addr), out);
    for (int d : deltas) {
        addr += uint64_t(d) * 64;
        out.clear();
        ghb.observe(miss(0x7, addr), out);
    }
    // last deltas (3,1)... the pair recurs; predictions follow pattern
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], addr + 3 * 64);
    EXPECT_EQ(out[1], addr + 3 * 64 + 1 * 64);
}

TEST(Ghb, SeparatePcChainsDoNotInterfere)
{
    GhbPcDc ghb(GhbConfig{});
    std::vector<uint64_t> out;
    // interleave two streams with different PCs and strides
    for (int i = 0; i < 8; ++i) {
        out.clear();
        ghb.observe(miss(0x1, 0x100000 + uint64_t(i) * 128), out);
        if (i >= 3) {
            EXPECT_FALSE(out.empty()) << "pc1 stride undetected";
        }
        out.clear();
        ghb.observe(miss(0x2, 0x900000 + uint64_t(i) * 512), out);
        if (i >= 3) {
            EXPECT_FALSE(out.empty()) << "pc2 stride undetected";
        }
    }
}

TEST(Ghb, InterleavedIrregularStreamsDefeatIt)
{
    // the paper's Section 4.6 argument: interleaving two *irregular*
    // sequences under one PC breaks delta correlation
    GhbPcDc ghb(GhbConfig{});
    std::vector<uint64_t> out;
    stems::trace::Rng rng(3);
    size_t predictions = 0;
    for (int i = 0; i < 200; ++i) {
        out.clear();
        ghb.observe(miss(0x5, (rng.below(1 << 20)) * 64), out);
        predictions += out.size();
    }
    // random deltas should rarely correlate
    EXPECT_LT(predictions, 100u);
}

TEST(Ghb, CapacityBoundsHistory)
{
    GhbConfig cfg;
    cfg.ghbEntries = 8;
    GhbPcDc ghb(cfg);
    std::vector<uint64_t> out;
    // build a long stride history, then flush the buffer with another
    // PC; the stride chain is gone
    for (int i = 0; i < 6; ++i)
        ghb.observe(miss(0x1, 0x10000 + uint64_t(i) * 256), out);
    for (int i = 0; i < 8; ++i)
        ghb.observe(miss(0x2, 0x500000 + uint64_t(i) * 0x10000), out);
    out.clear();
    ghb.observe(miss(0x1, 0x10000 + 6 * 256), out);
    EXPECT_TRUE(out.empty()) << "stale chain must not survive wrap";
}

TEST(Ghb, StatsProgress)
{
    GhbPcDc ghb(GhbConfig{});
    std::vector<uint64_t> out;
    for (int i = 0; i < 6; ++i)
        ghb.observe(miss(0x1, 0x1000 + uint64_t(i) * 64), out);
    EXPECT_EQ(ghb.stats().triggers, 6u);
    EXPECT_GT(ghb.stats().walks, 0u);
    EXPECT_GT(ghb.stats().correlations, 0u);
    EXPECT_GT(ghb.stats().issued, 0u);
}

TEST(Ghb, RejectsZeroSizes)
{
    GhbConfig cfg;
    cfg.ghbEntries = 0;
    EXPECT_THROW(GhbPcDc{cfg}, std::invalid_argument);
}

TEST(Ghb, RejectsNonPow2Sizes)
{
    GhbConfig ghbSize;
    ghbSize.ghbEntries = 1000;
    EXPECT_THROW(GhbPcDc{ghbSize}, std::invalid_argument);
    GhbConfig itSize;
    itSize.itEntries = 3;
    EXPECT_THROW(GhbPcDc{itSize}, std::invalid_argument);
    GhbConfig smallest;
    smallest.ghbEntries = 1;
    smallest.itEntries = 1;
    EXPECT_NO_THROW(GhbPcDc{smallest});
}

TEST(Ghb, MatchesReferenceWalk)
{
    const char *kinds[] = {"random", "strided", "period", "alias"};
    std::vector<std::vector<ObservedAccess>> streams;
    for (size_t i = 0; i < 4; ++i)
        streams.push_back(missStream(kinds[i], 11 + i, 3000));

    for (uint32_t ghbEntries : {8u, 256u, 16384u})
        for (uint32_t itEntries : {1u, 256u, 1024u})
            for (uint32_t maxWalk : {0u, 1u, 3u, 4u, 5u, 64u})
                for (uint32_t degree = 1; degree <= 4; ++degree)
                    for (size_t k = 0; k < streams.size(); ++k) {
                        GhbConfig cfg;
                        cfg.ghbEntries = ghbEntries;
                        cfg.itEntries = itEntries;
                        cfg.maxWalk = maxWalk;
                        cfg.degree = degree;
                        SCOPED_TRACE(std::string(kinds[k]) + " ghb=" +
                                     std::to_string(ghbEntries) + " it=" +
                                     std::to_string(itEntries) + " walk=" +
                                     std::to_string(maxWalk) + " degree=" +
                                     std::to_string(degree));
                        GhbPcDc ghb(cfg);
                        ReferenceGhb ref(cfg);
                        std::vector<uint64_t> got;
                        std::vector<uint64_t> want;
                        for (size_t i = 0; i < streams[k].size(); ++i) {
                            got.clear();
                            want.clear();
                            ghb.observe(streams[k][i], got);
                            ref.observe(streams[k][i], want);
                            ASSERT_EQ(got, want) << "access " << i;
                        }
                        const GhbStats &a = ghb.stats();
                        const GhbStats &b = ref.stats();
                        EXPECT_EQ(a.triggers, b.triggers);
                        EXPECT_EQ(a.walks, b.walks);
                        EXPECT_EQ(a.correlations, b.correlations);
                        EXPECT_EQ(a.issued, b.issued);
                        // the patterned streams exercise the match
                        if (maxWalk >= 5 && k != 0) {
                            EXPECT_GT(b.correlations, 0u);
                        }
                    }
}
