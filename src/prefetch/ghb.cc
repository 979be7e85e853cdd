#include "prefetch/ghb.hh"

#include <stdexcept>

#include "util/bits.hh"

namespace stems::prefetch {

GhbPcDc::GhbPcDc(const GhbConfig &config) : cfg(config)
{
    if (!isPow2(cfg.ghbEntries) || !isPow2(cfg.itEntries))
        throw std::invalid_argument(
            "GHB ghb-entries and it-entries must be nonzero pow2");
    if (!isPow2(cfg.blockSize))
        throw std::invalid_argument("GHB block size must be pow2");
    shift = log2i(cfg.blockSize);
    buffer.resize(cfg.ghbEntries);
    indexTable.resize(cfg.itEntries);
    deltas.resize(cfg.maxWalk);
}

void
GhbPcDc::observe(const ObservedAccess &a, std::vector<uint64_t> &out)
{
    // GHB-PC/DC trains on the L2 access stream: L1 misses only
    if (!a.l1Miss())
        return;
    ++stats_.triggers;

    const uint64_t blk = a.addr >> shift;

    // insert the new entry, linking to this PC's previous miss
    ItEntry &it = indexTable[a.pc & (cfg.itEntries - 1)];
    const uint64_t seq = head++;
    GhbEntry &e = buffer[seq & (cfg.ghbEntries - 1)];
    e.blockAddr = blk;
    e.link = it.pc == a.pc && inWindow(it.head) ? it.head : kNoLink;
    it.pc = a.pc;
    it.head = seq;

    // walk this PC's chain newest -> oldest in one pass, differencing
    // as we go: d[i] = addr[i] - addr[i+1]. The first m >= 1 with
    // (d[m], d[m+1]) == (d[0], d[1]) is the most recent earlier
    // occurrence of the current delta pair (pairs may overlap it by
    // one delta: constant strides); a link out of the window is stale
    size_t n = 1;  // chain entries visited
    size_t match = 0;
    uint64_t prev = blk;
    for (uint64_t link = e.link; n < cfg.maxWalk && inWindow(link);) {
        const GhbEntry &g = buffer[link & (cfg.ghbEntries - 1)];
        deltas[n - 1] = static_cast<int64_t>(prev) -
            static_cast<int64_t>(g.blockAddr);
        prev = g.blockAddr;
        link = g.link;
        if (++n >= 4 && deltas[n - 3] == deltas[0] &&
            deltas[n - 2] == deltas[1]) {
            match = n - 3;
            break;
        }
    }
    if (n < 3)
        return;
    ++stats_.walks;
    if (match == 0)
        return;
    ++stats_.correlations;

    // d[match-1] .. d[0] form one period of the pattern; replay them
    // (cyclically) ahead of the current miss
    uint64_t addr = blk;
    size_t i = match;
    for (uint32_t k = 0; k < cfg.degree; ++k) {
        i = (i == 0 ? match : i) - 1;
        addr = static_cast<uint64_t>(static_cast<int64_t>(addr) + deltas[i]);
        out.push_back(addr << shift);
    }
    stats_.issued += cfg.degree;
}

} // namespace stems::prefetch
