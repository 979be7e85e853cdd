#include "driver/registry.hh"

#include <stdexcept>

namespace stems::driver {

namespace {

// ---------------------------------------------------------------------
// deployments
// ---------------------------------------------------------------------

/** The "none" deployment: a baseline system with no prefetcher. */
class NoneDeployment : public PrefetcherDeployment
{
  public:
    NoneDeployment() : PrefetcherDeployment("none") {}
};

/** SMS via core::SmsController. */
class SmsDeployment : public PrefetcherDeployment
{
  public:
    SmsDeployment(mem::MemorySystem &sys, const Options &opts)
        : PrefetcherDeployment("sms"),
          ctrl(sys, smsConfigFromOptions(opts))
    {}

    void drain() override { ctrl.drainAll(); }

    Counters
    counters() const override
    {
        core::SmsStats s = ctrl.totalStats();
        return {{"triggers", s.triggers},
                {"pht_hits", s.phtHits},
                {"stream_requests", s.streamRequests},
                {"trained", s.trained}};
    }

  private:
    core::SmsController ctrl;
};

/** Any PrefetchAlgorithm via prefetch::PrefetchController. */
class AlgoDeployment : public PrefetcherDeployment
{
  public:
    AlgoDeployment(std::string name, mem::MemorySystem &sys,
                   const prefetch::PrefetchController::Factory &make)
        : PrefetcherDeployment(std::move(name)), ctrl(sys, make)
    {}

    Counters
    counters() const override
    {
        return {{"issued", ctrl.stats().issued}};
    }

  protected:
    prefetch::PrefetchController ctrl;
};

/** GHB PC/DC, with the algorithm's own counters exposed. */
class GhbDeployment : public AlgoDeployment
{
  public:
    GhbDeployment(mem::MemorySystem &sys, const Options &opts)
        : AlgoDeployment("ghb", sys,
                         [cfg = ghbConfigFromOptions(opts)] {
                             return std::make_unique<prefetch::GhbPcDc>(
                                 cfg);
                         }),
          ncpu(sys.numCpus())
    {
        for (uint32_t c = 0; c < ncpu; ++c)
            algos.push_back(
                static_cast<prefetch::GhbPcDc *>(&ctrl.algo(c)));
    }

    Counters
    counters() const override
    {
        prefetch::GhbStats sum;
        for (const auto *ghb : algos) {
            sum.triggers += ghb->stats().triggers;
            sum.walks += ghb->stats().walks;
            sum.correlations += ghb->stats().correlations;
            sum.issued += ghb->stats().issued;
        }
        return {{"triggers", sum.triggers},
                {"walks", sum.walks},
                {"correlations", sum.correlations},
                {"issued", sum.issued}};
    }

  private:
    uint32_t ncpu;
    std::vector<prefetch::GhbPcDc *> algos;
};

} // anonymous namespace

// ---------------------------------------------------------------------
// option translation
// ---------------------------------------------------------------------

core::SmsConfig
smsConfigFromOptions(const Options &o)
{
    core::SmsConfig cfg;
    cfg.geometry = core::RegionGeometry(optU32(o, "region", 2048),
                                        optU32(o, "block", 64));
    cfg.agt.filterEntries = optU32(o, "agt-filter", 32);
    cfg.agt.accumEntries = optU32(o, "agt-accum", 64);
    cfg.pht.entries = optU32(o, "pht-entries", 16384);
    cfg.pht.assoc = optU32(o, "pht-assoc", 16);

    const std::string update = optStr(o, "pht-update", "replace");
    if (update == "replace") {
        cfg.pht.update = core::PhtUpdateMode::Replace;
    } else if (update == "union") {
        cfg.pht.update = core::PhtUpdateMode::Union;
    } else {
        throw std::invalid_argument("pht-update=" + update +
                                    ": expected replace|union");
    }

    const std::string index = optStr(o, "index", "pc+off");
    if (index == "pc+off") {
        cfg.index = core::IndexKind::PcOffset;
    } else if (index == "pc") {
        cfg.index = core::IndexKind::Pc;
    } else if (index == "addr") {
        cfg.index = core::IndexKind::Address;
    } else if (index == "pc+addr") {
        cfg.index = core::IndexKind::PcAddress;
    } else {
        throw std::invalid_argument(
            "index=" + index + ": expected pc+off|pc|addr|pc+addr");
    }

    cfg.predictionRegisters = optU32(o, "pred-regs", 16);
    cfg.intoL1 = optBool(o, "into-l1", true);
    return cfg;
}

prefetch::GhbConfig
ghbConfigFromOptions(const Options &o)
{
    prefetch::GhbConfig cfg;
    cfg.ghbEntries = optU32(o, "ghb-entries", cfg.ghbEntries);
    cfg.itEntries = optU32(o, "it-entries", cfg.itEntries);
    cfg.degree = optU32(o, "degree", cfg.degree);
    cfg.maxWalk = optU32(o, "max-walk", cfg.maxWalk);
    cfg.blockSize = optU32(o, "block", cfg.blockSize);
    return cfg;
}

prefetch::StrideConfig
strideConfigFromOptions(const Options &o)
{
    prefetch::StrideConfig cfg;
    cfg.entries = optU32(o, "entries", cfg.entries);
    cfg.degree = optU32(o, "degree", cfg.degree);
    cfg.threshold = optU32(o, "threshold", cfg.threshold);
    cfg.blockSize = optU32(o, "block", cfg.blockSize);
    cfg.l1Destination = optBool(o, "into-l1", cfg.l1Destination);
    return cfg;
}

// ---------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------

PrefetcherRegistry &
PrefetcherRegistry::builtin()
{
    static PrefetcherRegistry reg = [] {
        PrefetcherRegistry r;
        r.add("none", "no prefetcher (baseline system)", {},
              [](mem::MemorySystem &, const Options &) {
                  return std::make_unique<NoneDeployment>();
              });
        r.add("sms",
              "Spatial Memory Streaming: region, block, pht-entries, "
              "pht-assoc, pht-update=replace|union, agt-filter, "
              "agt-accum, index=pc+off|pc|addr|pc+addr, pred-regs, "
              "into-l1, trainer=agt|ls|ds (mode=l1), ds-tag-mult",
              {"region", "block", "pht-entries", "pht-assoc",
               "pht-update", "agt-filter", "agt-accum", "index",
               "pred-regs", "into-l1", "trainer", "ds-tag-mult"},
              [](mem::MemorySystem &sys, const Options &o) {
                  return std::make_unique<SmsDeployment>(sys, o);
              });
        r.add("ghb",
              "GHB PC/DC: ghb-entries (pow2), it-entries (pow2), "
              "degree, max-walk, block",
              {"ghb-entries", "it-entries", "degree", "max-walk",
               "block"},
              [](mem::MemorySystem &sys, const Options &o) {
                  return std::make_unique<GhbDeployment>(sys, o);
              });
        r.add("stride",
              "per-PC stride RPT: entries, degree, threshold, block, "
              "into-l1",
              {"entries", "degree", "threshold", "block", "into-l1"},
              [](mem::MemorySystem &sys, const Options &o) {
                  auto cfg = strideConfigFromOptions(o);
                  return std::make_unique<AlgoDeployment>(
                      "stride", sys, [cfg] {
                          return std::make_unique<
                              prefetch::StridePrefetcher>(cfg);
                      });
              });
        r.add("next-line",
              "sequential next-line on L1 miss: degree, block",
              {"degree", "block"},
              [](mem::MemorySystem &sys, const Options &o) {
                  const auto block = optU32(o, "block", 64);
                  const auto degree = optU32(o, "degree", 1);
                  return std::make_unique<AlgoDeployment>(
                      "next-line", sys, [block, degree] {
                          return std::make_unique<
                              prefetch::NextLinePrefetcher>(block,
                                                            degree);
                      });
              });
        return r;
    }();
    return reg;
}

prefetch::PfAttach
registryAttach(std::string kind,
               std::unique_ptr<PrefetcherDeployment> &dep, Options opts)
{
    return [kind = std::move(kind), &dep, opts = std::move(opts)](
               mem::MemorySystem &sys) -> study::AttachedPrefetcher * {
        dep = PrefetcherRegistry::builtin().create(kind, sys, opts);
        return dep.get();
    };
}

void
PrefetcherRegistry::add(const std::string &name, const std::string &help,
                        std::vector<std::string> optionKeys, Factory f)
{
    for (auto &e : entries) {
        if (e.name == name) {
            e.help = help;
            e.optionKeys = std::move(optionKeys);
            e.factory = std::move(f);
            return;
        }
    }
    entries.push_back({name, help, std::move(optionKeys), std::move(f)});
}

const std::vector<std::string> &
PrefetcherRegistry::optionKeys(const std::string &name) const
{
    static const std::vector<std::string> none;
    const Entry *e = findEntry(name);
    return e ? e->optionKeys : none;
}

bool
PrefetcherRegistry::knowsOption(const std::string &name,
                                const std::string &key) const
{
    for (const auto &k : optionKeys(name))
        if (k == key)
            return true;
    return false;
}

const PrefetcherRegistry::Entry *
PrefetcherRegistry::findEntry(const std::string &name) const
{
    for (const auto &e : entries)
        if (e.name == name)
            return &e;
    return nullptr;
}

bool
PrefetcherRegistry::has(const std::string &name) const
{
    return findEntry(name) != nullptr;
}

std::unique_ptr<PrefetcherDeployment>
PrefetcherRegistry::create(const std::string &name,
                           mem::MemorySystem &sys,
                           const Options &opts) const
{
    const Entry *e = findEntry(name);
    if (!e) {
        std::string known;
        for (const auto &k : entries)
            known += (known.empty() ? "" : ", ") + k.name;
        throw std::invalid_argument("unknown prefetcher \"" + name +
                                    "\" (known: " + known + ")");
    }
    return e->factory(sys, opts);
}

std::vector<std::string>
PrefetcherRegistry::names() const
{
    std::vector<std::string> out;
    for (const auto &e : entries)
        out.push_back(e.name);
    return out;
}

std::string
PrefetcherRegistry::help(const std::string &name) const
{
    const Entry *e = findEntry(name);
    return e ? e->help : std::string();
}

} // namespace stems::driver
