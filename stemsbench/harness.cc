/**
 * @file
 * stemsbench: the benchmark's compiled half. run.py launches `stems`
 * itself for the sweeps and the daemon; this binary does what needs
 * the library's public functions:
 *
 *   stemsbench client server=ADDR seed=S cold=N out=FILE -- SPEC...
 *       one closed-loop serve client calling serve::submitToServer:
 *       it sends its next request only when the previous one returned.
 *       In an order shuffled by S, it submits SPEC at N fresh seeds
 *       (S+1 .. S+N, cold) and kWarmPerCold * N times unchanged (warm),
 *       stopping early only if kClientDeadlineS seconds pass. One JSON
 *       line per request goes to FILE.
 *
 *   stemsbench layers out=DIR -- SPEC...
 *       the traced per-layer run: times each module's public call on
 *       SPEC's own inputs, one span per call, spans kept in memory and
 *       written to DIR/spans.json at the end; per-layer metrics (self
 *       time normalised by the work done) go to stdout as JSON.
 *
 *   stemsbench hello server=ADDR
 *       kHelloSamples connectTo + hello handshake latencies, in
 *       nanoseconds.
 *
 *   stemsbench analyze trace=F telemetry=F
 *       driver::analyzeRun as JSON with the critical path uncapped.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unistd.h>
#include <vector>

#include "core/sms.hh"
#include "dispatch/json.hh"
#include "dispatch/wire.hh"
#include "driver/analyze.hh"
#include "driver/executor.hh"
#include "driver/options.hh"
#include "driver/registry.hh"
#include "driver/report.hh"
#include "driver/spec.hh"
#include "mem/memsys.hh"
#include "prefetch/ghb.hh"
#include "serve/client.hh"
#include "serve/socket.hh"
#include "sim/timing.hh"
#include "study/l1study.hh"
#include "study/memstudy.hh"
#include "study/suite.hh"
#include "trace/interleaver.hh"
#include "trace/io.hh"
#include "trace/stream.hh"
#include "workloads/workload.hh"

namespace {

using namespace stems;
using driver::JsonWriter;

/** Safety net for the client: well inside the 180 s a run may take. */
constexpr uint64_t kClientDeadlineS = 90;
/** Warm resubmissions per cold submission in `client`'s mix. */
constexpr uint64_t kWarmPerCold = 3;
/** Handshakes timed by `hello`. */
constexpr uint64_t kHelloSamples = 20;

uint64_t
nowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/** key=value arguments before "--", spec tokens after it. */
struct Args
{
    std::map<std::string, std::string> kv;
    std::vector<std::string> spec;

    std::string
    str(const std::string &k, const std::string &def = "") const
    {
        const auto it = kv.find(k);
        return it == kv.end() ? def : it->second;
    }

    uint64_t
    num(const std::string &k) const
    {
        const auto it = kv.find(k);
        if (it == kv.end())
            throw std::invalid_argument(k + "= is required");
        return std::stoull(it->second);
    }
};

Args
parseArgs(const std::vector<std::string> &argv)
{
    Args a;
    bool inSpec = false;
    for (const auto &tok : argv) {
        if (inSpec) {
            a.spec.push_back(tok);
        } else if (tok == "--") {
            inSpec = true;
        } else {
            const auto eq = tok.find('=');
            if (eq == std::string::npos)
                throw std::invalid_argument("expected key=value: " + tok);
            a.kv[tok.substr(0, eq)] = tok.substr(eq + 1);
        }
    }
    return a;
}

// ---------------------------------------------------------------------
// spans
// ---------------------------------------------------------------------

/**
 * In-memory span recorder. A span is one timed call into a layer; the
 * span open when it starts is its parent. `work` is what the call
 * processed (references, misses, cells) so self time normalises per
 * unit; `onPath` marks calls a real execution of the spec makes.
 */
class Tracer
{
  public:
    struct Span
    {
        std::string name;
        uint64_t id = 0;  //!< cell id, or workload index
        int64_t parent = -1;
        uint64_t start = 0, end = 0;
        uint64_t work = 0;
        bool onPath = false;
    };

    template <typename F>
    void
    time(const std::string &name, uint64_t id, bool onPath,
         uint64_t work, F &&body)
    {
        const size_t idx = spans.size();
        spans.push_back({name, id, parent, nowNs(), 0, work, onPath});
        const int64_t saved = parent;
        parent = static_cast<int64_t>(idx);
        body();
        spans[idx].end = nowNs();
        parent = saved;
    }

    /** Duration minus the part covered by child spans; children nest
     *  inside their parent on one thread, so it is never negative. */
    std::vector<uint64_t>
    selfNs() const
    {
        std::vector<uint64_t> self(spans.size());
        for (size_t i = 0; i < spans.size(); ++i)
            self[i] = spans[i].end - spans[i].start;
        for (const Span &s : spans)
            if (s.parent >= 0)
                self[s.parent] -= s.end - s.start;
        return self;
    }

    /** The spans as a JSON array; a root span's parent is null. */
    std::string
    json() const
    {
        JsonWriter j;
        j.beginArray();
        for (const Span &s : spans) {
            j.beginObject().key("name").value(s.name).key("id").value(s.id);
            j.key("parent");
            if (s.parent >= 0)
                j.value(static_cast<uint64_t>(s.parent));
            else
                j.null();
            j.key("start_ns").value(s.start).key("end_ns").value(s.end);
            j.key("work").value(s.work).key("on_path").value(s.onPath);
            j.endObject();
        }
        j.endArray();
        return j.str() + "\n";
    }

    std::vector<Span> spans;

  private:
    int64_t parent = -1;
};

// ---------------------------------------------------------------------
// layers
// ---------------------------------------------------------------------

bool
specHasEngine(const driver::ExperimentSpec &spec, const std::string &kind)
{
    for (const auto &e : spec.engines)
        if (e.kind == kind)
            return true;
    return false;
}

driver::Options
engineOptions(const driver::ExperimentSpec &spec, const std::string &kind)
{
    for (const auto &e : spec.engines)
        if (e.kind == kind)
            return e.options;
    return {};
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path, std::ios::binary);
    f << text;
    if (!f)
        throw std::runtime_error("cannot write " + path);
}

int
cmdLayers(const Args &args)
{
    const std::string out = args.str("out");
    if (out.empty())
        throw std::invalid_argument("layers: out=DIR is required");
    const driver::ExperimentSpec spec = driver::parseSpec(args.spec);
    const std::vector<driver::RunCell> cells = driver::selectedCells(spec);
    const bool replay = !spec.traceDir.empty();
    const bool system = spec.mode == driver::StudyMode::System;
    Tracer tr;

    // the executor on every cell, in order, on one thread: execute
    // time minus the on-path layer calls below is executor overhead
    driver::CellExecutor exec(driver::executorConfig(spec));
    std::vector<driver::CellResult> results;
    for (const auto &c : cells)
        tr.time("driver.execute", c.id, false, 1,
                [&] { results.push_back(exec.execute(c)); });
    for (const auto &r : results)
        if (!r.error.empty())
            throw std::runtime_error("cell " + std::to_string(r.cell.id) +
                                     ": " + r.error);
    std::string report;
    tr.time("driver.report_json", 0, false, results.size(),
            [&] { report = driver::toJson(spec, results); });
    writeFile(out + "/layers_report.json", report);

    uint64_t wireBytes = 0;
    for (const auto &r : results) {
        std::string enc;
        tr.time("dispatch.result_encode", r.cell.id, false, 1,
                [&] { enc = dispatch::encodeResult(r); });
        wireBytes += enc.size();
        driver::CellResult back;
        tr.time("dispatch.result_decode", r.cell.id, false, 1, [&] {
            back = dispatch::decodeResult(dispatch::parseJson(enc));
        });
        if (back.cell.id != r.cell.id)
            throw std::runtime_error("wire round trip lost the cell id");
    }

    // the per-workload panel, on the same inputs the cells used
    std::vector<std::string> seen;
    for (const auto &c0 : cells) {
        if (std::find(seen.begin(), seen.end(), c0.workload) != seen.end())
            continue;
        seen.push_back(c0.workload);
        const uint64_t k = seen.size() - 1;
        const workloads::WorkloadParams &p = c0.params;
        mem::MemSysConfig mcfg = c0.sys;
        mcfg.ncpu = p.ncpu;

        tr.time("workload", k, false, 0, [&] {
            const workloads::SuiteEntry *entry =
                workloads::findWorkload(c0.workload);
            auto gen = entry->make();
            std::vector<trace::Trace> streams;
            tr.time("workloads.generate", k, !replay, 0,
                    [&] { streams = gen->generateStreams(p); });
            uint64_t refs = 0;
            for (const auto &s : streams)
                refs += s.size();
            tr.spans.back().work = refs;

            const std::string path =
                out + "/" + c0.workload + ".stmt";
            const uint64_t hash =
                study::generatorConfigHash(c0.workload, p);
            bool wrote = false;
            tr.time("trace.spill_write", k, false, refs, [&] {
                wrote = trace::writeTraceStreams(streams, path, hash);
            });
            std::shared_ptr<trace::MappedTrace> mapped;
            tr.time("trace.map_validate", k, replay, refs,
                    [&] { mapped = trace::MappedTrace::open(path, hash); });
            if (!wrote || !mapped)
                throw std::runtime_error("spill round trip failed for " +
                                         c0.workload);
            const trace::StreamSet set =
                replay ? trace::StreamSet::mapped(mapped)
                       : trace::StreamSet::borrowed(streams);

            uint64_t walked = 0;
            tr.time("trace.interleave", k, false, refs, [&] {
                auto view = trace::canonicalView(streams, p.seed);
                const trace::MemAccess *base = nullptr;
                uint32_t si = 0;
                while (const size_t n = view.nextSpan(base, si))
                    walked += n;
            });
            if (walked != refs)
                throw std::runtime_error("interleave walked " +
                                         std::to_string(walked) + " of " +
                                         std::to_string(refs) + " refs");

            const trace::Trace merged =
                trace::canonicalInterleaver(p.seed).merge(streams);
            uint64_t l1m = 0, l2m = 0;
            tr.time("mem.access", k, false, refs, [&] {
                mem::MemorySystem sys(mcfg);
                for (const auto &a : merged)
                    sys.access(a);
                l1m = sys.l1ReadMisses();
                l2m = sys.l2ReadMisses();
            });
            // the L1-miss stream the GHB engine trains on (untimed)
            std::vector<std::pair<uint32_t, prefetch::ObservedAccess>>
                misses;
            {
                mem::MemorySystem sys(mcfg);
                for (const auto &a : merged) {
                    const mem::AccessOutcome o = sys.access(a);
                    if (o.level != mem::HitLevel::L1)
                        misses.push_back(
                            {a.cpu, {a.pc, a.addr, a.isWrite, o.level}});
                }
            }

            const core::SmsConfig smsCfg =
                driver::smsConfigFromOptions(engineOptions(spec, "sms"));
            uint64_t predictions = 0;
            tr.time("core.sms", k, false, refs, [&] {
                std::vector<std::unique_ptr<core::SmsUnit>> units;
                for (uint32_t cpu = 0; cpu < p.ncpu; ++cpu)
                    units.push_back(std::make_unique<core::SmsUnit>(
                        cpu, smsCfg, [](uint32_t, uint64_t, bool) {}));
                for (const auto &a : merged)
                    units[a.cpu]->onAccess(a.pc, a.addr);
                for (const auto &u : units)
                    predictions += u->stats().phtHits;
            });

            uint64_t issued = 0;
            tr.time("prefetch.ghb", k, false, misses.size(), [&] {
                std::vector<std::unique_ptr<prefetch::GhbPcDc>> ghb;
                const prefetch::GhbConfig gcfg =
                    driver::ghbConfigFromOptions(engineOptions(spec, "ghb"));
                for (uint32_t cpu = 0; cpu < p.ncpu; ++cpu)
                    ghb.push_back(std::make_unique<prefetch::GhbPcDc>(gcfg));
                std::vector<uint64_t> addrs;
                for (const auto &[cpu, oa] : misses) {
                    addrs.clear();
                    ghb[cpu]->observe(oa, addrs);
                    issued += addrs.size();
                }
            });

            for (const std::string kind : {"none", "sms", "ghb"}) {
                const bool used = kind == "none" || specHasEngine(spec, kind);
                sim::TimingConfig tc;
                tc.sys = mcfg;
                tr.time("sim.timing." + kind, k, spec.timing && used, refs,
                        [&] {
                    std::unique_ptr<driver::PrefetcherDeployment> dep;
                    sim::runTiming(set, tc, p.seed,
                                   driver::registryAttach(
                                       kind, dep, engineOptions(spec, kind)));
                });
                study::SystemStudyConfig sc;
                sc.sys = mcfg;
                tr.time("study.system." + kind, k,
                        system && !c0.timingOnly && used, refs, [&] {
                    std::unique_ptr<driver::PrefetcherDeployment> dep;
                    if (kind == "none")
                        study::runSystem(set, sc, p.seed);
                    else
                        study::runSystem(set, sc, p.seed,
                                         driver::registryAttach(
                                             kind, dep,
                                             engineOptions(spec, kind)));
                });
            }

            study::L1StudyConfig base;
            base.ncpu = p.ncpu;
            base.l1 = c0.sys.l1;
            if (system) {
                base.sms = smsCfg;
                tr.time("study.l1.sms", k, false, refs,
                        [&] { study::runL1Study(set, base, p.seed); });
            } else {
                base.prefetch = false;
                tr.time("study.l1.baseline", k, true, refs,
                        [&] { study::runL1Study(set, base, p.seed); });
                for (const auto &c : cells) {
                    if (c.workload != c0.workload || c.engine.kind != "sms")
                        continue;
                    study::L1StudyConfig lc = base;
                    lc.prefetch = true;
                    lc.l1 = c.sys.l1;
                    lc.sms = driver::smsConfigFromOptions(c.engine.options);
                    tr.time("study.l1.sms", c.id, true, refs,
                            [&] { study::runL1Study(set, lc, p.seed); });
                }
            }

            // counts ride in the span list as zero-length marker spans
            tr.time("count.l1_read_misses", k, false, l1m, [] {});
            tr.time("count.l2_read_misses", k, false, l2m, [] {});
            tr.time("count.sms_predictions", k, false, predictions, [] {});
            tr.time("count.ghb_issued", k, false, issued, [] {});
        });
    }

    // roll spans up by name: self time, work, and the on-path share
    const std::vector<uint64_t> self = tr.selfNs();
    struct Roll
    {
        uint64_t selfNs = 0, onPathNs = 0, work = 0, count = 0;
    };
    std::map<std::string, Roll> byName;
    for (size_t i = 0; i < tr.spans.size(); ++i) {
        Roll &r = byName[tr.spans[i].name];
        r.selfNs += self[i];
        r.work += tr.spans[i].work;
        ++r.count;
        if (tr.spans[i].onPath)
            r.onPathNs += self[i];
    }
    writeFile(out + "/spans.json", tr.json());

    JsonWriter j;
    j.beginObject().key("layers").beginObject();
    for (const auto &[name, r] : byName)
        j.key(name)
            .beginObject()
            .key("self_ns").value(r.selfNs)
            .key("on_path_ns").value(r.onPathNs)
            .key("work").value(r.work)
            .key("count").value(r.count)
            .endObject();
    j.endObject();
    j.key("cells").value(static_cast<uint64_t>(results.size()));
    j.key("wire_bytes").value(wireBytes).endObject();
    std::cout << j.str() << "\n";
    return 0;
}

// ---------------------------------------------------------------------
// closed-loop serve client
// ---------------------------------------------------------------------

struct Record
{
    uint64_t index = 0;
    bool cold = false;
    uint64_t seed = 0;
    uint64_t startNs = 0, endNs = 0;
    std::string status;
    std::string reason;
    uint32_t failed = 0;
    std::string json;  //!< report text (warm: only when it differs)
    bool sameAsFirstWarm = true;
};

/**
 * The order of @p colds cold and @p warms warm requests: a
 * Fisher-Yates shuffle driven by mt19937_64(@p seed), whose output the
 * standard fixes, so one seed gives one schedule everywhere.
 */
std::vector<bool>
schedule(uint64_t seed, uint64_t colds, uint64_t warms)
{
    std::vector<bool> cold(colds + warms, false);
    std::fill(cold.begin(), cold.begin() + colds, true);
    std::mt19937_64 rng(seed);
    for (size_t i = cold.size(); i > 1; --i)
        std::vector<bool>::swap(cold[i - 1], cold[rng() % i]);
    return cold;
}

int
cmdClient(const Args &args)
{
    const std::string server = args.str("server");
    const std::string out = args.str("out");
    if (server.empty() || out.empty() || args.spec.empty())
        throw std::invalid_argument(
            "client: server=, out= and -- SPEC are required");
    const uint64_t seed = args.num("seed");
    const uint64_t colds = args.num("cold");
    const std::vector<bool> order =
        schedule(seed, colds, kWarmPerCold * colds);
    const uint64_t deadline = nowNs() + kClientDeadlineS * 1000000000ULL;

    // every submission carries the warm spec's tokens; a cold one
    // swaps in a fresh seed, never reused within the run
    auto tokensFor = [&](uint64_t s) {
        std::vector<std::string> toks;
        for (const auto &t : args.spec)
            if (t.rfind("seed=", 0) != 0)
                toks.push_back(t);
        toks.push_back("seed=" + std::to_string(s));
        return toks;
    };

    std::vector<Record> records;
    std::string firstWarm;
    uint64_t nextCold = seed + 1;
    const uint64_t t0 = nowNs();
    for (uint64_t i = 0; i < order.size() && nowNs() < deadline; ++i) {
        Record r;
        r.index = i;
        r.cold = order[i];
        r.seed = r.cold ? nextCold++ : seed;
        r.startNs = nowNs() - t0;
        try {
            const auto o = serve::submitToServer(server, tokensFor(r.seed));
            using S = serve::ExperimentService::Outcome::Status;
            r.status = o.status == S::Done       ? "done"
                       : o.status == S::Rejected ? "rejected"
                                                 : "error";
            r.reason = o.reason;
            r.failed = o.failed;
            r.json = o.json;
        } catch (const std::exception &e) {
            r.status = "error";
            r.reason = e.what();
        }
        r.endNs = nowNs() - t0;
        if (!r.cold && r.status == "done") {
            if (firstWarm.empty())
                firstWarm = r.json;
            else if (r.json == firstWarm)
                r.json.clear();  // identical: keep one copy
            else
                r.sameAsFirstWarm = false;
        }
        records.push_back(std::move(r));
    }

    std::ofstream f(out, std::ios::binary);
    for (const Record &r : records) {
        JsonWriter j;
        j.beginObject()
            .key("index").value(r.index)
            .key("kind").value(r.cold ? "cold" : "warm")
            .key("seed").value(r.seed)
            .key("start_ns").value(r.startNs)
            .key("end_ns").value(r.endNs)
            .key("status").value(r.status)
            .key("reason").value(r.reason)
            .key("failed").value(uint64_t{r.failed})
            .key("same_as_first_warm").value(r.sameAsFirstWarm)
            .key("report");
        // the report text as a string; the reader parses it
        if (r.json.empty())
            j.null();
        else
            j.value(r.json);
        f << j.endObject().str() << "\n";
    }
    if (!f)
        throw std::runtime_error("cannot write " + out);
    return 0;
}

// ---------------------------------------------------------------------
// hello latency, analyze
// ---------------------------------------------------------------------

int
cmdHello(const Args &args)
{
    const std::string server = args.str("server");
    JsonWriter j;
    j.beginArray();
    for (uint64_t i = 0; i < kHelloSamples; ++i) {
        const uint64_t t0 = nowNs();
        const int fd = serve::connectTo(server, 5000);
        dispatch::FrameDecoder decoder;
        serve::Hello peer;
        std::string err;
        const bool ok =
            serve::sendFrame(fd, serve::encodeHello("client")) &&
            serve::readHello(fd, decoder, "serve", peer, err);
        const uint64_t t1 = nowNs();
        ::close(fd);
        if (!ok)
            throw std::runtime_error("hello failed: " + err);
        j.value(t1 - t0);
    }
    std::cout << j.endArray().str() << "\n";
    return 0;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream ss;
    ss << f.rdbuf();
    return ss.str();
}

int
cmdAnalyze(const Args &args)
{
    driver::AnalyzeOptions opts;
    opts.format = "json";
    opts.criticalPathCap = static_cast<size_t>(-1);
    std::cout << driver::analyzeRun(readFile(args.str("trace")),
                                    readFile(args.str("telemetry")), opts);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::cerr << "usage: stemsbench client|layers|hello|analyze "
                     "key=value... [-- SPEC...]\n";
        return 2;
    }
    const std::string cmd = argv[1];
    try {
        const Args args =
            parseArgs(std::vector<std::string>(argv + 2, argv + argc));
        if (cmd == "client")
            return cmdClient(args);
        if (cmd == "layers")
            return cmdLayers(args);
        if (cmd == "hello")
            return cmdHello(args);
        if (cmd == "analyze")
            return cmdAnalyze(args);
        std::cerr << "stemsbench: unknown command " << cmd << "\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "stemsbench " << cmd << ": " << e.what() << "\n";
        return 1;
    }
}
