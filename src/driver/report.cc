#include "driver/report.hh"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "driver/metrics.hh"
#include "study/table.hh"
#include "workloads/workload.hh"

namespace stems::driver {

// ---------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonWriter::separate()
{
    if (pendingKey) {
        pendingKey = false;
        return;
    }
    if (!needComma.empty()) {
        if (needComma.back())
            out += ',';
        needComma.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out += '{';
    needComma.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    out += '}';
    needComma.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out += '[';
    needComma.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    out += ']';
    needComma.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    separate();
    out += '"' + escape(k) + "\":";
    pendingKey = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    out += '"' + escape(v) + '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(uint64_t v)
{
    separate();
    out += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    if (std::isfinite(v)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        out += buf;
    } else {
        out += "null";
    }
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    out += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    out += "null";
    return *this;
}

// ---------------------------------------------------------------------
// reports
// ---------------------------------------------------------------------

namespace {

std::string
workloadClass(const std::string &name)
{
    const workloads::SuiteEntry *e = workloads::findWorkload(name);
    return e ? workloads::suiteClassName(e->cls) : "?";
}

/** RFC-4180 quoting for fields that may hold commas/quotes/newlines. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
writeOptions(JsonWriter &j, const Options &opts)
{
    j.beginObject();
    for (const auto &[k, v] : opts)
        j.key(k).value(v);
    j.endObject();
}

void
writeU64Array(JsonWriter &j, const std::vector<uint64_t> &values)
{
    j.beginArray();
    for (uint64_t v : values)
        j.value(v);
    j.endArray();
}

/** Emit one family's value under its report key. */
void
writeFamilyValue(JsonWriter &j, const MetricFamily &f, const MetricSet &m)
{
    switch (f.kind) {
      case MetricKind::Counter:
        j.value(m.u64(f.id));
        break;
      case MetricKind::Value:
      case MetricKind::Ratio:
        j.value(m.value(f.id));
        break;
      case MetricKind::Histogram:
        j.beginObject();
        j.key("labels").beginArray();
        for (const auto &label : f.buckets)
            j.value(label);
        j.endArray();
        j.key("counts");
        writeU64Array(j, m.vec(f.id));
        j.endObject();
        break;
      case MetricKind::Vector:
        writeU64Array(j, m.vec(f.id));
        break;
      case MetricKind::Timing:
        break;  // wire/API only; never in the report
    }
}

/**
 * Whether the cell's nested oracle object should appear: the spec
 * asked for region tracking and the cell produced generations (cells
 * swept to a coarser block skip tracking).
 */
bool
hasOracle(const ExperimentSpec &spec, const MetricSet &m)
{
    if (spec.oracleRegionSizes.empty())
        return false;
    for (const auto &f : MetricSchema::builtin().families())
        if (f.section == MetricSection::Oracle && m.present(f.id) &&
            !m.vec(f.id).empty())
            return true;
    return false;
}

} // anonymous namespace

std::vector<GroupResult>
aggregateGroups(const std::vector<CellResult> &results)
{
    std::vector<GroupResult> groups;
    for (const auto &r : results) {
        if (!r.error.empty())
            continue;
        const std::string cls = workloadClass(r.cell.workload);
        std::string sweep;
        for (const auto &[k, v] : r.cell.sweepPoint)
            sweep += k + "=" + v + ";";
        GroupResult *row = nullptr;
        for (auto &g : groups) {
            std::string gsweep;
            for (const auto &[k, v] : g.sweepPoint)
                gsweep += k + "=" + v + ";";
            if (g.group == cls &&
                g.engine.displayLabel() ==
                    r.cell.engine.displayLabel() &&
                gsweep == sweep) {
                row = &g;
                break;
            }
        }
        if (!row) {
            groups.emplace_back();
            row = &groups.back();
            row->group = cls;
            row->engine = r.cell.engine;
            row->sweepPoint = r.cell.sweepPoint;
        }
        row->metrics.aggregate(r.metrics);
        ++row->cells;
    }
    return groups;
}

std::string
toJson(const ExperimentSpec &spec, const std::vector<CellResult> &results)
{
    JsonWriter j;
    j.beginObject();
    j.key("engine").value("stems");
    j.key("report_version").value(uint64_t{2});

    j.key("spec").beginObject();
    j.key("mode").value(studyModeName(spec.mode));
    j.key("ncpu").value(uint64_t{spec.params.ncpu});
    j.key("refs_per_cpu").value(spec.params.refsPerCpu);
    j.key("seed").value(spec.params.seed);
    j.key("timing").value(spec.timing);
    j.key("workloads").beginArray();
    for (const auto &w : spec.workloads)
        j.value(w);
    j.endArray();
    j.key("prefetchers").beginArray();
    for (const auto &e : spec.engines) {
        j.beginObject();
        j.key("kind").value(e.kind);
        j.key("label").value(e.displayLabel());
        j.key("options");
        writeOptions(j, e.options);
        j.endObject();
    }
    j.endArray();
    j.key("sweeps").beginObject();
    for (const auto &[opt, values] : spec.sweeps) {
        j.key(opt).beginArray();
        for (const auto &v : values)
            j.value(v);
        j.endArray();
    }
    j.endObject();
    j.endObject();  // spec

    const MetricSchema &schema = MetricSchema::builtin();
    j.key("cells").beginArray();
    for (const auto &r : results) {
        const MetricSet &m = r.metrics;
        j.beginObject();
        j.key("id").value(uint64_t{r.cell.id});
        j.key("workload").value(r.cell.workload);
        j.key("class").value(workloadClass(r.cell.workload));
        j.key("prefetcher").value(r.cell.engine.kind);
        j.key("label").value(r.cell.engine.displayLabel());
        j.key("options");
        writeOptions(j, r.cell.engine.options);
        j.key("sweep");
        writeOptions(j, r.cell.sweepPoint);
        if (!r.error.empty()) {
            j.key("error").value(r.error);
            j.endObject();
            continue;
        }
        // the metrics object iterates the schema: core families
        // always appear (historical layout), optional families only
        // when the cell produced them
        j.key("metrics").beginObject();
        for (const auto &f : schema.families()) {
            if (f.section != MetricSection::Metrics)
                continue;
            if (!f.core && !m.present(f.id))
                continue;
            j.key(f.reportKey);
            writeFamilyValue(j, f, m);
        }
        if (hasOracle(spec, m)) {
            j.key("oracle").beginObject();
            j.key("region_sizes").beginArray();
            for (uint32_t s : spec.oracleRegionSizes)
                j.value(uint64_t{s});
            j.endArray();
            for (const auto &f : schema.families()) {
                if (f.section != MetricSection::Oracle)
                    continue;
                j.key(f.reportKey);
                writeFamilyValue(j, f, m);
            }
            j.endObject();
        }
        j.endObject();
        j.key("prefetcher_counters").beginObject();
        for (const auto &[k, v] : m.pfCounters)
            j.key(k).value(v);
        j.endObject();
        if (r.cell.timing) {
            j.key("timing").beginObject();
            for (const auto &f : schema.families()) {
                if (f.section != MetricSection::Timing)
                    continue;
                j.key(f.reportKey);
                writeFamilyValue(j, f, m);
            }
            j.endObject();
        }
        if (spec.emitWall)
            j.key("wall_ms").value(m.wallMs());
        j.endObject();
    }
    j.endArray();
    // opt-in engine-folded aggregate rows; the default layout above
    // is unchanged so existing goldens stay byte-identical
    if (spec.groups) {
        j.key("groups").beginArray();
        for (const auto &g : aggregateGroups(results)) {
            j.beginObject();
            j.key("group").value(g.group);
            j.key("prefetcher").value(g.engine.kind);
            j.key("label").value(g.engine.displayLabel());
            j.key("sweep");
            writeOptions(j, g.sweepPoint);
            j.key("cells").value(g.cells);
            j.key("metrics").beginObject();
            for (const auto &f : schema.families()) {
                if (f.section != MetricSection::Metrics)
                    continue;
                if (!f.core && !g.metrics.present(f.id))
                    continue;
                j.key(f.reportKey);
                writeFamilyValue(j, f, g.metrics);
            }
            j.endObject();
            j.endObject();
        }
        j.endArray();
    }
    j.endObject();
    return j.str() + "\n";
}

std::string
toCsv(const ExperimentSpec &spec, const std::vector<CellResult> &results)
{
    const MetricSchema &schema = MetricSchema::builtin();
    std::ostringstream os;
    os << "id,workload,class,prefetcher,label,options";
    for (const auto &f : schema.families())
        if (f.csv)
            os << ',' << f.name;
    os << ",error\n";
    for (const auto &r : results) {
        const MetricSet &m = r.metrics;
        std::string opts;
        for (const auto &[k, v] : r.cell.engine.options)
            opts += (opts.empty() ? "" : ";") + k + "=" + v;
        os << r.cell.id << ',' << csvField(r.cell.workload) << ','
           << workloadClass(r.cell.workload) << ','
           << csvField(r.cell.engine.kind) << ','
           << csvField(r.cell.engine.displayLabel()) << ','
           << csvField(opts);
        for (const auto &f : schema.families()) {
            if (!f.csv)
                continue;
            os << ',';
            if (f.id == metric::ids().wallMs)
                os << (spec.emitWall ? m.wallMs() : 0.0);
            else if (f.kind == MetricKind::Counter)
                os << m.u64(f.id);
            else
                os << m.value(f.id);
        }
        os << ',' << csvField(r.error) << '\n';
    }
    return os.str();
}

std::string
toTable(const std::vector<CellResult> &results)
{
    using study::TablePrinter;
    TablePrinter table({"App", "Prefetcher", "L1 cov", "L2 cov",
                        "L2 acc", "Off-chip misses", "Speedup",
                        "Status"});
    for (const auto &r : results) {
        const MetricSet &m = r.metrics;
        std::string label = r.cell.engine.displayLabel();
        for (const auto &[k, v] : r.cell.sweepPoint)
            label += " " + k + "=" + v;
        table.addRow(
            {r.cell.workload, label, TablePrinter::pct(m.l1Coverage()),
             TablePrinter::pct(m.l2Coverage()),
             TablePrinter::pct(m.l2Accuracy()),
             std::to_string(m.l2ReadMisses()),
             r.cell.timing && m.speedup() > 0
                 ? TablePrinter::fixed(m.speedup(), 3)
                 : "-",
             r.error.empty() ? "ok" : ("FAILED: " + r.error)});
    }
    std::ostringstream os;
    table.print(os);
    return os.str();
}

std::string
toTable(const ExperimentSpec &spec,
        const std::vector<CellResult> &results)
{
    std::string out = toTable(results);
    if (!spec.groups)
        return out;
    using study::TablePrinter;
    TablePrinter table({"Group", "Prefetcher", "Cells", "L1 cov",
                        "L2 cov", "L2 acc", "Off-chip misses"});
    for (const auto &g : aggregateGroups(results)) {
        std::string label = g.engine.displayLabel();
        for (const auto &[k, v] : g.sweepPoint)
            label += " " + k + "=" + v;
        const MetricSet &m = g.metrics;
        table.addRow({g.group, label, std::to_string(g.cells),
                      TablePrinter::pct(m.l1Coverage()),
                      TablePrinter::pct(m.l2Coverage()),
                      TablePrinter::pct(m.l2Accuracy()),
                      std::to_string(m.l2ReadMisses())});
    }
    std::ostringstream os;
    os << out << '\n';
    table.print(os);
    return os.str();
}

void
writeReport(const std::string &path, const std::string &content)
{
    if (path == "-") {
        std::cout << content;
        return;
    }
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write report to " + path);
    out << content;
}

} // namespace stems::driver
