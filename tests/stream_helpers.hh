/**
 * @file
 * Test helpers between hand-built traces and the StreamSet form every
 * study and the timing model take: split a merged multi-CPU trace
 * into per-CPU streams, flatten a set's canonical interleave for
 * comparison, and map a .stmt file back into one flat trace.
 */

#ifndef STEMS_TESTS_STREAM_HELPERS_HH
#define STEMS_TESTS_STREAM_HELPERS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/access.hh"
#include "trace/interleaver.hh"
#include "trace/stream.hh"

namespace stems::test {

/**
 * Split @p t into @p ncpu per-CPU streams by its cpu field; each
 * stream keeps its records in their original order. Run the result
 * through trace::StreamSet::borrowed.
 */
inline std::vector<trace::Trace>
splitByCpu(const trace::Trace &t, uint32_t ncpu)
{
    std::vector<trace::Trace> streams(ncpu);
    for (const auto &a : t)
        streams.at(a.cpu).push_back(a);
    return streams;
}

/**
 * The canonical interleave of @p set for workload seed @p seed, as one
 * flat trace: exactly the access sequence (cpu fields restamped) every
 * study and the timing model consume from the set.
 */
inline trace::Trace
interleave(const trace::StreamSet &set, uint64_t seed)
{
    trace::Trace out;
    trace::canonicalView(set, seed).forEach(
        [&out](const trace::MemAccess &a) { out.push_back(a); });
    return out;
}

/**
 * Map @p path through trace::MappedTrace::open and copy its sections
 * out, concatenated in section order, into @p out.
 * @return false (leaving @p out alone) when open rejects the file.
 */
inline bool
mapTrace(const std::string &path, trace::Trace &out,
         uint64_t expected_hash = 0)
{
    auto m = trace::MappedTrace::open(path, expected_hash);
    if (!m)
        return false;
    out.clear();
    for (size_t s = 0; s < m->numStreams(); ++s)
        out.insert(out.end(), m->streamData(s),
                   m->streamData(s) + m->streamCount(s));
    return true;
}

} // namespace stems::test

#endif // STEMS_TESTS_STREAM_HELPERS_HH
