#include "trace/io.hh"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unistd.h>

#include "fault/fault.hh"

namespace stems::trace {

namespace {

constexpr char kMagic[4] = {'S', 'T', 'M', 'T'};

/** Sanity bound: more sections than this is a corrupt header. */
constexpr uint32_t kMaxStreams = 1u << 20;

/**
 * Writes go to a per-process temp name and are renamed into place on
 * success, so concurrent readers (dispatch workers sharing a spill
 * dir) never observe a torn file.
 */
std::string
tempName(const std::string &path)
{
    return path + ".tmp." + std::to_string(::getpid());
}

bool
commitOrDiscard(const std::string &tmp, const std::string &path, bool ok,
                size_t payload_offset)
{
    if (ok && std::rename(tmp.c_str(), path.c_str()) == 0) {
        // chaos hook: flip one payload byte of the committed file;
        // the checksum makes the damage detectable, so replay
        // rejects the spill and the TraceCache regenerates it
        if (fault::spillFault(fault::Kind::CorruptSpill, path))
            fault::corruptFileByte(path, fault::currentPlan().seed,
                                   payload_offset);
        return true;
    }
    std::remove(tmp.c_str());
    return false;
}

/** On-disk packed record; bit-identical to MemAccess (see stream.hh). */
struct PackedAccess
{
    uint64_t pc;
    uint64_t addr;
    uint32_t cpu;
    uint32_t ninst;
    uint32_t dep;
    uint16_t size;
    uint8_t isWrite;
    uint8_t isKernel;
};

static_assert(sizeof(PackedAccess) == sizeof(MemAccess));

struct FileCloser
{
    void operator()(FILE *f) const { if (f) std::fclose(f); }
};

using FilePtr = std::unique_ptr<FILE, FileCloser>;

/** Byte offset of the checksum field (rewritten after streaming). */
constexpr long kChecksumOffset = 4 + sizeof(uint32_t) +
    2 * sizeof(uint64_t);

/**
 * Write the v4 header and section table with a placeholder checksum;
 * the writers seek back and fill the real value once every record has
 * streamed through the running FNV fold.
 */
bool
writeHeader(FILE *f, uint64_t config_hash,
            const std::vector<uint64_t> &counts)
{
    uint64_t total = 0;
    for (uint64_t c : counts)
        total += c;
    const uint64_t placeholder = 0;
    const uint32_t nstreams = static_cast<uint32_t>(counts.size());
    const uint32_t pad = 0;  // keeps the payload 8-byte aligned
    bool ok = std::fwrite(kMagic, 1, 4, f) == 4 &&
        std::fwrite(&kTraceFormatVersion, sizeof(kTraceFormatVersion),
                    1, f) == 1 &&
        std::fwrite(&config_hash, sizeof(config_hash), 1, f) == 1 &&
        std::fwrite(&total, sizeof(total), 1, f) == 1 &&
        std::fwrite(&placeholder, sizeof(placeholder), 1, f) == 1 &&
        std::fwrite(&nstreams, sizeof(nstreams), 1, f) == 1 &&
        std::fwrite(&pad, sizeof(pad), 1, f) == 1;
    for (uint64_t c : counts)
        ok = ok && std::fwrite(&c, sizeof(c), 1, f) == 1;
    return ok;
}

bool
patchChecksum(FILE *f, uint64_t checksum)
{
    return std::fseek(f, kChecksumOffset, SEEK_SET) == 0 &&
        std::fwrite(&checksum, sizeof(checksum), 1, f) == 1;
}

/** Copy one unaligned little-endian field out of a byte view. */
template <typename T>
T
loadField(const unsigned char *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

/**
 * Stream one section's records through the checksum fold and out to
 * @p f, with the cpu field rewritten to @p stream_index.
 */
bool
writeSection(FILE *f, const Trace &t, uint32_t stream_index,
             uint64_t &checksum)
{
    for (const auto &a : t) {
        PackedAccess p{a.pc, a.addr, stream_index, a.ninst, a.dep,
                       a.size, static_cast<uint8_t>(a.isWrite),
                       static_cast<uint8_t>(a.isKernel)};
        checksum = traceChecksum(
            reinterpret_cast<const unsigned char *>(&p), sizeof(p),
            checksum);
        if (std::fwrite(&p, sizeof(p), 1, f) != 1)
            return false;
    }
    return true;
}

} // anonymous namespace

uint64_t
traceChecksum(const unsigned char *data, size_t size, uint64_t h)
{
    for (size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

bool
parseTraceHeader(const unsigned char *data, size_t size,
                 TraceFileHeader &out, uint64_t expected_hash)
{
    if (size < kTraceHeaderBytes || std::memcmp(data, kMagic, 4) != 0)
        return false;
    if (loadField<uint32_t>(data + 4) != kTraceFormatVersion)
        return false;
    out.configHash = loadField<uint64_t>(data + 8);
    out.count = loadField<uint64_t>(data + 16);
    out.checksum = loadField<uint64_t>(data + 24);
    const uint32_t nstreams = loadField<uint32_t>(data + 32);
    // a stale trace from an incompatible generator must not replay
    if (expected_hash != 0 && out.configHash != expected_hash)
        return false;
    if (nstreams == 0 || nstreams > kMaxStreams)
        return false;
    // the writer zeroes the padding word; every header byte is checked
    if (loadField<uint32_t>(data + 36) != 0)
        return false;
    out.payloadOffset = tracePayloadOffset(nstreams);
    if (size < out.payloadOffset)
        return false;
    // corrupt counts must not drive reserve() or out-of-bounds views:
    // the sections must sum to the total, and the payload must hold
    // exactly that many records
    out.streamCounts.assign(nstreams, 0);
    uint64_t total = 0;
    for (uint32_t i = 0; i < nstreams; ++i) {
        out.streamCounts[i] =
            loadField<uint64_t>(data + kTraceHeaderBytes + 8 * i);
        if (out.streamCounts[i] > out.count)
            return false;
        total += out.streamCounts[i];
    }
    if (total != out.count)
        return false;
    if (out.count != (size - out.payloadOffset) / sizeof(MemAccess) ||
        (size - out.payloadOffset) % sizeof(MemAccess) != 0)
        return false;
    return true;
}

bool
writeTraceStreams(const std::vector<Trace> &streams,
                  const std::string &path, uint64_t config_hash)
{
    // chaos hook: model a full disk before any bytes land
    if (fault::spillFault(fault::Kind::Enospc, path))
        return false;
    const std::string tmp = tempName(path);
    bool ok = false;
    {
        FilePtr f(std::fopen(tmp.c_str(), "wb"));
        if (!f)
            return false;

        std::vector<uint64_t> counts;
        counts.reserve(streams.size());
        for (const Trace &t : streams)
            counts.push_back(t.size());
        ok = writeHeader(f.get(), config_hash, counts);

        uint64_t checksum = traceChecksum(nullptr, 0);
        for (size_t i = 0; ok && i < streams.size(); ++i)
            ok = writeSection(f.get(), streams[i],
                              static_cast<uint32_t>(i), checksum);
        ok = ok && patchChecksum(f.get(), checksum);
    }
    return commitOrDiscard(
        tmp, path, ok,
        tracePayloadOffset(static_cast<uint32_t>(streams.size())));
}

} // namespace stems::trace
