/**
 * @file
 * Zero-materialization stream views over MemAccess sequences.
 *
 * A StreamView is a span-based read-only cursor over one per-CPU
 * reference stream. It can borrow an in-memory Trace, or point
 * straight into an mmap'd .stmt spill file (MappedTrace) — in which
 * case the records are consumed directly from the page cache with no
 * userspace copy, and pages behind the consumption cursor are dropped
 * with madvise(MADV_DONTNEED) so per-cell peak RSS stays independent
 * of trace length.
 *
 * A StreamSet bundles the per-CPU views of one workload generation
 * behind one ownership model (borrowed vectors, owned vectors, or a
 * shared mapped file) so the consumption path — InterleavedView,
 * study::runSystem, study::runL1Study, sim::runTiming — never needs to
 * know which backing it is iterating. Results are byte-identical
 * across backings by construction: every consumer walks the canonical
 * interleave schedule over the same record bytes.
 *
 * MappedTrace::open is the only .stmt reader. It validates the entire
 * file — magic, version, generator hash, section table, file size
 * revalidated after mapping, the full payload checksum, and that every
 * record's bool bytes hold 0 or 1 — before any view is handed out, so
 * a truncated, corrupted or hostile spill surfaces as a clean replay
 * failure (the TraceCache then regenerates), never as a SIGBUS or an
 * invalid bool mid-simulation.
 */

#ifndef STEMS_TRACE_STREAM_HH
#define STEMS_TRACE_STREAM_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "trace/access.hh"

namespace stems::trace {

// The zero-copy contract: a packed on-disk record (see trace/io.cc's
// PackedAccess, written field by field in this exact order) is
// byte-identical to the in-memory MemAccess, so a mapped file can be
// reinterpreted as a MemAccess array without decoding.
static_assert(sizeof(MemAccess) == 32, "on-disk record layout");
static_assert(std::is_trivially_copyable_v<MemAccess>);
static_assert(offsetof(MemAccess, pc) == 0);
static_assert(offsetof(MemAccess, addr) == 8);
static_assert(offsetof(MemAccess, cpu) == 16);
static_assert(offsetof(MemAccess, ninst) == 20);
static_assert(offsetof(MemAccess, dep) == 24);
static_assert(offsetof(MemAccess, size) == 28);
static_assert(offsetof(MemAccess, isWrite) == 30);
static_assert(offsetof(MemAccess, isKernel) == 31);

/**
 * A fully-validated read-only mapping of a .stmt spill file (format
 * v4, per-stream sections). open() refuses to hand out a mapping
 * unless every check passes; a live MappedTrace is therefore always
 * safe to read end to end.
 */
class MappedTrace
{
  public:
    MappedTrace(const MappedTrace &) = delete;
    MappedTrace &operator=(const MappedTrace &) = delete;
    ~MappedTrace();

    /**
     * Map and validate @p path. Returns null when the file is missing,
     * unmappable, truncated, of the wrong format version, carries a
     * different generator hash than @p expected_hash (0 = unchecked),
     * fails the payload checksum, or holds a record whose isWrite or
     * isKernel byte is neither 0 nor 1 (the checksum is no MAC, so a
     * hostile file can always carry a valid one). The validation
     * pass streams the payload with MADV_SEQUENTIAL/WILLNEED hints and
     * drops pages behind itself, so validating a multi-GB spill never
     * spikes RSS.
     */
    static std::shared_ptr<MappedTrace> open(const std::string &path,
                                             uint64_t expected_hash = 0);

    size_t numStreams() const { return counts.size(); }
    size_t streamCount(size_t i) const { return counts[i]; }
    const MemAccess *streamData(size_t i) const
    {
        return reinterpret_cast<const MemAccess *>(base + offsets[i]);
    }

    /** Mapped size in bytes (header + section table + payload). */
    size_t bytes() const { return size; }

    uint64_t
    totalRefs() const
    {
        uint64_t n = 0;
        for (size_t c : counts)
            n += c;
        return n;
    }

  private:
    MappedTrace() = default;

    const unsigned char *base = nullptr;
    size_t size = 0;
    std::vector<size_t> counts;   //!< records per stream section
    std::vector<size_t> offsets;  //!< section byte offsets from base
};

/**
 * Span-based read-only cursor over one stream. Borrowed views alias a
 * caller-owned Trace; mapped views alias a section of a shared
 * MappedTrace (and keep the mapping alive). consumed() is the
 * page-drop hook: callers report how far the cursor has advanced, and
 * mapped views drop fully-consumed pages so resident memory tracks the
 * interleave window, not the trace length.
 */
class StreamView
{
  public:
    StreamView() = default;

    /** Borrow an in-memory stream; the caller keeps it alive. */
    explicit StreamView(const Trace &t) : base_(t.data()), n_(t.size()) {}

    /** View section @p stream of @p m (shares ownership of the map). */
    StreamView(std::shared_ptr<MappedTrace> m, size_t stream)
        : base_(m->streamData(stream)), n_(m->streamCount(stream)),
          map_(std::move(m))
    {}

    const MemAccess *data() const { return base_; }
    size_t size() const { return n_; }
    bool mapped() const { return map_ != nullptr; }

    /**
     * The cursor has advanced past the first @p pos records; drop
     * fully-consumed pages of a mapped section (hint only — the pages
     * remain valid and refault from the page cache if re-read).
     */
    void consumed(size_t pos);

  private:
    const MemAccess *base_ = nullptr;
    size_t n_ = 0;
    std::shared_ptr<MappedTrace> map_;
    size_t dropped_ = 0;  //!< bytes already released behind the cursor
};

/**
 * The per-CPU stream bundle one workload generation hands to
 * consumers. Exactly one backing is active: borrowed (caller-owned
 * vectors), owned (vectors held here), or mapped (a shared
 * MappedTrace). views() mints fresh cursors — cheap, so every run
 * starts its own page-drop window.
 */
class StreamSet
{
  public:
    StreamSet() = default;

    /** Alias caller-owned streams (caller outlives the set). */
    static StreamSet
    borrowed(const std::vector<Trace> &s)
    {
        StreamSet set;
        set.borrowed_ = &s;
        return set;
    }

    /** Take ownership of materialised streams. */
    static StreamSet
    owned(std::vector<Trace> s)
    {
        StreamSet set;
        set.owned_ = std::move(s);
        set.hasOwned_ = true;
        return set;
    }

    /** Back every view by a validated mapped spill file. */
    static StreamSet
    mapped(std::shared_ptr<MappedTrace> m)
    {
        StreamSet set;
        set.map_ = std::move(m);
        return set;
    }

    bool isMapped() const { return map_ != nullptr; }

    size_t
    numStreams() const
    {
        if (map_)
            return map_->numStreams();
        return vectors() ? vectors()->size() : 0;
    }

    size_t
    streamSize(size_t i) const
    {
        return map_ ? map_->streamCount(i) : (*vectors())[i].size();
    }

    uint64_t
    totalRefs() const
    {
        if (map_)
            return map_->totalRefs();
        uint64_t n = 0;
        if (const auto *v = vectors())
            for (const auto &t : *v)
                n += t.size();
        return n;
    }

    /** Fresh per-stream cursors in stream order. */
    std::vector<StreamView>
    views() const
    {
        std::vector<StreamView> out;
        const size_t n = numStreams();
        out.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            if (map_)
                out.emplace_back(map_, i);
            else
                out.emplace_back(StreamView((*vectors())[i]));
        }
        return out;
    }

    /** The in-memory vectors, or null when backed by a mapping. */
    const std::vector<Trace> *
    vectors() const
    {
        if (borrowed_)
            return borrowed_;
        return hasOwned_ ? &owned_ : nullptr;
    }

  private:
    std::vector<Trace> owned_;
    bool hasOwned_ = false;
    const std::vector<Trace> *borrowed_ = nullptr;
    std::shared_ptr<MappedTrace> map_;
};

} // namespace stems::trace

#endif // STEMS_TRACE_STREAM_HH
