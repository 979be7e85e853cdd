/**
 * @file
 * Huge-page-backed array storage for the simulator's big flat tables
 * (directory entry maps, L2 tag arrays). Their probes are uniformly
 * random over tens of megabytes, so with 4 KiB pages nearly every
 * probe adds a dTLB miss on top of the data-cache miss; backing the
 * arrays with 2 MiB transparent huge pages drops the page count by
 * 512x. Falls back to plain allocation when THP or the platform
 * support is unavailable — behaviour is identical either way.
 */

#ifndef STEMS_UTIL_HUGEPAGE_HH
#define STEMS_UTIL_HUGEPAGE_HH

#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace stems::util {

/**
 * A fixed-size value-initialized array on its own 2 MiB-aligned
 * mapping with MADV_HUGEPAGE when the request is large enough to
 * benefit.
 */
template <typename T>
class HugeArray
{
  public:
    HugeArray() = default;

    explicit HugeArray(size_t count) { reset(count); }

    HugeArray(HugeArray &&o) noexcept { swap(o); }

    HugeArray &
    operator=(HugeArray &&o) noexcept
    {
        if (this != &o) {
            release();
            swap(o);
        }
        return *this;
    }

    HugeArray(const HugeArray &) = delete;
    HugeArray &operator=(const HugeArray &) = delete;

    ~HugeArray() { release(); }

    /** Drop the current storage and allocate @p count elements. */
    void
    reset(size_t count)
    {
        release();
        if (count == 0)
            return;
        n = count;
        const size_t bytes = count * sizeof(T);
#if defined(__linux__)
        if (bytes >= kHugeThreshold) {
            // a mapping of its own: munmap returns the table to the OS
            // on release, where malloc may keep a freed block in the
            // freeing thread's arena, inflating peak RSS when several
            // threads build tables
            const size_t rounded =
                (bytes + kHugePage - 1) & ~(kHugePage - 1);
            void *raw = ::mmap(nullptr, rounded + kHugePage,
                               PROT_READ | PROT_WRITE,
                               MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (raw != MAP_FAILED) {
                // keep the 2 MiB-aligned window, unmap the slack
                char *base = static_cast<char *>(raw);
                char *start = base +
                    (kHugePage - reinterpret_cast<uintptr_t>(base) %
                         kHugePage) % kHugePage;
                if (start > base)
                    ::munmap(base, static_cast<size_t>(start - base));
                ::munmap(start + rounded,
                         static_cast<size_t>(base + kHugePage - start));
                ::madvise(start, rounded, MADV_HUGEPAGE);
                p = reinterpret_cast<T *>(start);
                mapped = rounded;
            }
        }
#endif
        if (!p)
            p = static_cast<T *>(
                ::operator new(bytes, std::align_val_t{64}));
        // a fresh mapping is zero-filled, which is already a value-
        // initialized arithmetic array: skip a second pass over it
        if (!(mapped && std::is_arithmetic_v<T>))
            std::uninitialized_value_construct_n(p, n);
    }

    /** Release storage (empty state). */
    void
    release()
    {
        if (!p)
            return;
        std::destroy_n(p, n);
#if defined(__linux__)
        if (mapped)
            ::munmap(p, mapped);
        else
#endif
            ::operator delete(p, std::align_val_t{64});
        p = nullptr;
        n = 0;
        mapped = 0;
    }

    T *get() const { return p; }
    T &operator[](size_t i) const { return p[i]; }
    size_t size() const { return n; }
    explicit operator bool() const { return p != nullptr; }
    T *begin() const { return p; }
    T *end() const { return p + n; }

  private:
    static constexpr size_t kHugePage = size_t{2} << 20;
    static constexpr size_t kHugeThreshold = size_t{1} << 20;

    void
    swap(HugeArray &o) noexcept
    {
        std::swap(p, o.p);
        std::swap(n, o.n);
        std::swap(mapped, o.mapped);
    }

    T *p = nullptr;
    size_t n = 0;
    size_t mapped = 0;  //!< bytes mapped by mmap (0: operator new)
};

} // namespace stems::util

#endif // STEMS_UTIL_HUGEPAGE_HH
