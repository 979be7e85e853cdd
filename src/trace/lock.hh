/**
 * @file
 * Advisory cross-process file lock (flock) guarding trace-spill
 * generation: when several dispatch workers miss the same .stmt file
 * at once, one generates while the rest block and then replay the
 * freshly written file — the whole point of sharing a spill dir.
 */

#ifndef STEMS_TRACE_LOCK_HH
#define STEMS_TRACE_LOCK_HH

#include <fcntl.h>
#include <string>
#include <sys/file.h>
#include <unistd.h>

namespace stems::trace {

/**
 * RAII exclusive flock on @p path (created if absent). Best effort:
 * when the lock file cannot be opened the guard is a no-op, matching
 * the spill machinery's fall-back-to-live-generation policy.
 *
 * The holder unlinks @p path before it releases the lock, so no lock
 * file outlives its guard. A waiter already blocked on the unlinked
 * inode still wakes on release, while a later arrival creates a fresh
 * file; the two may then hold "the" lock at once. Callers must
 * tolerate that: the TraceCache commits its spill before releasing,
 * so both replay it, and only after a failed write do both generate
 * (duplicate work, identical bytes).
 */
class FileLock
{
  public:
    explicit FileLock(const std::string &path)
        : path(path),
          fd(::open(path.c_str(), O_CREAT | O_RDWR | O_CLOEXEC, 0644))
    {
        if (fd >= 0 && ::flock(fd, LOCK_EX) != 0) {
            ::close(fd);
            fd = -1;
        }
    }

    ~FileLock()
    {
        if (fd >= 0) {
            ::unlink(path.c_str());
            ::flock(fd, LOCK_UN);
            ::close(fd);
        }
    }

    FileLock(const FileLock &) = delete;
    FileLock &operator=(const FileLock &) = delete;

    /** Whether the exclusive lock is actually held. */
    bool held() const { return fd >= 0; }

  private:
    std::string path;
    int fd;
};

} // namespace stems::trace

#endif // STEMS_TRACE_LOCK_HH
