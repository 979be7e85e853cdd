#include "obs/counters.hh"

#include <sys/resource.h>

namespace stems::obs {

Counters &
Counters::get()
{
    static Counters c;
    return c;
}

void
Counters::reset()
{
#define STEMS_COUNTER_RESET(member, name) member = 0;
    STEMS_COUNTERS(STEMS_COUNTER_RESET)
#undef STEMS_COUNTER_RESET
}

std::vector<std::pair<std::string, uint64_t>>
snapshotCounters()
{
    const Counters &c = Counters::get();
    return {
#define STEMS_COUNTER_SNAPSHOT(member, name)                           \
    {name, c.member.load(std::memory_order_relaxed)},
        STEMS_COUNTERS(STEMS_COUNTER_SNAPSHOT)
#undef STEMS_COUNTER_SNAPSHOT
    };
}

uint64_t
peakRssKb()
{
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    // ru_maxrss is KB on Linux
    return static_cast<uint64_t>(ru.ru_maxrss);
}

} // namespace stems::obs
