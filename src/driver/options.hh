/**
 * @file
 * key=value option bags shared by the experiment engine: the currency
 * of the CLI, config files, prefetcher factories and sweep axes.
 */

#ifndef STEMS_DRIVER_OPTIONS_HH
#define STEMS_DRIVER_OPTIONS_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace stems::driver {

/** Ordered option bag; string values are parsed on use. */
using Options = std::map<std::string, std::string>;

/** Unsigned option with default; throws std::invalid_argument. */
uint64_t optU64(const Options &o, const std::string &key, uint64_t def);

/** optU64 for 32-bit settings; also throws above UINT32_MAX. */
uint32_t optU32(const Options &o, const std::string &key, uint32_t def);

/** Floating-point option with default. */
double optDouble(const Options &o, const std::string &key, double def);

/** Boolean option: 1/0, true/false, on/off, yes/no. */
bool optBool(const Options &o, const std::string &key, bool def);

/** String option with default. */
std::string optStr(const Options &o, const std::string &key,
                   const std::string &def);

/** Split "a,b,c" on @p sep, dropping empty fields. */
std::vector<std::string> splitList(const std::string &s, char sep = ',');

/**
 * Split one "key=value" token; throws std::invalid_argument when no
 * '=' is present or the key is empty.
 */
std::pair<std::string, std::string> parseKeyValue(const std::string &tok);

/**
 * Read a config file of key=value lines ('#' comments and blank lines
 * ignored) into tokens; throws std::invalid_argument on I/O failure.
 */
std::vector<std::string> readConfigFile(const std::string &path);

} // namespace stems::driver

#endif // STEMS_DRIVER_OPTIONS_HH
