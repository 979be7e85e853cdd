#include "driver/options.hh"

#include <fstream>
#include <stdexcept>

namespace stems::driver {

namespace {

const std::string *
find(const Options &o, const std::string &key)
{
    auto it = o.find(key);
    return it == o.end() ? nullptr : &it->second;
}

[[noreturn]] void
badValue(const std::string &key, const std::string &value,
         const char *want)
{
    throw std::invalid_argument("option " + key + "=" + value +
                                ": expected " + want);
}

} // anonymous namespace

uint64_t
optU64(const Options &o, const std::string &key, uint64_t def)
{
    const std::string *v = find(o, key);
    if (!v)
        return def;
    try {
        size_t pos = 0;
        uint64_t out = std::stoull(*v, &pos, 0);
        if (pos != v->size())
            badValue(key, *v, "an unsigned integer");
        return out;
    } catch (const std::invalid_argument &) {
        badValue(key, *v, "an unsigned integer");
    } catch (const std::out_of_range &) {
        badValue(key, *v, "an unsigned integer in range");
    }
}

uint32_t
optU32(const Options &o, const std::string &key, uint32_t def)
{
    const uint64_t v = optU64(o, key, def);
    if (v > UINT32_MAX)
        badValue(key, o.at(key), "an unsigned 32-bit integer");
    return static_cast<uint32_t>(v);
}

double
optDouble(const Options &o, const std::string &key, double def)
{
    const std::string *v = find(o, key);
    if (!v)
        return def;
    try {
        size_t pos = 0;
        double out = std::stod(*v, &pos);
        if (pos != v->size())
            badValue(key, *v, "a number");
        return out;
    } catch (const std::invalid_argument &) {
        badValue(key, *v, "a number");
    } catch (const std::out_of_range &) {
        badValue(key, *v, "a number in range");
    }
}

bool
optBool(const Options &o, const std::string &key, bool def)
{
    const std::string *v = find(o, key);
    if (!v)
        return def;
    if (*v == "1" || *v == "true" || *v == "on" || *v == "yes")
        return true;
    if (*v == "0" || *v == "false" || *v == "off" || *v == "no")
        return false;
    badValue(key, *v, "a boolean (1/0, true/false, on/off)");
}

std::string
optStr(const Options &o, const std::string &key, const std::string &def)
{
    const std::string *v = find(o, key);
    return v ? *v : def;
}

std::vector<std::string>
splitList(const std::string &s, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        size_t end = s.find(sep, start);
        if (end == std::string::npos)
            end = s.size();
        if (end > start)
            out.push_back(s.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

std::pair<std::string, std::string>
parseKeyValue(const std::string &tok)
{
    size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0)
        throw std::invalid_argument("expected key=value, got \"" + tok +
                                    "\"");
    return {tok.substr(0, eq), tok.substr(eq + 1)};
}

std::vector<std::string>
readConfigFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::invalid_argument("cannot read config file: " + path);
    std::vector<std::string> tokens;
    std::string line;
    while (std::getline(in, line)) {
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;
        size_t last = line.find_last_not_of(" \t\r");
        tokens.push_back(line.substr(first, last - first + 1));
    }
    return tokens;
}

} // namespace stems::driver
