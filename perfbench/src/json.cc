#include "json.h"

#include <cmath>
#include <cstdio>

namespace perfbench {

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        case '\r': out += "\\r"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

JsonObject &
JsonObject::add(const std::string &key, double v)
{
    return addRaw(key, jsonNumber(v));
}

JsonObject &
JsonObject::add(const std::string &key, std::int64_t v)
{
    return addRaw(key, std::to_string(v));
}

JsonObject &
JsonObject::add(const std::string &key, bool v)
{
    return addRaw(key, v ? "true" : "false");
}

JsonObject &
JsonObject::add(const std::string &key, const char *v)
{
    return addRaw(key, jsonString(v));
}

JsonObject &
JsonObject::add(const std::string &key, const std::string &v)
{
    return addRaw(key, jsonString(v));
}

JsonObject &
JsonObject::add(const std::string &key, const JsonObject &v)
{
    return addRaw(key, v.str());
}

JsonObject &
JsonObject::addRaw(const std::string &key, std::string json)
{
    entries_.emplace_back(key, std::move(json));
    return *this;
}

JsonObject &
JsonObject::addAll(const std::map<std::string, double> &values)
{
    for (const auto &[key, v] : values)
        add(key, v);
    return *this;
}

std::string
JsonObject::str() const
{
    std::string out = "{";
    for (std::size_t i = 0; i < entries_.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += jsonString(entries_[i].first) + ": " + entries_[i].second;
    }
    return out + "}";
}

std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string out = "[";
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += items[i];
    }
    return out + "]";
}

} // namespace perfbench
