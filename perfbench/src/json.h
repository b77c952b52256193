/**
 * @file
 * Minimal JSON emission for result files and trace export.
 *
 * The benchmark only writes JSON (run.py and compare.py read it), so
 * a tiny builder is enough: a JsonObject collects key/value pairs in
 * insertion order and renders them; numbers print with all 17
 * significant digits so a value reads back exactly as measured.
 */
#ifndef PERFBENCH_JSON_H
#define PERFBENCH_JSON_H

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** @p s as a quoted, escaped JSON string. */
std::string jsonString(const std::string &s);

/** @p v as a JSON number (17 significant digits); non-finite -> null. */
std::string jsonNumber(double v);

/** An ordered JSON object under construction. */
class JsonObject
{
  public:
    JsonObject &add(const std::string &key, double v);
    JsonObject &add(const std::string &key, std::int64_t v);
    JsonObject &add(const std::string &key, int v)
    { return add(key, static_cast<std::int64_t>(v)); }
    JsonObject &add(const std::string &key, bool v);
    JsonObject &add(const std::string &key, const char *v);
    JsonObject &add(const std::string &key, const std::string &v);
    JsonObject &add(const std::string &key, const JsonObject &v);
    /** Insert pre-rendered JSON (an array, say) verbatim. */
    JsonObject &addRaw(const std::string &key, std::string json);
    /** Every entry of @p values as a number. */
    JsonObject &addAll(const std::map<std::string, double> &values);

    bool empty() const { return entries_.empty(); }
    std::string str() const;

  private:
    std::vector<std::pair<std::string, std::string>> entries_;
};

/** Render already-rendered JSON values as an array. */
std::string jsonArray(const std::vector<std::string> &items);

} // namespace perfbench

#endif // PERFBENCH_JSON_H
