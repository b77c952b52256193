#include "runtime/flags.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <type_traits>
#include <utility>

namespace gcc3d::flags {

namespace {

std::string
formatValue(const std::string &v)
{
    return v;
}

template <class T>
std::string
formatValue(T v)
{
    if constexpr (std::is_floating_point_v<T>) {
        // Shortest text that reads back as the same value.
        char buf[64];
        return std::string(buf, std::to_chars(buf, buf + 64, v).ptr);
    } else {
        return std::to_string(v);
    }
}

template <class T>
std::string
formatValue(const std::vector<T> &items)
{
    std::string out;
    for (const T &v : items)
        out.append(out.empty() ? "" : ",").append(formatValue(v));
    return out;
}

std::string
formatBound(double v)
{
    return std::isinf(v) ? (v < 0 ? "-inf" : "inf") : formatValue(v);
}

std::string
parseInto(const std::string &text, const Range &, std::string *out)
{
    *out = text;
    return {};
}

template <class T>
std::string
parseInto(const std::string &text, const Range &range, T *out)
{
    return parseValue(text, range, out);
}

template <class T>
std::string
parseInto(const std::string &text, const Range &range, std::vector<T> *out)
{
    std::vector<T> items;
    for (const std::string &item : splitList(text)) {
        std::string err = parseValue(item, range, &items.emplace_back());
        if (!err.empty())
            return err;
    }
    *out = std::move(items);
    return {};
}

/** @p head padded to the help column, then @p text word-wrapped. */
std::string
wrapEntry(const std::string &head, const std::string &text)
{
    constexpr std::size_t kIndent = 24, kWidth = 79;
    const std::string indent(kIndent, ' ');
    std::string out = head;
    if (head.size() + 2 > kIndent)
        out.append("\n").append(indent);
    else
        out.append(kIndent - head.size(), ' ');
    std::size_t col = kIndent;
    std::istringstream words(text);
    for (std::string word; words >> word; col += word.size()) {
        if (col > kIndent && col + 1 + word.size() > kWidth) {
            out.append("\n").append(indent);
            col = kIndent;
        } else if (col > kIndent) {
            out += ' ';
            ++col;
        }
        out += word;
    }
    return out + "\n";
}

} // namespace

bool
Range::contains(double v) const
{
    return (lo_open ? v > lo : v >= lo) && (hi_open ? v < hi : v <= hi);
}

std::string
Range::text() const
{
    return std::string(lo_open || std::isinf(lo) ? "(" : "[") +
           formatBound(lo) + "," + formatBound(hi) +
           (hi_open || std::isinf(hi) ? ")" : "]");
}

template <class T>
std::string
parseValue(const std::string &text, const Range &range, T *out)
{
    const std::string quoted = "'" + text + "'";
    const std::string bad =
        quoted + (std::is_floating_point_v<T> ? " is not a finite number"
                  : std::is_unsigned_v<T>     ? " is not a non-negative integer"
                                              : " is not an integer");
    // strto* skip leading whitespace, and strtoull wraps "-1".
    if (text.empty() || std::isspace(static_cast<unsigned char>(text[0])) ||
        (std::is_unsigned_v<T> && text[0] == '-'))
        return bad;
    const char *begin = text.c_str();
    char *end = nullptr;
    errno = 0;
    bool fits = true, finite = true;
    T v{};
    if constexpr (std::is_floating_point_v<T>) {
        const double d = std::strtod(begin, &end);
        finite = std::isfinite(d);
        fits = !finite || std::fabs(d) <= std::numeric_limits<T>::max();
        if (finite && fits)
            v = static_cast<T>(d);
    } else if constexpr (std::is_unsigned_v<T>) {
        const unsigned long long u = std::strtoull(begin, &end, 10);
        fits = u <= std::numeric_limits<T>::max();
        v = static_cast<T>(u);
    } else {
        const long long s = std::strtoll(begin, &end, 10);
        fits = s >= std::numeric_limits<T>::min() &&
               s <= std::numeric_limits<T>::max();
        v = static_cast<T>(s);
    }
    if (end != begin + text.size())
        return bad;
    if (errno == ERANGE || !fits)
        return quoted + " is out of range";
    if (!finite)
        return bad;
    if (!range.contains(static_cast<double>(v)))
        return quoted + " is outside " + range.text();
    *out = v;
    return {};
}

template <class T>
void
fromEnv(const char *name, const Range &range, T *value)
{
    const char *env = std::getenv(name);
    const std::string err = env ? parseValue(env, range, value) : "";
    if (!err.empty()) {
        std::fprintf(stderr, "%s: %s\n", name, err.c_str());
        std::exit(2);
    }
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::istringstream list(text);
    for (std::string item; std::getline(list, item, ',');)
        if (!item.empty())
            out.push_back(item);
    return out;
}

template <class T>
Range &
Parser::add(const std::string &spec, T *value, std::string help)
{
    const std::size_t space = spec.find(' ');
    Flag &f = flags_.emplace_back();
    f.name = spec.substr(0, space);
    f.metavar = space == std::string::npos ? "" : spec.substr(space + 1);
    f.help = std::move(help);
    if constexpr (std::is_same_v<T, bool>) {
        f.on = value;
    } else {
        f.default_text = formatValue(*value);
        f.set = [value](const std::string &text, const Range &r) {
            return parseInto(text, r, value);
        };
    }
    return f.range;
}

Parser::Result
Parser::parse(int argc, const char *const *argv)
{
    using Status = Result::Status;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return {Status::Help, {}};
        const std::string name = arg.substr(0, arg.find('='));
        const Flag *f = nullptr;
        for (const Flag &candidate : flags_)
            if (candidate.name == name)
                f = &candidate;
        if (f == nullptr)
            return {Status::Error, "unknown flag " + arg};
        if (name.size() != arg.size())
            return {Status::Error,
                    name + (f->on ? " takes no value"
                                  : " takes its value as the next "
                                    "argument")};
        if (f->on != nullptr) {
            *f->on = true;
            continue;
        }
        if (i + 1 >= argc)
            return {Status::Error, "missing value for " + name};
        const std::string err = f->set(argv[++i], f->range);
        if (!err.empty())
            return {Status::Error, name + ": " + err};
    }
    return {};
}

void
Parser::parseOrExit(int argc, const char *const *argv)
{
    const std::string program = argc > 0 ? argv[0] : "gcc3d";
    const Result r = parse(argc, argv);
    if (r.status == Result::Status::Help) {
        std::fputs(usage(program).c_str(), stdout);
        std::exit(0);
    }
    if (r.status == Result::Status::Error) {
        std::fprintf(stderr, "%s: %s (see --help)\n",
                     program.substr(program.find_last_of('/') + 1).c_str(),
                     r.message.c_str());
        std::exit(2);
    }
}

std::string
Parser::usage(const std::string &program) const
{
    std::string out = "usage: " + program + " [options]\n";
    for (const Flag &f : flags_) {
        std::string head = "  " + f.name, text = f.help;
        if (!f.metavar.empty())
            head.append(" ").append(f.metavar);
        if (!std::isinf(f.range.lo) || !std::isinf(f.range.hi))
            text.append(" ").append(f.range.text());
        if (!f.default_text.empty())
            text.append(" (default: ").append(f.default_text).append(")");
        out += wrapEntry(head, text);
    }
    return out + wrapEntry("  -h, --help", "print this text");
}

#define GCC3D_FLAGS_NUMBER(T)                                              \
    template std::string parseValue(const std::string &, const Range &,    \
                                    T *);                                  \
    template Range &Parser::add(const std::string &, T *, std::string);
GCC3D_FLAGS_NUMBER(int)
GCC3D_FLAGS_NUMBER(std::int64_t)
GCC3D_FLAGS_NUMBER(std::uint64_t)
GCC3D_FLAGS_NUMBER(double)
GCC3D_FLAGS_NUMBER(float)
#undef GCC3D_FLAGS_NUMBER
template Range &Parser::add(const std::string &, std::vector<int> *,
                            std::string);
template Range &Parser::add(const std::string &, std::vector<double> *,
                            std::string);
template Range &Parser::add(const std::string &, std::string *, std::string);
template Range &Parser::add(const std::string &, bool *, std::string);
template void fromEnv(const char *, const Range &, int *);
template void fromEnv(const char *, const Range &, float *);

} // namespace gcc3d::flags
