/**
 * @file
 * Campaign journal implementation (see journal.hh for the format and the
 * crash-safety rules).
 */

#include "campaign/journal.hh"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "ckpt/checkpoint.hh"
#include "common/log.hh"

#ifndef _WIN32
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#endif

namespace nord {
namespace campaign {

namespace {

void
setErr(std::string *err, std::string what)
{
    if (err)
        *err = std::move(what);
}

// --- JSON helpers -------------------------------------------------------

std::string
jsonUnescape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (size_t i = 0; i < s.size(); ++i) {
        if (s[i] != '\\' || i + 1 >= s.size()) {
            out += s[i];
            continue;
        }
        const char e = s[++i];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (i + 4 < s.size()) {
                unsigned v = 0;
                bool ok = true;
                for (int k = 1; k <= 4; ++k) {
                    const char h = s[i + static_cast<size_t>(k)];
                    v <<= 4;
                    if (h >= '0' && h <= '9')
                        v |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        v |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        v |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        ok = false;
                }
                if (ok && v < 0x100) {
                    out += static_cast<char>(v);
                    i += 4;
                    break;
                }
            }
            out += "\\u";  // tolerate: pass through
            break;
          default:
            out += '\\';
            out += e;
        }
    }
    return out;
}

/**
 * Offset of the value for "key": in @p line, or npos. Searching for the
 * quoted key is unambiguous in the journal's own output: string values
 * are escaped, so a literal  "key":  sequence cannot hide inside one.
 */
size_t
valueOffset(const std::string &line, const std::string &key)
{
    const std::string needle = "\"" + key + "\":";
    const size_t at = line.find(needle);
    if (at == std::string::npos)
        return std::string::npos;
    return at + needle.size();
}

/** End of the raw value starting at @p from (brace/string aware). */
size_t
valueEnd(const std::string &line, size_t from)
{
    if (from >= line.size())
        return std::string::npos;
    if (line[from] == '"') {
        for (size_t i = from + 1; i < line.size(); ++i) {
            if (line[i] == '\\')
                ++i;
            else if (line[i] == '"')
                return i + 1;
        }
        return std::string::npos;
    }
    if (line[from] == '{' || line[from] == '[') {
        int depth = 0;
        bool inStr = false;
        for (size_t i = from; i < line.size(); ++i) {
            const char c = line[i];
            if (inStr) {
                if (c == '\\')
                    ++i;
                else if (c == '"')
                    inStr = false;
            } else if (c == '"') {
                inStr = true;
            } else if (c == '{' || c == '[') {
                ++depth;
            } else if (c == '}' || c == ']') {
                if (--depth == 0)
                    return i + 1;
            }
        }
        return std::string::npos;
    }
    // Number / bare literal: up to the next comma or closing brace.
    size_t i = from;
    while (i < line.size() && line[i] != ',' && line[i] != '}' &&
           line[i] != ']')
        ++i;
    return i;
}

}  // namespace

bool
jsonFieldRaw(const std::string &line, const std::string &key,
             std::string *out)
{
    const size_t from = valueOffset(line, key);
    if (from == std::string::npos)
        return false;
    const size_t end = valueEnd(line, from);
    if (end == std::string::npos || end <= from)
        return false;
    *out = line.substr(from, end - from);
    return true;
}

namespace {

bool
jsonFieldString(const std::string &line, const std::string &key,
                std::string *out)
{
    std::string raw;
    if (!jsonFieldRaw(line, key, &raw) || raw.size() < 2 ||
        raw.front() != '"' || raw.back() != '"')
        return false;
    *out = jsonUnescape(raw.substr(1, raw.size() - 2));
    return true;
}

bool
jsonFieldU64(const std::string &line, const std::string &key,
             std::uint64_t *out)
{
    std::string raw;
    if (!jsonFieldRaw(line, key, &raw) || raw.empty())
        return false;
    std::uint64_t v = 0;
    for (char c : raw) {
        if (c < '0' || c > '9')
            return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    *out = v;
    return true;
}

bool
jsonFieldBool(const std::string &line, const std::string &key,
              bool *out)
{
    std::string raw;
    if (!jsonFieldRaw(line, key, &raw))
        return false;
    if (raw == "true") {
        *out = true;
        return true;
    }
    if (raw == "false") {
        *out = false;
        return true;
    }
    return false;
}

}  // namespace

// --- Journal ------------------------------------------------------------

CampaignJournal::~CampaignJournal()
{
    close();
}

namespace {

/** The "open" header line (without trailing newline). */
std::string
openLine(std::uint64_t points, std::uint64_t gridFp)
{
    return detail::formatString(
        "{\"event\":\"open\",\"format\":%d,\"points\":%llu,"
        "\"gridFp\":%llu}",
        kJournalFormat, static_cast<unsigned long long>(points),
        static_cast<unsigned long long>(gridFp));
}

/**
 * Parse the complete lines of @p content into @p replay. Returns false
 * when the first line is not a matching "open" header for (@p points,
 * @p gridFp).
 */
bool
replayContent(const std::string &content, std::uint64_t points,
              std::uint64_t gridFp, ReplayState *replay, std::string *err)
{
    replay->perPoint.clear();
    replay->opened = false;
    replay->events = 0;
    replay->tornTail = false;
    replay->completeBytes = 0;

    size_t from = 0;
    bool first = true;
    while (from < content.size()) {
        const size_t nl = content.find('\n', from);
        if (nl == std::string::npos) {
            // Torn final line: a crash or ENOSPC interrupted an append.
            // The event never took effect; resume as if it never ran.
            replay->tornTail = true;
            break;
        }
        const std::string line = content.substr(from, nl - from);
        from = nl + 1;
        replay->completeBytes = from;
        if (line.empty())
            continue;

        std::string event;
        if (!jsonFieldString(line, "event", &event)) {
            setErr(err, "journal line without an event field: " + line);
            return false;
        }
        if (first) {
            if (event != "open") {
                setErr(err, "journal does not start with an open header");
                return false;
            }
            std::uint64_t pts = 0;
            std::uint64_t fp = 0;
            std::uint64_t fmt = 0;
            if (!jsonFieldU64(line, "points", &pts) ||
                !jsonFieldU64(line, "gridFp", &fp) ||
                !jsonFieldU64(line, "format", &fmt)) {
                setErr(err, "malformed journal open header");
                return false;
            }
            if (fmt != static_cast<std::uint64_t>(kJournalFormat)) {
                setErr(err, detail::formatString(
                                "journal format %llu, this build reads %d",
                                static_cast<unsigned long long>(fmt),
                                kJournalFormat));
                return false;
            }
            if (pts != points || fp != gridFp) {
                setErr(err, detail::formatString(
                                "journal belongs to a different campaign "
                                "(points %llu fp %llu, expected %llu/%llu)",
                                static_cast<unsigned long long>(pts),
                                static_cast<unsigned long long>(fp),
                                static_cast<unsigned long long>(points),
                                static_cast<unsigned long long>(gridFp)));
                return false;
            }
            replay->opened = true;
            replay->points = pts;
            replay->gridFp = fp;
            replay->events += 1;
            first = false;
            continue;
        }

        std::uint64_t point = 0;
        const bool hasPoint = jsonFieldU64(line, "point", &point);
        if (event == "attempt" && hasPoint) {
            std::uint64_t launch = 0;
            ReplayPoint &p = replay->perPoint[point];
            if (jsonFieldU64(line, "launch", &launch))
                p.launches = std::max(p.launches,
                                      static_cast<int>(launch));
            else
                p.launches += 1;
        } else if (event == "done" && hasPoint) {
            ReplayPoint &p = replay->perPoint[point];
            std::string result;
            if (!jsonFieldRaw(line, "result", &result)) {
                setErr(err, "done event without a result: " + line);
                return false;
            }
            p.done = true;
            p.resultLine = std::move(result);
        } else if (event == "fail" && hasPoint) {
            ReplayPoint &p = replay->perPoint[point];
            bool counted = true;
            if (jsonFieldBool(line, "counted", &counted) && !counted) {
                // chaos kill / executor-inflicted: not charged
            } else {
                p.countedFailures += 1;
            }
        } else if (event == "quarantine" && hasPoint) {
            ReplayPoint &p = replay->perPoint[point];
            p.quarantined = true;
            QuarantineRecord &q = p.quarantine;
            std::string cls;
            if (jsonFieldString(line, "class", &cls))
                q.cls = failureClassFromName(cls.c_str());
            std::uint64_t v = 0;
            if (jsonFieldU64(line, "exit", &v))
                q.exitCode = static_cast<int>(v);
            if (jsonFieldU64(line, "signal", &v))
                q.signal = static_cast<int>(v);
            std::string s;
            if (jsonFieldString(line, "stderrTail", &s))
                q.stderrTail = std::move(s);
            if (jsonFieldString(line, "ckpt", &s))
                q.ckptPath = std::move(s);
        }
        // Unknown events are skipped: newer writers stay replayable.
        replay->events += 1;
    }
    if (first) {
        setErr(err, "journal is empty");
        return false;
    }
    return true;
}

}  // namespace

bool
CampaignJournal::fail(const std::string &what)
{
    if (error_.empty())
        error_ = what;
    return false;
}

bool
CampaignJournal::appendLine(const std::string &line)
{
    if (!ok())
        return false;
    if (!file_)
        return fail("journal is not open");
    const std::string withNl = line + "\n";
    bool wrote = std::fwrite(withNl.data(), 1, withNl.size(), file_) ==
                 withNl.size();
    wrote = (std::fflush(file_) == 0) && wrote;
#ifndef _WIN32
    wrote = (fsync(fileno(file_)) == 0) && wrote;
#endif
    if (!wrote)
        return fail(detail::formatString("journal append to %s failed: %s",
                                         path_.c_str(),
                                         std::strerror(errno)));
    return true;
}

bool
CampaignJournal::open(const std::string &path, std::uint64_t points,
                      std::uint64_t gridFp, ReplayState *replay,
                      std::string *err)
{
    close();
    path_ = path;
    error_.clear();

#ifndef _WIN32
    lockFd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
    if (lockFd_ < 0) {
        setErr(err, detail::formatString("cannot open journal %s: %s",
                                         path.c_str(),
                                         std::strerror(errno)));
        return false;
    }
    if (flock(lockFd_, LOCK_EX | LOCK_NB) != 0) {
        setErr(err, detail::formatString(
                        "journal %s is locked (another executor is running "
                        "this campaign)",
                        path.c_str()));
        ::close(lockFd_);
        lockFd_ = -1;
        return false;
    }
#endif

    std::string content;
    {
        std::ifstream in(path, std::ios::in | std::ios::binary);
        if (in) {
            std::ostringstream buf;
            buf << in.rdbuf();
            content = buf.str();
        }
    }

    if (!content.empty()) {
        if (!replayContent(content, points, gridFp, replay, err)) {
            close();
            return false;
        }
        if (replay->tornTail) {
            // Chop the torn fragment: the interrupted append never took
            // effect, and leaving it would glue the next event onto a
            // garbage prefix.
#ifndef _WIN32
            if (ftruncate(lockFd_,
                          static_cast<off_t>(replay->completeBytes)) !=
                0) {
                setErr(err, detail::formatString(
                                "cannot truncate torn journal tail in "
                                "%s: %s",
                                path.c_str(), std::strerror(errno)));
                close();
                return false;
            }
#endif
        }
    } else {
        replay->perPoint.clear();
        replay->opened = false;
        replay->events = 0;
        replay->tornTail = false;
    }

    file_ = std::fopen(path.c_str(), "ab");
    if (!file_) {
        setErr(err, detail::formatString("cannot append to journal %s: %s",
                                         path.c_str(),
                                         std::strerror(errno)));
        close();
        return false;
    }
    if (content.empty()) {
        if (!appendLine(openLine(points, gridFp))) {
            setErr(err, error_);
            close();
            return false;
        }
        replay->opened = true;
        replay->points = points;
        replay->gridFp = gridFp;
        replay->events = 1;
    }
    return true;
}

bool
CampaignJournal::appendAttempt(std::uint64_t point, int launch)
{
    return appendLine(detail::formatString(
        "{\"event\":\"attempt\",\"point\":%llu,\"launch\":%d}",
        static_cast<unsigned long long>(point), launch));
}

bool
CampaignJournal::appendDone(std::uint64_t point,
                            const std::string &resultLine)
{
    return appendLine(detail::formatString(
                          "{\"event\":\"done\",\"point\":%llu,"
                          "\"result\":",
                          static_cast<unsigned long long>(point)) +
                      resultLine + "}");
}

bool
CampaignJournal::appendFail(std::uint64_t point, FailureClass cls,
                            int exitCode, int signal, bool counted,
                            const std::string &stderrTail,
                            const std::string &ckptPath)
{
    return appendLine(detail::formatString(
                          "{\"event\":\"fail\",\"point\":%llu,"
                          "\"class\":\"%s\",\"exit\":%d,\"signal\":%d,"
                          "\"counted\":%s,\"ckpt\":\"",
                          static_cast<unsigned long long>(point),
                          failureClassName(cls), exitCode, signal,
                          counted ? "true" : "false") +
                      jsonEscape(ckptPath) + "\",\"stderrTail\":\"" +
                      jsonEscape(stderrTail) + "\"}");
}

bool
CampaignJournal::appendQuarantine(std::uint64_t point,
                                  const QuarantineRecord &rec)
{
    return appendLine(detail::formatString(
                          "{\"event\":\"quarantine\",\"point\":%llu,"
                          "\"class\":\"%s\",\"exit\":%d,\"signal\":%d,"
                          "\"ckpt\":\"",
                          static_cast<unsigned long long>(point),
                          failureClassName(rec.cls), rec.exitCode,
                          rec.signal) +
                      jsonEscape(rec.ckptPath) + "\",\"stderrTail\":\"" +
                      jsonEscape(rec.stderrTail) + "\"}");
}

void
CampaignJournal::close()
{
    if (file_) {
        if (std::fclose(file_) != 0) {
            // Appends are individually flushed+fsync'd; a close failure
            // cannot lose an acknowledged event.
        }
        file_ = nullptr;
    }
#ifndef _WIN32
    if (lockFd_ >= 0) {
        ::close(lockFd_);
        lockFd_ = -1;
    }
#endif
}

}  // namespace campaign
}  // namespace nord
