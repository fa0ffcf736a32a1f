/**
 * @file
 * JSON string escaping shared by the campaign point specs and the
 * nord-lint CLI.
 *
 * Header-only and std-only, so the standalone nord-lint build includes it
 * without the simulator library.
 */

#ifndef NORD_COMMON_JSON_ESCAPE_HH
#define NORD_COMMON_JSON_ESCAPE_HH

#include <cstdio>
#include <string>

namespace nord {

/** Escape @p s for inclusion in a JSON string literal. */
inline std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

}  // namespace nord

#endif  // NORD_COMMON_JSON_ESCAPE_HH
