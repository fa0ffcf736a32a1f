/**
 * @file
 * Strict text-to-number parsing for command lines.
 *
 * parseNumber() takes a string only when all of it is one number of the
 * requested type and in its range: no empty string, no leading space or
 * '+', no trailing text, no '-' for an unsigned type, and for floating
 * point no hexadecimal form, infinity or NaN. Every program's numeric
 * flags and arguments go through it, so they all accept the same text.
 */

#ifndef NORD_COMMON_PARSE_NUMBER_HH
#define NORD_COMMON_PARSE_NUMBER_HH

#include <charconv>
#include <cmath>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace nord {

/** Parse all of @p text as a T into *@p out; false (and *out untouched)
 *  on any other text. */
template <typename T>
bool
parseNumber(std::string_view text, T *out)
{
    static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>,
                  "parseNumber reads integers and floating point");
    T v{};
    const char *last = text.data() + text.size();
    const auto [end, ec] = std::from_chars(text.data(), last, v);
    if (ec != std::errc() || end != last)
        return false;
    if constexpr (std::is_floating_point_v<T>) {
        if (!std::isfinite(v))
            return false;
    }
    *out = v;
    return true;
}

}  // namespace nord

#endif  // NORD_COMMON_PARSE_NUMBER_HH
