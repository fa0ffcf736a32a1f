/**
 * @file
 * parseNumber: the one strict parser behind every program's numeric
 * flags and arguments. A string is accepted only when all of it is one
 * in-range, finite number of the requested type.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "common/parse_number.hh"

namespace nord {
namespace {

TEST(ParseNumber, AcceptsWholeNumbersOfEachType)
{
    int i = 0;
    EXPECT_TRUE(parseNumber("-42", &i));
    EXPECT_EQ(i, -42);
    std::uint64_t u = 0;
    EXPECT_TRUE(parseNumber("18446744073709551615", &u));
    EXPECT_EQ(u, UINT64_MAX);
    double d = 0.0;
    EXPECT_TRUE(parseNumber("1e-4", &d));
    EXPECT_DOUBLE_EQ(d, 1e-4);
    EXPECT_TRUE(parseNumber(".5", &d));
    EXPECT_DOUBLE_EQ(d, 0.5);
    EXPECT_TRUE(parseNumber(std::string("0.30"), &d));
    EXPECT_DOUBLE_EQ(d, 0.30);
}

TEST(ParseNumber, RejectsEverythingElseAndLeavesTheOutputAlone)
{
    int i = 7;
    for (const char *bad : {"", "4x", " 4", "+4", "4 ", "two", "0x10",
                            "2147483648", "1.5"})
        EXPECT_FALSE(parseNumber(bad, &i)) << "'" << bad << "'";
    EXPECT_EQ(i, 7);

    std::uint64_t u = 7;
    for (const char *bad : {"-5", "-0", "18446744073709551616", "5e3"})
        EXPECT_FALSE(parseNumber(bad, &u)) << "'" << bad << "'";
    EXPECT_EQ(u, 7u);

    double d = 7.0;
    for (const char *bad : {"", "abc", "0.1x", "1s", " 1", "+1", "nan",
                            "inf", "-inf", "1e400", "1e-400", "0x1p3"})
        EXPECT_FALSE(parseNumber(bad, &d)) << "'" << bad << "'";
    EXPECT_EQ(d, 7.0);
}

}  // namespace
}  // namespace nord
