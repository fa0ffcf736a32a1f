/**
 * @file
 * One private scratch directory per test process.
 *
 * gtest's TempDir() is shared by every process on the host, so a fixed
 * name under it collides when two suites (from two build trees, say) run
 * at once: one run resumes from the other's checkpoint. testTempPath()
 * puts every name under a mkdtemp directory made on first use and removed
 * when the process that made it exits (a forked child leaves it alone).
 */

#ifndef NORD_TESTS_TEMP_DIR_HH
#define NORD_TESTS_TEMP_DIR_HH

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

namespace nord {

/** Path of @p name inside this process's scratch directory. */
inline std::string
testTempPath(const std::string &name)
{
    struct Root
    {
        std::string path;
        pid_t owner = getpid();

        Root() : path(::testing::TempDir() + "/nord-test-XXXXXX")
        {
            if (!mkdtemp(path.data())) {
                std::perror(path.c_str());
                std::abort();
            }
        }

        ~Root()
        {
            std::error_code ec;
            if (getpid() == owner)
                std::filesystem::remove_all(path, ec);
        }
    };
    static const Root root;
    return root.path + "/" + name;
}

}  // namespace nord

#endif  // NORD_TESTS_TEMP_DIR_HH
