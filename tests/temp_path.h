/**
 * @file
 * Self-deleting temp file path for suites that write record files.
 */

#ifndef GRIT_TESTS_TEMP_PATH_H_
#define GRIT_TESTS_TEMP_PATH_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

namespace grit::test {

/**
 * A path in the test temp directory. The file and its `.quarantine`
 * sidecar are removed when the path is made and when it goes away.
 */
class TempPath
{
  public:
    explicit TempPath(const std::string &name)
        : path_(std::string(::testing::TempDir()) + name)
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".quarantine").c_str());
    }
    ~TempPath()
    {
        std::remove(path_.c_str());
        std::remove((path_ + ".quarantine").c_str());
    }
    TempPath(const TempPath &) = delete;
    TempPath &operator=(const TempPath &) = delete;

    const std::string &str() const { return path_; }

  private:
    std::string path_;
};

}  // namespace grit::test

#endif  // GRIT_TESTS_TEMP_PATH_H_
