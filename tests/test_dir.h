// Per-test scratch directory for tests that put a real store on disk.
//
// A TestDir names <tmp>/hcache_<prefix>_<pid>_<suite>_<test>, with every `/` of a
// parameterized suite or test name replaced by `_` so the whole tree hangs off one
// directory, creates it, and removes it with everything inside on destruction. Hold it
// as a fixture member declared before the stores that write into it, so they close
// first.
//
// A death-test child reruns the test's set-up in its own process and dies before any
// destructor runs. Its TestDir therefore nests inside the parent's directory, which
// the parent removes.
#ifndef HCACHE_TESTS_TEST_DIR_H_
#define HCACHE_TESTS_TEST_DIR_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>

namespace hcache {

// The pid of the process that started the test binary. It is published in the
// environment before main() so that a death-test child inherits it whether it is
// forked or re-executed (the "threadsafe" style).
inline const std::string kTestRunPid = [] {
  constexpr const char* kVar = "HCACHE_TEST_RUN_PID";
  if (const char* inherited = std::getenv(kVar)) {
    return std::string(inherited);
  }
  const std::string pid = std::to_string(::getpid());
  ::setenv(kVar, pid.c_str(), /*overwrite=*/1);
  return pid;
}();

class TestDir {
 public:
  explicit TestDir(const std::string& prefix) {
    const ::testing::TestInfo* info = ::testing::UnitTest::GetInstance()->current_test_info();
    std::string name = std::string(info->test_suite_name()) + "_" + info->name();
    std::replace(name.begin(), name.end(), '/', '_');
    path_ = std::filesystem::temp_directory_path() /
            ("hcache_" + prefix + "_" + kTestRunPid + "_" + name);
    const std::string pid = std::to_string(::getpid());
    if (pid != kTestRunPid) {
      path_ /= "death_child_" + pid;
    }
    std::filesystem::create_directories(path_);
  }
  ~TestDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TestDir(const TestDir&) = delete;
  TestDir& operator=(const TestDir&) = delete;

  std::filesystem::path operator/(const std::filesystem::path& child) const {
    return path_ / child;
  }

 private:
  std::filesystem::path path_;
};

}  // namespace hcache

#endif  // HCACHE_TESTS_TEST_DIR_H_
