#pragma once
// Per-test temporary paths shared by every suite that touches the file
// system. ctest runs each gtest TEST as its own process and `ctest -j`
// runs those processes side by side, so a fixed name under the temp
// directory lets two tests clobber each other's files. Every path built
// here carries the running test's full name and the process id.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <string_view>

namespace te::test {

/// `<temp dir>/te_<Suite>_<Test>_<pid>_<name>`. `name` is appended as
/// given, so it may name a nested path.
[[nodiscard]] inline std::string unique_temp_path(std::string_view name) {
  std::string stem = "te";
  if (const auto* info =
          ::testing::UnitTest::GetInstance()->current_test_info()) {
    stem += std::string("_") + info->test_suite_name() + "_" + info->name();
  }
  // Parameterized test names contain '/'; keep the stem one component.
  std::replace(stem.begin(), stem.end(), '/', '_');
  stem += '_';
  stem += std::to_string(::getpid());
  stem += '_';
  stem += name;
  return (std::filesystem::temp_directory_path() / stem).string();
}

/// Temp file removed before use and on scope exit.
struct TmpFile {
  explicit TmpFile(std::string_view name) : path(unique_temp_path(name)) {
    std::filesystem::remove(path);
  }
  ~TmpFile() { std::filesystem::remove(path); }
  std::string path;
};

/// Fresh empty temp directory, removed with its contents on scope exit.
struct TmpDir {
  explicit TmpDir(std::string_view name) : path(unique_temp_path(name)) {
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TmpDir() { std::filesystem::remove_all(path); }
  std::string path;
};

}  // namespace te::test
