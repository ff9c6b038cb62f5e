// Per-test scratch directories for tests that write files.
//
// ctest runs every discovered gtest case as its own process, in parallel
// under `ctest -j`, so a fixed temp path shared by a suite lets one
// case's TearDown delete a sibling's files mid-run.  Naming the
// directory after the running test and the process id keeps them apart.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>

namespace mdn::test_util {

/// `<temp>/mdn_<suite>.<test>.<pid>` for the test running now (not
/// created).
inline std::filesystem::path unique_test_dir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = std::string("mdn_") + info->test_suite_name() + "." +
                     info->name() + "." + std::to_string(::getpid());
  std::replace(name.begin(), name.end(), '/', '_');  // parameterised names
  return std::filesystem::temp_directory_path() / name;
}

}  // namespace mdn::test_util
