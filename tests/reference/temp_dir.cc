#include "tests/reference/temp_dir.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <system_error>

namespace tpdb::testing {

namespace {

/// Owns the directory; its destructor runs at process exit.
struct ProcessDir {
  ProcessDir()
      : path(::testing::TempDir() + "/tpdb_test_" +
             std::to_string(static_cast<long long>(::getpid()))) {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);  // left by a crashed namesake
    std::filesystem::create_directories(path, ec);
  }
  ~ProcessDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

}  // namespace

const std::string& TestTempDir() {
  static const ProcessDir dir;
  return dir.path;
}

}  // namespace tpdb::testing
