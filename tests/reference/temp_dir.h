// Per-process scratch directory for tests that write files. ctest runs
// every gtest case as its own process, so under `ctest -j` a fixed name
// under ::testing::TempDir() is written by several cases at once; names
// under TestTempDir() cannot collide across processes.
#ifndef TPDB_TESTS_REFERENCE_TEMP_DIR_H_
#define TPDB_TESTS_REFERENCE_TEMP_DIR_H_

#include <string>

namespace tpdb::testing {

/// A directory private to this process (created on first use, removed
/// with its contents at process exit).
const std::string& TestTempDir();

}  // namespace tpdb::testing

#endif  // TPDB_TESTS_REFERENCE_TEMP_DIR_H_
