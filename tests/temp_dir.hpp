// Per-process scratch directory for tests.
//
// ctest runs every gtest case as its own process, several at once under
// `ctest -j`, so a fixed path under testing::TempDir() would be shared by
// concurrent cases that remove_all and rewrite it. The pid suffix gives
// each process its own tree, which is removed when the process exits.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace tls::testutil {

/// Created on first use; every test path should live below it.
inline const std::filesystem::path& temp_dir() {
  struct Dir {
    std::filesystem::path path;
    Dir()
        : path(std::filesystem::path(::testing::TempDir()) /
               ("tls_test_" + std::to_string(::getpid()))) {
      std::filesystem::create_directories(path);
    }
    ~Dir() {
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

}  // namespace tls::testutil
