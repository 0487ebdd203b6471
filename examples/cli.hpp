// Minimal flag scanning shared by the examples.
//
// The examples spell the paper's experiment knobs as positional arguments
// and a handful of common "--name value" / "--name" options (--obs,
// --metrics-json, --record, ...). This keeps the parsing in one place
// without pulling in a real CLI library. `--help` prints the usage line
// and exits 0; an unknown option or a malformed argument prints it and
// exits 2.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "vhp/common/types.hpp"

namespace vhp::examples {

class ArgList {
 public:
  /// `usage` is the synopsis after the program name, e.g.
  /// "[t_sync] [n_packets] [--obs]".
  ArgList(int argc, char** argv, std::string usage)
      : program_(argv[0]),
        usage_(std::move(usage)),
        args_(argv + 1, argv + argc) {
    if (take_flag("--help") || take_flag("-h")) {
      std::printf("usage: %s %s\n", program_.c_str(), usage_.c_str());
      std::exit(0);
    }
  }

  /// Removes "--name <value>" and returns the value; nullopt if absent.
  std::optional<std::string> take_value(std::string_view name) {
    for (std::size_t i = 0; i + 1 < args_.size(); ++i) {
      if (args_[i] == name) {
        std::string value = args_[i + 1];
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i),
                    args_.begin() + static_cast<std::ptrdiff_t>(i) + 2);
        return value;
      }
    }
    return std::nullopt;
  }

  /// Removes a bare "--name"; true if it was present.
  bool take_flag(std::string_view name) {
    for (std::size_t i = 0; i < args_.size(); ++i) {
      if (args_[i] == name) {
        args_.erase(args_.begin() + static_cast<std::ptrdiff_t>(i));
        return true;
      }
    }
    return false;
  }

  /// Call after the last take: whatever still looks like an option was
  /// not recognised.
  void reject_unknown_flags() const {
    for (const auto& arg : args_) {
      if (arg.starts_with("-")) usage_error("unknown option " + arg);
    }
  }

  /// Positional argument `index` as u64, or `fallback` when absent.
  [[nodiscard]] u64 positional_u64(std::size_t index, u64 fallback) const {
    if (index >= args_.size()) return fallback;
    const std::string& arg = args_[index];
    char* end = nullptr;
    const u64 value = std::strtoull(arg.c_str(), &end, 10);
    if (arg.empty() || arg.front() == '-' || *end != '\0') {
      usage_error("not a number: " + arg);
    }
    return value;
  }

  /// Prints `what` and the usage line to stderr and exits 2.
  [[noreturn]] void usage_error(const std::string& what) const {
    std::fprintf(stderr, "%s: %s\nusage: %s %s\n", program_.c_str(),
                 what.c_str(), program_.c_str(), usage_.c_str());
    std::exit(2);
  }

 private:
  std::string program_;
  std::string usage_;
  std::vector<std::string> args_;
};

}  // namespace vhp::examples
