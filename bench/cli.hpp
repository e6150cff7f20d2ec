#pragma once

// Command-line plumbing shared by the example tools: strict integer
// parsing and a main() wrapper that turns bad input into a diagnostic and
// exit 1 instead of an uncaught exception (SIGABRT).

#include <charconv>
#include <concepts>
#include <cstdio>
#include <optional>
#include <string>
#include <string_view>

#include "common/error.hpp"

namespace mpipred::bench {

/// Parses all of `text` as a base-10 integer: no whitespace, no '+', no
/// trailing characters, in range for Int (a '-' only for signed Int).
/// nullopt otherwise.
template <std::integral Int>
[[nodiscard]] std::optional<Int> parse_int(std::string_view text) noexcept {
  Int value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) {
    return std::nullopt;
  }
  return value;
}

/// parse_int for a command-line value; throws UsageError naming `what`.
template <std::integral Int>
[[nodiscard]] Int int_arg(std::string_view text, std::string_view what) {
  if (const auto value = parse_int<Int>(text)) {
    return *value;
  }
  throw UsageError(std::string(what) + " must be an integer, got '" + std::string(text) + "'");
}

/// Runs a tool's real main. `--help` / `-h` anywhere prints `usage` to
/// stdout and exits 0; an mpipred::Error escaping `body` prints its
/// message and `usage` to stderr and exits 1.
inline int cli_main(int argc, char** argv, std::string_view usage, int (*body)(int, char**)) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::printf("%.*s", static_cast<int>(usage.size()), usage.data());
      return 0;
    }
  }
  try {
    return body(argc, argv);
  } catch (const Error& e) {
    std::fprintf(stderr, "%s\n%.*s", e.what(), static_cast<int>(usage.size()), usage.data());
    return 1;
  }
}

}  // namespace mpipred::bench
