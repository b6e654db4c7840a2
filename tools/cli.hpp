#pragma once

// Minimal command-line option parser shared by the gridsub tools.
//
// Supports --key value and --flag forms plus -h/--help; unknown options
// are an error so typos fail fast rather than being silently ignored.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace gridsub::tools {

class Cli {
 public:
  /// `spec`: option name -> help text. Options taking a value end their
  /// help text with the marker "<value>" convention in the description;
  /// parsing treats every option as value-taking unless listed in `flags`.
  Cli(std::string program, std::string summary,
      std::map<std::string, std::string> spec,
      std::set<std::string> flags = {})
      : program_(std::move(program)),
        summary_(std::move(summary)),
        spec_(std::move(spec)),
        flags_(std::move(flags)) {}

  /// Parses argv; on -h/--help prints usage and exits 0; on error prints
  /// usage and exits 2.
  void parse(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "-h" || arg == "--help") {
        usage(stdout);
        std::exit(0);
      }
      if (spec_.find(arg) == spec_.end()) {
        std::fprintf(stderr, "%s: unknown option '%s'\n\n", program_.c_str(),
                     arg.c_str());
        usage(stderr);
        std::exit(2);
      }
      if (flags_.count(arg) > 0) {
        values_[arg] = "true";
        continue;
      }
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s: option '%s' needs a value\n",
                     program_.c_str(), arg.c_str());
        std::exit(2);
      }
      values_[arg] = argv[++i];
    }
  }

  [[nodiscard]] std::optional<std::string> get(
      const std::string& key) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }

  [[nodiscard]] std::string get_or(const std::string& key,
                                   const std::string& fallback) const {
    return get(key).value_or(fallback);
  }

  /// The option's value as a number, or `fallback` when it is absent.
  /// Exits 2 unless the whole value parses to a finite number ("12abc",
  /// "nan" and "inf" do not).
  [[nodiscard]] double number_or(const std::string& key,
                                 double fallback) const {
    const auto v = get(key);
    if (!v) return fallback;
    std::size_t parsed = 0;
    double x = 0.0;
    try {
      x = std::stod(*v, &parsed);
    } catch (...) {
      parsed = 0;  // not a number, or out of range
    }
    if (parsed == 0 || parsed != v->size() || !std::isfinite(x)) {
      std::fprintf(stderr, "%s: option '%s' expects a number, got '%s'\n",
                   program_.c_str(), key.c_str(), v->c_str());
      std::exit(2);
    }
    return x;
  }

  /// The option's value as a whole number in [lo, hi], or `fallback` when
  /// it is absent. Exits 2 on anything else (a fraction, a value out of
  /// range, "nan"), checked before any cast. Requires
  /// -2^53 <= lo <= hi <= 2^53, where doubles hold every integer.
  [[nodiscard]] std::int64_t count_or(const std::string& key,
                                      std::int64_t fallback, std::int64_t lo,
                                      std::int64_t hi) const {
    const auto v = get(key);
    if (!v) return fallback;
    const double x = number_or(key, 0.0);
    if (!(x >= static_cast<double>(lo) && x <= static_cast<double>(hi) &&
          x == std::floor(x))) {
      std::fprintf(stderr,
                   "%s: option '%s' expects a whole number in [%lld, %lld], "
                   "got '%s'\n",
                   program_.c_str(), key.c_str(), static_cast<long long>(lo),
                   static_cast<long long>(hi), v->c_str());
      std::exit(2);
    }
    return static_cast<std::int64_t>(x);
  }

  [[nodiscard]] bool flag(const std::string& key) const {
    return values_.count(key) > 0;
  }

  void usage(std::FILE* out) const {
    std::fprintf(out, "%s — %s\n\noptions:\n", program_.c_str(),
                 summary_.c_str());
    for (const auto& [key, help] : spec_) {
      std::fprintf(out, "  %-18s %s\n", key.c_str(), help.c_str());
    }
  }

 private:
  std::string program_;
  std::string summary_;
  std::map<std::string, std::string> spec_;
  std::set<std::string> flags_;
  std::map<std::string, std::string> values_;
};

}  // namespace gridsub::tools
