#include "ppd/util/cli.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "ppd/util/error.hpp"
#include "ppd/util/strings.hpp"

namespace ppd::util {

Cli::Cli(int argc, const char* const* argv, const std::vector<std::string>& allowed) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (!starts_with(arg, "--"))
      throw ParseError("expected --key=value argument, got: " + std::string(arg));
    arg.remove_prefix(2);
    std::string key, value = "1";
    if (const auto eq = arg.find('='); eq != std::string_view::npos) {
      key = std::string(arg.substr(0, eq));
      value = std::string(arg.substr(eq + 1));
    } else {
      key = std::string(arg);
    }
    if (std::find(allowed.begin(), allowed.end(), key) == allowed.end())
      throw ParseError("unknown option --" + key);
    values_[key] = value;
  }
}

bool Cli::has(const std::string& key) const { return values_.contains(key); }

std::string Cli::get(const std::string& key, const std::string& def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : it->second;
}

double Cli::get(const std::string& key, double def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : parse_number(key, it->second);
}

int Cli::get(const std::string& key, int def) const {
  const double v = get(key, static_cast<double>(def));
  return static_cast<int>(v);
}

std::size_t Cli::count(const std::string& key, std::size_t def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : parse_count(key, it->second);
}

double Cli::finite(const std::string& key, double def) const {
  const auto it = values_.find(key);
  return it == values_.end() ? def : parse_finite(key, it->second);
}

double parse_number(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0')
    throw ParseError("option --" + key + " expects a number, got: " + value);
  return v;
}

std::size_t parse_count(const std::string& key, const std::string& value) {
  const double v = parse_number(key, value);
  // 2^53: every whole number up to it is exact and fits a 64-bit size_t.
  if (!(v >= 0.0 && v <= 9007199254740992.0) || v != std::floor(v))
    throw ParseError("option --" + key +
                     " expects a non-negative integer, got: " + value);
  return static_cast<std::size_t>(v);
}

double parse_finite(const std::string& key, const std::string& value) {
  const double v = parse_number(key, value);
  if (!std::isfinite(v))
    throw ParseError("option --" + key + " expects a finite number, got: " +
                     value);
  return v;
}

std::string command_line(int argc, const char* const* argv) {
  std::string out;
  for (int i = 0; i < argc; ++i) {
    if (!out.empty()) out += ' ';
    out += argv[i];
  }
  return out;
}

void strip_args(int& argc, char** argv,
                const std::function<bool(std::string_view)>& consume) {
  int out = 0;
  for (int i = 0; i < argc; ++i) {
    if (!consume(argv[i])) argv[out++] = argv[i];
  }
  argc = out;
}

}  // namespace ppd::util
