// Minimal --key=value CLI parsing for the bench and example binaries.
// Unrecognized flags raise ParseError so typos do not silently run a
// different experiment than the operator asked for.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace ppd::util {

class Cli {
 public:
  /// Parse `--key=value` / `--flag` arguments. `allowed` lists every key the
  /// program understands; anything else throws ParseError.
  Cli(int argc, const char* const* argv, const std::vector<std::string>& allowed);

  [[nodiscard]] bool has(const std::string& key) const;
  [[nodiscard]] std::string get(const std::string& key, const std::string& def) const;
  [[nodiscard]] double get(const std::string& key, double def) const;
  [[nodiscard]] int get(const std::string& key, int def) const;
  /// Checked reads: `count` takes a non-negative integer (a negative value
  /// would wrap through a size_t cast), `finite` rejects nan and inf.
  [[nodiscard]] std::size_t count(const std::string& key, std::size_t def) const;
  [[nodiscard]] double finite(const std::string& key, double def) const;

 private:
  std::map<std::string, std::string> values_;
};

/// Value parsers behind Cli::get/count/finite, shared with every other
/// --key=value source (query sessions). Each throws ParseError naming --key.
[[nodiscard]] double parse_number(const std::string& key,
                                  const std::string& value);
[[nodiscard]] std::size_t parse_count(const std::string& key,
                                      const std::string& value);
[[nodiscard]] double parse_finite(const std::string& key,
                                  const std::string& value);

/// Join argv back into one space-separated command line (run-meta blocks,
/// error messages).
[[nodiscard]] std::string command_line(int argc, const char* const* argv);

/// Global-flag stripping shared by every front end (ppdtool, ppdd, ppdctl,
/// the benches): remove from argv every element `consume` returns true for,
/// compacting argv in place and updating argc. The callback typically
/// records the flag's value as a side effect (see obs::extract_run_options);
/// everything it declines — including unknown flags — is left in place for
/// the caller's own strict parser.
void strip_args(int& argc, char** argv,
                const std::function<bool(std::string_view)>& consume);

}  // namespace ppd::util
