// Structured static-analysis diagnostics — the common currency of every
// ppd::lint check and of `ppdtool lint`.
//
// A Diagnostic carries a stable machine-readable code ("PPD0xx" netlist,
// "PPD1xx" electrical, "PPD2xx" pulse-test config), a severity, a source
// location ("file:line" or a net/device name), a human message and an
// actionable hint. Checks append to a Report; callers filter by severity
// threshold / per-code suppression and render through the text or JSON
// reporter. Load-time gates (parse_bench, validate_circuit) throw
// LintError — a ParseError subclass carrying the full report — when any
// error-severity finding survives filtering, so existing catch sites keep
// working while new ones can inspect the structured findings.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "ppd/util/error.hpp"

namespace ppd::lint {

enum class Severity { kNote, kWarning, kError };

[[nodiscard]] const char* severity_name(Severity s);
/// Parse "note" / "warning" / "error" (case-insensitive); throws ParseError.
[[nodiscard]] Severity severity_from_string(const std::string& s);

struct Diagnostic {
  Severity severity = Severity::kWarning;
  std::string code;      ///< stable id, e.g. "PPD001"
  std::string location;  ///< "file:line", net name, device name, ... (may be empty)
  std::string message;   ///< what is wrong
  std::string hint;      ///< how to fix it (may be empty)
};

/// Every stable diagnostic code any check can emit, sorted (PPD0xx
/// netlist, PPD1xx electrical, PPD2xx pulse-config, PPD3xx static
/// timing/testability). New rules must be registered here — suppression
/// validation rejects anything else.
[[nodiscard]] const std::vector<std::string>& known_codes();
[[nodiscard]] bool is_known_code(const std::string& code);

/// Parse a comma-separated suppression list ("PPD004,PPD107") into codes,
/// trimming whitespace and dropping empty fields. Throws ParseError on a
/// malformed or unknown code, so a typo in `--suppress` is a hard error
/// instead of a silently ineffective filter.
[[nodiscard]] std::vector<std::string> parse_suppress_list(
    const std::string& csv);

/// Filtering knobs shared by every lint entry point.
struct LintOptions {
  /// Diagnostics below this severity are dropped by filtered().
  Severity min_severity = Severity::kNote;
  /// Codes to suppress entirely (exact match, e.g. {"PPD004"}).
  std::vector<std::string> suppress;

  [[nodiscard]] bool keeps(const Diagnostic& d) const;
};

class Report {
 public:
  void add(Diagnostic d);
  void add(Severity severity, std::string code, std::string location,
           std::string message, std::string hint = "");
  /// Append every diagnostic of `other`.
  void merge(const Report& other);

  [[nodiscard]] const std::vector<Diagnostic>& diagnostics() const {
    return diagnostics_;
  }
  [[nodiscard]] bool empty() const { return diagnostics_.empty(); }
  [[nodiscard]] std::size_t count(Severity s) const;
  [[nodiscard]] bool has_errors() const { return count(Severity::kError) > 0; }

  /// Copy with the options' severity threshold and suppressions applied.
  [[nodiscard]] Report filtered(const LintOptions& options) const;

  /// One-line summary, e.g. "2 errors, 1 warning, 3 notes".
  [[nodiscard]] std::string summary() const;

  /// Throw LintError when the report holds error-severity findings.
  void throw_on_error(const std::string& subject) const;

 private:
  std::vector<Diagnostic> diagnostics_;
};

/// Raised by load-time validation when a lint pass finds error-severity
/// defects. Derives from ParseError: callers that already handle malformed
/// input keep working unchanged.
class LintError : public ParseError {
 public:
  LintError(const std::string& subject, Report report);

  [[nodiscard]] const Report& report() const { return report_; }

 private:
  Report report_;
};

/// Human-readable rendering, one diagnostic per line:
///   error PPD001 [loc]: message (hint: ...)
void write_text(std::ostream& os, const Report& report);

/// Machine-readable rendering:
///   {"diagnostics":[{"severity":...,"code":...,...}],"errors":N,...}
void write_json(std::ostream& os, const Report& report);

[[nodiscard]] std::string to_text(const Report& report);
[[nodiscard]] std::string to_json(const Report& report);

}  // namespace ppd::lint
