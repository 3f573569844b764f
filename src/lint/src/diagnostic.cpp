#include "ppd/lint/diagnostic.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>

#include "ppd/util/json.hpp"
#include "ppd/util/strings.hpp"

namespace ppd::lint {

const char* severity_name(Severity s) {
  switch (s) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "?";
}

Severity severity_from_string(const std::string& s) {
  using util::iequals;
  if (iequals(s, "note")) return Severity::kNote;
  if (iequals(s, "warning")) return Severity::kWarning;
  if (iequals(s, "error")) return Severity::kError;
  throw ParseError("unknown severity: " + s + " (use note|warning|error)");
}

const std::vector<std::string>& known_codes() {
  static const std::vector<std::string> codes = [] {
    std::vector<std::string> c;
    const auto family = [&c](int base, std::initializer_list<int> nums) {
      for (int n : nums) {
        std::string s = std::to_string(base + n);
        c.push_back("PPD" + std::string(3 - s.size(), '0') + s);
      }
    };
    family(0, {1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12, 13, 14});  // netlist
    family(100, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10});             // electrical
    family(200, {1, 2, 3, 4, 5, 6, 7});                       // pulse config
    family(300, {1, 2, 3, 4});                                // static timing
    return c;
  }();
  return codes;
}

bool is_known_code(const std::string& code) {
  const auto& codes = known_codes();
  return std::find(codes.begin(), codes.end(), code) != codes.end();
}

std::vector<std::string> parse_suppress_list(const std::string& csv) {
  std::vector<std::string> out;
  for (const std::string& field : util::split(csv, ',')) {
    const std::string code{util::trim(field)};
    if (code.empty()) continue;
    if (!is_known_code(code))
      throw ParseError("unknown diagnostic code in suppress list: '" + code +
                       "' (known codes are PPD001..PPD" +
                       known_codes().back().substr(3) + ", see ppdtool lint)");
    out.push_back(code);
  }
  return out;
}

bool LintOptions::keeps(const Diagnostic& d) const {
  if (d.severity < min_severity) return false;
  return std::find(suppress.begin(), suppress.end(), d.code) == suppress.end();
}

void Report::add(Diagnostic d) { diagnostics_.push_back(std::move(d)); }

void Report::add(Severity severity, std::string code, std::string location,
                 std::string message, std::string hint) {
  Diagnostic d;
  d.severity = severity;
  d.code = std::move(code);
  d.location = std::move(location);
  d.message = std::move(message);
  d.hint = std::move(hint);
  add(std::move(d));
}

void Report::merge(const Report& other) {
  diagnostics_.insert(diagnostics_.end(), other.diagnostics_.begin(),
                      other.diagnostics_.end());
}

std::size_t Report::count(Severity s) const {
  return static_cast<std::size_t>(
      std::count_if(diagnostics_.begin(), diagnostics_.end(),
                    [s](const Diagnostic& d) { return d.severity == s; }));
}

Report Report::filtered(const LintOptions& options) const {
  Report out;
  for (const Diagnostic& d : diagnostics_)
    if (options.keeps(d)) out.add(d);
  return out;
}

std::string Report::summary() const {
  const auto part = [](std::size_t n, const char* noun) {
    return std::to_string(n) + " " + noun + (n == 1 ? "" : "s");
  };
  return part(count(Severity::kError), "error") + ", " +
         part(count(Severity::kWarning), "warning") + ", " +
         part(count(Severity::kNote), "note");
}

void Report::throw_on_error(const std::string& subject) const {
  if (has_errors()) throw LintError(subject, *this);
}

namespace {

std::string error_what(const std::string& subject, const Report& report) {
  std::ostringstream os;
  os << subject << ": " << report.count(Severity::kError)
     << " lint error(s)\n";
  for (const Diagnostic& d : report.diagnostics())
    if (d.severity == Severity::kError) {
      os << "  " << d.code;
      if (!d.location.empty()) os << " [" << d.location << ']';
      os << ": " << d.message << '\n';
    }
  std::string s = os.str();
  if (!s.empty() && s.back() == '\n') s.pop_back();
  return s;
}

}  // namespace

LintError::LintError(const std::string& subject, Report report)
    : ParseError(error_what(subject, report)), report_(std::move(report)) {}

void write_text(std::ostream& os, const Report& report) {
  for (const Diagnostic& d : report.diagnostics()) {
    os << severity_name(d.severity) << ' ' << d.code;
    if (!d.location.empty()) os << " [" << d.location << ']';
    os << ": " << d.message;
    if (!d.hint.empty()) os << " (hint: " << d.hint << ')';
    os << '\n';
  }
  os << "# " << report.summary() << '\n';
}

void write_json(std::ostream& os, const Report& report) {
  os << "{\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic& d : report.diagnostics()) {
    if (!first) os << ',';
    first = false;
    os << "{\"severity\":" << util::json::quote(severity_name(d.severity))
       << ",\"code\":" << util::json::quote(d.code)
       << ",\"location\":" << util::json::quote(d.location)
       << ",\"message\":" << util::json::quote(d.message)
       << ",\"hint\":" << util::json::quote(d.hint) << '}';
  }
  os << "],\"errors\":" << report.count(Severity::kError)
     << ",\"warnings\":" << report.count(Severity::kWarning)
     << ",\"notes\":" << report.count(Severity::kNote) << "}\n";
}

std::string to_text(const Report& report) {
  std::ostringstream os;
  write_text(os, report);
  return os.str();
}

std::string to_json(const Report& report) {
  std::ostringstream os;
  write_json(os, report);
  return os.str();
}

}  // namespace ppd::lint
