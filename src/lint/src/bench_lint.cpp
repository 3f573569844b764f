#include "ppd/lint/bench_lint.hpp"

#include <fstream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "ppd/util/strings.hpp"

namespace ppd::lint {

namespace {

/// The one .bench gate-type table: the canonical name of `type`
/// (case-insensitive, BUFF and INV read as BUF and NOT), or empty when it
/// names no gate.
std::string_view canonical_gate_type(std::string_view type) {
  static constexpr std::pair<std::string_view, std::string_view> kTypes[] = {
      {"BUF", "BUF"}, {"BUFF", "BUF"}, {"NOT", "NOT"},   {"INV", "NOT"},
      {"AND", "AND"}, {"OR", "OR"},    {"NAND", "NAND"}, {"NOR", "NOR"},
      {"XOR", "XOR"}, {"XNOR", "XNOR"}};
  for (const auto& [name, canonical] : kTypes)
    if (util::iequals(type, name)) return canonical;
  return {};
}

class GraphBuilder {
 public:
  explicit GraphBuilder(NetGraph& graph) : graph_(graph) {}

  std::size_t get_or_create(const std::string& name) {
    const auto it = by_name_.find(name);
    if (it != by_name_.end()) return it->second;
    const std::size_t id = graph_.nodes.size();
    GraphNode node;
    node.name = name;
    graph_.nodes.push_back(std::move(node));
    by_name_.emplace(name, id);
    return id;
  }

 private:
  NetGraph& graph_;
  std::unordered_map<std::string, std::size_t> by_name_;
};

}  // namespace

BenchScan scan_bench(const std::string& text, const std::string& source,
                     const BenchLintOptions& options) {
  BenchScan scan;
  Report& report = scan.report;
  scan.graph.source = source;
  GraphBuilder builder(scan.graph);

  std::istringstream is(text);
  std::string raw;
  int line_no = 0;
  std::unordered_map<std::string, int> output_decl_line;
  std::vector<std::pair<std::string, int>> output_decls;

  while (std::getline(is, raw)) {
    ++line_no;
    const std::string_view line = util::trim(raw);
    if (line.empty() || line.front() == '#') continue;
    const std::string here = source + ":" + std::to_string(line_no);

    const std::string upper = util::to_upper(line);
    if (util::starts_with(upper, "INPUT(") || util::starts_with(upper, "OUTPUT(")) {
      const bool is_input = util::starts_with(upper, "INPUT(");
      const std::size_t open = is_input ? 6 : 7;
      const auto close = line.find(')');
      if (close == std::string_view::npos || close < open) {
        report.add(Severity::kError, "PPD013", here,
                   "missing ')' in " + std::string(is_input ? "INPUT" : "OUTPUT") +
                       " declaration");
        continue;
      }
      const std::string name{util::trim(line.substr(open, close - open))};
      if (name.empty()) {
        report.add(Severity::kError, "PPD013", here, "empty signal name");
        continue;
      }
      const std::size_t id = builder.get_or_create(name);
      GraphNode& node = scan.graph.nodes[id];
      if (is_input) {
        scan.inputs.push_back(id);
        node.is_input = true;
        node.driven = true;
        ++node.driver_count;
        if (node.line == 0) node.line = line_no;
      } else {
        const auto prev = output_decl_line.find(name);
        if (prev != output_decl_line.end()) {
          report.add(Severity::kWarning, "PPD012", here,
                     "duplicate OUTPUT declaration for '" + name +
                         "' (first on line " + std::to_string(prev->second) + ")");
        } else {
          output_decl_line.emplace(name, line_no);
          scan.outputs.push_back(id);
        }
        node.is_output = true;
        output_decls.emplace_back(name, line_no);
      }
      continue;
    }

    const auto eq = line.find('=');
    if (eq == std::string_view::npos) {
      report.add(Severity::kError, "PPD013", here,
                 "expected 'net = TYPE(args)' assignment");
      continue;
    }
    const std::string out_name{util::trim(line.substr(0, eq))};
    const std::string_view rhs = util::trim(line.substr(eq + 1));
    const auto open = rhs.find('(');
    const auto close = rhs.rfind(')');
    if (out_name.empty()) {
      report.add(Severity::kError, "PPD013", here, "empty gate output name");
      continue;
    }
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open) {
      report.add(Severity::kError, "PPD013", here, "expected TYPE(args)");
      continue;
    }
    const std::string type{util::trim(rhs.substr(0, open))};
    const std::string_view kind = canonical_gate_type(type);
    if (kind.empty()) {
      report.add(Severity::kError, "PPD013", here,
                 "unknown gate type '" + type + "'",
                 "use BUF|NOT|AND|OR|NAND|NOR|XOR|XNOR");
      continue;
    }
    std::vector<std::size_t> fanin;
    bool operands_ok = true;
    for (const auto& arg :
         util::split(std::string(rhs.substr(open + 1, close - open - 1)), ',')) {
      const auto trimmed = util::trim(arg);
      if (trimmed.empty()) {
        report.add(Severity::kError, "PPD013", here, "empty gate operand");
        operands_ok = false;
        break;
      }
      fanin.push_back(builder.get_or_create(std::string(trimmed)));
    }
    if (!operands_ok) continue;
    if (fanin.empty()) {
      report.add(Severity::kError, "PPD013", here,
                 "gate '" + out_name + "' has no operands");
      continue;
    }
    if ((kind == "NOT" || kind == "BUF") && fanin.size() != 1)
      report.add(Severity::kError, "PPD013", here,
                 type + " gate '" + out_name +
                     "' takes one operand, got " + std::to_string(fanin.size()));
    const std::size_t id = builder.get_or_create(out_name);
    GraphNode& node = scan.graph.nodes[id];
    ++node.driver_count;
    if (!node.driven) {
      // First driver wins; later drivers are reported as PPD003.
      scan.gates.push_back(id);
      node.driven = true;
      node.kind = std::string(kind);
      node.fanin = std::move(fanin);
      node.line = line_no;
    }
  }

  // PPD014 — OUTPUT declarations that never get a definition. (The
  // structural pass would also flag them as PPD002 when they feed nothing,
  // but an explicit code matches what the user wrote.)
  for (const auto& [name, decl_line] : output_decls) {
    const std::size_t id = builder.get_or_create(name);
    if (!scan.graph.nodes[id].driven)
      report.add(Severity::kError, "PPD014",
                 source + ":" + std::to_string(decl_line),
                 "OUTPUT '" + name + "' is never defined",
                 "define it with a gate or remove the declaration");
  }

  report.merge(lint_graph(scan.graph, options.graph));
  return scan;
}

Report lint_bench_text(const std::string& text, const std::string& source,
                       const BenchLintOptions& options) {
  return scan_bench(text, source, options).report;
}

Report lint_bench_file(const std::string& path, const BenchLintOptions& options) {
  std::ifstream in(path);
  if (!in) {
    Report report;
    report.add(Severity::kError, "PPD013", path, "cannot open .bench file");
    return report;
  }
  std::ostringstream os;
  os << in.rdbuf();
  return lint_bench_text(os.str(), path, options);
}

}  // namespace ppd::lint
