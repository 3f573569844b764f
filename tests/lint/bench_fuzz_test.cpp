// Differential fuzz of the .bench front end: logic::parse_bench must accept
// exactly the texts lint::scan_bench reports no error for, and build the
// netlist the scan graph describes. Seeds: data/*.bench, the synthetic
// C432-class netlist and tests/corpus/bench/ ("seed-*" files parse,
// "reject-*" files are regressions the parser once accepted wrongly).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "ppd/lint/bench_lint.hpp"
#include "ppd/logic/bench.hpp"

namespace ppd {
namespace {

using logic::Netlist;
using logic::NetId;

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// (name, text) of every seed: the bundled netlists, the synthetic one and
/// the corpus files, in a fixed order.
std::vector<std::pair<std::string, std::string>> load_seeds() {
  std::vector<std::pair<std::string, std::string>> docs;
  for (const char* name : {"c17.bench", "c432_class.bench"})
    docs.emplace_back(name, slurp(std::filesystem::path(PPD_DATA_DIR) / name));
  docs.emplace_back("synthetic",
                    logic::write_bench(logic::synthetic_benchmark({})));
  std::vector<std::filesystem::path> files;
  for (const auto& e :
       std::filesystem::directory_iterator(PPD_BENCH_CORPUS_DIR))
    files.push_back(e.path());
  std::sort(files.begin(), files.end());
  for (const auto& path : files)
    docs.emplace_back(path.filename().string(), slurp(path));
  return docs;
}

std::vector<std::string> names_of(const Netlist& nl,
                                  const std::vector<NetId>& ids) {
  std::vector<std::string> names;
  for (NetId id : ids) names.push_back(nl.gate(id).name);
  return names;
}

std::vector<std::string> names_of(const lint::NetGraph& graph,
                                  const std::vector<std::size_t>& ids) {
  std::vector<std::string> names;
  for (std::size_t id : ids) names.push_back(graph.nodes[id].name);
  return names;
}

/// Every net of `nl` is a node of the scan graph with the same kind and
/// fanin names; inputs and outputs come in the scan's order.
void expect_matches_scan(const Netlist& nl, const lint::BenchScan& scan,
                         const std::string& what) {
  const auto& nodes = scan.graph.nodes;
  ASSERT_EQ(nl.size(), nodes.size()) << what;
  std::unordered_map<std::string, std::size_t> node_of;
  for (std::size_t i = 0; i < nodes.size(); ++i) node_of[nodes[i].name] = i;
  for (NetId id = 0; id < nl.size(); ++id) {
    const logic::Gate& g = nl.gate(id);
    const auto it = node_of.find(g.name);
    ASSERT_NE(it, node_of.end()) << what << ": net " << g.name;
    const lint::GraphNode& node = nodes[it->second];
    EXPECT_EQ(node.is_input, g.kind == logic::LogicKind::kInput) << what;
    if (node.is_input) continue;
    EXPECT_EQ(node.kind, logic::logic_kind_name(g.kind)) << what;
    EXPECT_EQ(names_of(nl, g.fanin), names_of(scan.graph, node.fanin))
        << what << ": fanin of " << g.name;
  }
  EXPECT_EQ(names_of(nl, nl.inputs()), names_of(scan.graph, scan.inputs))
      << what;
  EXPECT_EQ(names_of(nl, nl.outputs()), names_of(scan.graph, scan.outputs))
      << what;
}

/// Same inputs and outputs in order, and the same gates by name.
void expect_same_netlist(const Netlist& a, const Netlist& b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  EXPECT_EQ(names_of(a, a.inputs()), names_of(b, b.inputs())) << what;
  EXPECT_EQ(names_of(a, a.outputs()), names_of(b, b.outputs())) << what;
  for (NetId id = 0; id < b.size(); ++id) {
    const logic::Gate& g = b.gate(id);
    ASSERT_TRUE(a.has(g.name)) << what << ": net " << g.name;
    const logic::Gate& h = a.gate(a.find(g.name));
    EXPECT_EQ(h.kind, g.kind) << what << ": net " << g.name;
    EXPECT_EQ(names_of(a, h.fanin), names_of(b, g.fanin))
        << what << ": fanin of " << g.name;
  }
}

/// Parse `text` and scan it, and check that the two agree: LintError with
/// the scan's errors exactly when the scan reports one, no other exception,
/// and otherwise the netlist of the scan graph, which survives a
/// write_bench round trip. Returns whether the text parsed.
bool expect_agreement(const std::string& text, const std::string& what) {
  const lint::BenchScan scan = lint::scan_bench(text);
  const std::size_t errors = scan.report.count(lint::Severity::kError);
  Netlist nl;
  try {
    nl = logic::parse_bench(text);
  } catch (const lint::LintError& e) {
    EXPECT_GT(errors, 0u) << what << ": " << e.what();
    EXPECT_EQ(e.report().diagnostics().size(), errors) << what;
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": not a LintError: " << e.what();
    return false;
  }
  EXPECT_EQ(errors, 0u) << what << ": parsed despite\n"
                        << lint::to_text(scan.report);
  expect_matches_scan(nl, scan, what);
  try {
    expect_same_netlist(logic::parse_bench(logic::write_bench(nl)), nl, what);
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": round trip threw: " << e.what();
  }
  return true;
}

TEST(BenchFuzz, SeedsAgree) {
  const auto docs = load_seeds();
  ASSERT_GE(docs.size(), 9u);
  for (const auto& [name, text] : docs) {
    const bool parsed = expect_agreement(text, name);
    EXPECT_EQ(parsed, name.rfind("reject-", 0) != 0) << name;
  }
}

TEST(BenchFuzz, MutantsAgree) {
  // Fixed seed and budget, so a failure names a reproducible iteration.
  constexpr int kIterations = 20000;
  std::mt19937_64 rng(2007);
  const auto below = [&rng](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  // Mutate the seeds that parse; the reject-* regressions are checked above.
  auto docs = load_seeds();
  std::erase_if(docs, [](const auto& doc) {
    return doc.first.rfind("reject-", 0) == 0;
  });
  // Fragments that steer mutants toward the scanner's edge cases.
  const std::vector<std::string> tokens = {
      "INPUT(", "OUTPUT(", "(", ")", ",", "=", "#", "\n", " ", "\t", "\r",
      "NOT", "BUFF", "INV", "NAND", "XOR", "FROB", std::string(1, '\0'),
      "\xff"};
  int parsed = 0;
  for (int it = 0; it < kIterations; ++it) {
    std::string text = docs[below(docs.size())].second;
    for (std::size_t edits = 1 + below(4); edits > 0; --edits) {
      const std::size_t at = below(text.size() + 1);
      switch (below(6)) {
        case 0:  // overwrite one byte
          if (at < text.size()) text[at] = static_cast<char>(below(256));
          break;
        case 1:  // delete a span
          text.erase(at, 1 + below(16));
          break;
        case 2:  // duplicate a span
          text.insert(at, text.substr(below(text.size() + 1), 1 + below(64)));
          break;
        case 3:  // insert a token
          text.insert(at, tokens[below(tokens.size())]);
          break;
        case 4: {  // move the line holding `at` elsewhere (reorders gates)
          const std::size_t nl = at == 0 ? std::string::npos
                                         : text.rfind('\n', at - 1);
          const std::size_t begin = nl == std::string::npos ? 0 : nl + 1;
          const std::size_t end = text.find('\n', begin);
          const std::string line = text.substr(
              begin, end == std::string::npos ? end : end - begin + 1);
          text.erase(begin, line.size());
          text.insert(below(text.size() + 1), line);
          break;
        }
        default:  // truncate
          text.resize(at);
      }
    }
    if (expect_agreement(text, "iteration " + std::to_string(it))) ++parsed;
  }
  RecordProperty("parsed", parsed);
  EXPECT_GT(parsed, 0);  // some mutants stay valid
}

}  // namespace
}  // namespace ppd
