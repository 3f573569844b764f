// ppd::util::json — the one JSON codec: the writer's bytes pinned to the
// service's wire format, the quote/unquote round trip over every byte, each
// rule the reader rejects, and a seeded mutation fuzzer over documents the
// repository's own writers emit (tests/corpus/json/).
#include "ppd/util/json.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "ppd/util/error.hpp"

namespace ppd::util::json {
namespace {

TEST(Json, QuoteBytesArePinnedToTheWireFormat) {
  // Bytes 0x00..0x7f as the service's escaper wrote them before the codec
  // existed: named escapes only for \t \n \r, lowercase \u00xx for the
  // other control bytes (\b and \f included), everything else raw.
  std::string ascii;
  for (int c = 0; c < 0x80; ++c) ascii += static_cast<char>(c);
  EXPECT_EQ(
      quote(ascii),
      R"pin("\u0000\u0001\u0002\u0003\u0004\u0005\u0006\u0007\u0008\t\n)pin"
      R"pin(\u000b\u000c\r\u000e\u000f\u0010\u0011\u0012\u0013\u0014\u0015)pin"
      R"pin(\u0016\u0017\u0018\u0019\u001a\u001b\u001c\u001d\u001e\u001f)pin"
      R"pin( !\"#$%&'()*+,-./0123456789:;<=>?@ABCDEFGHIJKLMNOPQRSTUVWXYZ)pin"
      R"pin([\\]^_`abcdefghijklmnopqrstuvwxyz{|}~)pin"
      "\x7f\"");
  // Bytes 0x80..0xff (UTF-8 sequences included) pass through raw.
  std::string high;
  for (int c = 0x80; c < 0x100; ++c) high += static_cast<char>(c);
  EXPECT_EQ(quote(high), "\"" + high + "\"");
  std::string out = "{\"body\":";
  append_quoted(out, "");
  EXPECT_EQ(out, "{\"body\":\"\"");
}

TEST(Json, QuoteUnquoteRoundTripsEveryByteValue) {
  std::string all;
  for (int c = 0; c < 0x100; ++c) {
    const std::string one(1, static_cast<char>(c));
    EXPECT_EQ(unquote(quote(one)), one) << "byte " << c;
    // One line per value: the wire's framing depends on it.
    EXPECT_EQ(quote(one).find_first_of("\n\r"), std::string::npos) << c;
    all += one;
  }
  EXPECT_EQ(unquote(quote(all)), all);
  EXPECT_EQ(parse(quote(all)).as_string(), all);
}

TEST(Json, NumberIsPercent17gWithNullForNonFinite) {
  EXPECT_EQ(number(0.0), "0");
  EXPECT_EQ(number(-0.0), "-0");
  EXPECT_EQ(number(0.1), "0.10000000000000001");
  EXPECT_EQ(number(1e-7), "9.9999999999999995e-08");
  EXPECT_EQ(number(1e300), "1.0000000000000001e+300");
  EXPECT_EQ(number(9007199254740992.0), "9007199254740992");
  EXPECT_EQ(number(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(number(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(number(std::numeric_limits<double>::quiet_NaN()), "null");
  for (const double v : {0.1, 1e-7, 2.5e-12, 6.02214076e23, 5e-324})
    EXPECT_EQ(parse(number(v)).as_number(), v);
}

TEST(Json, ParseRejectsMalformedDocuments) {
  for (const std::string text : {
           // Empty, truncated, structure, bytes after the document.
           "", " \t\r\n", "{", "[", "[1", "{\"a\"", "{\"a\":", "{\"a\":1",
           "[1,]", "{\"a\":1,}", "[,1]", "{,}", "{\"a\" 1}", "[1 2]",
           "{\"a\":1 \"b\":2}", "{a:1}", "{1:2}", "]", "}", ":", ",", "{} x",
           "1 2", "[]]", "\"a\"\"b\"", "null,",
           // Whitespace outside JSON's four characters.
           "\f1", "\v1", "1\f", "[\x01]",
           // Numbers and literals.
           "01", "-", "--1", "+1", ".5", "1.", "1.e5", "1e", "1e+", "0x10",
           "NaN", "Infinity", "-Infinity", "inf", "tru", "nul", "True",
           "truex",
           // Strings.
           "\"abc", "\"a\\", "\"\\x\"", "\"\\u12\"", "\"\\u00zz\"",
           "\"\\u0100\"", "\"\\ud83d\\ude00\"", "\"a\nb\"", "\"\x1f\"",
           "'single'"})
    EXPECT_THROW((void)parse(text), ParseError) << "accepted: " << text;
  for (const std::string text :
       {"", "abc", "\"a\" ", " \"a\"", "\"a\"x", "\"a", "1", "\"\\q\""})
    EXPECT_THROW((void)unquote(text), ParseError) << "accepted: " << text;
}

TEST(Json, ParseCapsNestingAtMaxDepth) {
  const auto arrays = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_NO_THROW((void)parse(arrays(kMaxDepth)));
  EXPECT_THROW((void)parse(arrays(kMaxDepth + 1)), ParseError);
  std::string objects;
  for (int d = 0; d <= kMaxDepth; ++d) objects += "{\"k\":";
  EXPECT_THROW((void)parse(objects + "0" + std::string(kMaxDepth + 1, '}')),
               ParseError);
  // Deep enough to overflow the stack of a reader without the cap.
  EXPECT_THROW((void)parse(std::string(2000000, '[')), ParseError);
}

TEST(Json, ParseKeepsMemberOrderAndAccessorsCheckKindAndRange) {
  const Value doc = parse(
      " {\"n\":-0.5e+2,\"s\":\"\\/\\b\\f\\u00E9\",\"b\":true,"
      "\"a\":[false,{}],\"z\":null,\"n\":2}\r\n\t");
  ASSERT_EQ(doc.members.size(), 6u);
  EXPECT_EQ(doc.members[3].first, "a");
  EXPECT_EQ(doc.at("n").scalar, "-0.5e+2");  // the first of duplicate keys
  EXPECT_EQ(doc.at("n").as_number(), -50.0);
  EXPECT_EQ(doc.at("s").as_string(), "/\b\f\xe9");
  EXPECT_TRUE(doc.at("b").as_bool());
  EXPECT_FALSE(doc.at("a").items[0].as_bool());
  EXPECT_EQ(doc.at("a").items[1].kind, Value::Kind::kObject);
  EXPECT_EQ(doc.at("z").kind, Value::Kind::kNull);
  EXPECT_EQ(doc.at("a").find("n"), nullptr);  // not an object
  EXPECT_EQ(parse("18446744073709551615").as_uint(), UINT64_MAX);
  EXPECT_EQ(parse("1e-400").as_number(), 0.0);  // underflow rounds to zero

  EXPECT_THROW((void)doc.at("s").as_number(), ParseError);
  EXPECT_THROW((void)doc.at("s").as_uint(), ParseError);
  EXPECT_THROW((void)doc.at("n").as_string(), ParseError);
  EXPECT_THROW((void)doc.at("n").as_bool(), ParseError);
  EXPECT_THROW((void)doc.at("z").as_bool(), ParseError);
  EXPECT_THROW((void)doc.at("missing"), ParseError);
  EXPECT_THROW((void)doc.at("a").at("n"), ParseError);
  for (const std::string text : {"-1", "-0", "1.0", "1e3",
                                 "18446744073709551616",
                                 "99999999999999999999999"})
    EXPECT_THROW((void)parse(text).as_uint(), ParseError) << text;
  EXPECT_THROW((void)parse("1e400").as_number(), ParseError);
  EXPECT_THROW((void)parse("-1e400").as_number(), ParseError);
}

/// Every document under tests/corpus/json (a .json file is one document,
/// a .jsonl file one per line), with its file name. `seed-*` files were
/// captured from the repository's writers: checkpoint, quarantine report,
/// metrics snapshot, STATS reply, hello/result/drain events and session
/// journal. Any other file is a fuzzer finding kept as a regression input.
std::vector<std::pair<std::string, std::string>> load_corpus() {
  std::vector<std::filesystem::path> files;
  for (const auto& e : std::filesystem::directory_iterator(PPD_JSON_CORPUS_DIR))
    files.push_back(e.path());
  std::sort(files.begin(), files.end());
  std::vector<std::pair<std::string, std::string>> docs;
  for (const auto& path : files) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream text;
    text << in.rdbuf();
    const std::string name = path.filename().string();
    if (path.extension() != ".jsonl") {
      docs.emplace_back(name, text.str());
      continue;
    }
    for (std::string line; std::getline(text, line);)
      docs.emplace_back(name, line);
  }
  return docs;
}

/// Drive the accessors over a parsed tree: the typed ones may only throw
/// ParseError, and every decoded string must round-trip again.
void exercise(const Value& v) {
  try {
    if (v.kind == Value::Kind::kNumber) {
      (void)v.as_number();
      (void)v.as_uint();
    }
    if (v.kind == Value::Kind::kBool) (void)v.as_bool();
  } catch (const ParseError&) {
  }
  if (v.kind == Value::Kind::kString) {
    EXPECT_EQ(unquote(quote(v.as_string())), v.scalar);
  }
  for (const auto& [key, member] : v.members) {
    EXPECT_NE(v.find(key), nullptr);
    exercise(member);
  }
  for (const Value& item : v.items) exercise(item);
}

TEST(JsonFuzz, CorpusDocumentsParse) {
  const auto docs = load_corpus();
  ASSERT_GE(docs.size(), 6u);
  for (const auto& [name, text] : docs) {
    try {
      exercise(parse(text));
    } catch (const ParseError& e) {
      EXPECT_NE(name.rfind("seed-", 0), 0u) << name << ": " << e.what();
    }
  }
}

TEST(JsonFuzz, MutantsParseOrThrowParseError) {
  // Fixed seed and budget, so a failure names a reproducible iteration.
  constexpr int kIterations = 20000;
  std::mt19937_64 rng(2007);
  const auto below = [&rng](std::size_t n) {
    return n == 0 ? 0 : static_cast<std::size_t>(rng() % n);
  };
  const auto docs = load_corpus();
  // Fragments that steer mutants toward the reader's edge cases.
  const std::vector<std::string> tokens = {
      "{", "}", "[", "]", ",", ":", "\"", "\\", "\\u00", "\\uffff", "-0",
      "1e999", "18446744073709551616", "true", "null", " ", "\n",
      std::string(1, '\0'), "\x7f", "\xff", std::string(40, '[')};
  int parsed = 0;
  for (int it = 0; it < kIterations; ++it) {
    std::string text = docs[below(docs.size())].second;
    for (std::size_t edits = 1 + below(4); edits > 0; --edits) {
      const std::size_t at = below(text.size() + 1);
      switch (below(5)) {
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
        default:  // truncate
          text.resize(at);
      }
    }
    try {
      exercise(parse(text));
      ++parsed;
    } catch (const ParseError&) {
    } catch (const std::exception& e) {
      ADD_FAILURE() << "iteration " << it << ": " << e.what() << " on "
                    << text;
    }
  }
  EXPECT_GT(parsed, 0);  // some mutants stay valid
}

}  // namespace
}  // namespace ppd::util::json
