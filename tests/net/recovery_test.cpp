// Crash-safe session recovery: the append-only SessionJournal (replay,
// torn-line tolerance, atomic rotation/compaction), server-side --recover
// rebuild, RESUME semantics, and idempotent re-issue by qid (acked ids are
// answered from the journal byte-identically, in-flight ids are deduped,
// unacked ids re-execute exactly once).
#include "ppd/net/journal.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>

#include "ppd/cache/solve_cache.hpp"
#include "ppd/net/client.hpp"
#include "ppd/net/protocol.hpp"
#include "ppd/net/server.hpp"
#include "ppd/util/error.hpp"
#include "ppd/util/json.hpp"

namespace ppd::net {
namespace {

namespace json = util::json;

constexpr const char* kBenchText =
    "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n";

/// Unique journal path per test, cleaned up on destruction.
struct TempJournal {
  explicit TempJournal(const std::string& tag)
      : path("recovery_test_" + tag + ".journal") {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  ~TempJournal() {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
  }
  std::string path;
};

TEST(Journal, ReplayRoundTripsRecords) {
  TempJournal tmp("roundtrip");
  {
    SessionJournal journal(tmp.path);
    journal.record_open("s1");
    journal.record_set("s1", "points", "5");
    journal.record_upload("s1", "c.bench", kBenchText);
    journal.record_accept("s1", 1, "transfer", "");
    journal.record_accept("s1", 2, "lint", "c.bench");
    journal.record_ack("s1", 1, "{\"event\":\"result\",\"id\":1}");
    journal.record_open("s2");
    journal.record_close("s2");
  }
  const SessionJournal::State state = SessionJournal::replay(tmp.path);
  ASSERT_EQ(state.size(), 1u);  // closed s2 elided
  const auto& s1 = state.at("s1");
  EXPECT_EQ(s1.config.at("points"), "5");
  EXPECT_EQ(s1.uploads.at("c.bench"), kBenchText);
  ASSERT_EQ(s1.accepted.size(), 1u);  // id 1 acked away
  EXPECT_EQ(s1.accepted.at(2), "lint c.bench");
  EXPECT_EQ(s1.acked.at(1), "{\"event\":\"result\",\"id\":1}");
  EXPECT_EQ(s1.next_id, 2u);
}

TEST(Journal, ReplayToleratesTornTrailingLine) {
  TempJournal tmp("torn");
  {
    SessionJournal journal(tmp.path);
    journal.record_open("s1");
    journal.record_set("s1", "points", "7");
  }
  // Simulate a crash mid-append: an unterminated, unparseable tail.
  {
    std::ofstream os(tmp.path, std::ios::binary | std::ios::app);
    os << "{\"j\":\"accept\",\"token\":\"s1\",\"id\"";
  }
  const SessionJournal::State state = SessionJournal::replay(tmp.path);
  ASSERT_EQ(state.count("s1"), 1u);
  EXPECT_EQ(state.at("s1").config.at("points"), "7");
  EXPECT_TRUE(state.at("s1").accepted.empty());
}

TEST(Journal, ReplayOfMissingFileIsEmpty) {
  EXPECT_TRUE(SessionJournal::replay("no_such_journal_file.journal").empty());
}

TEST(Journal, RotationCompactsAndStaysReplayable) {
  TempJournal tmp("rotate");
  {
    // Tiny rotation threshold: every few appends trigger a compaction.
    SessionJournal journal(tmp.path, 512);
    journal.record_open("s1");
    for (int i = 0; i < 64; ++i)
      journal.record_set("s1", "points", std::to_string(i));
    journal.record_open("s2");
    journal.record_close("s2");
    journal.record_accept("s1", 1, "transfer", "");
    EXPECT_GT(journal.rotations(), 0u);
    // Compaction folds the 64 SET rewrites into one line: the file stays
    // near the snapshot size instead of growing with history.
    EXPECT_LT(journal.bytes(), 4096u);
  }
  const SessionJournal::State state = SessionJournal::replay(tmp.path);
  ASSERT_EQ(state.count("s1"), 1u);
  EXPECT_EQ(state.at("s1").config.at("points"), "63");
  EXPECT_EQ(state.at("s1").accepted.count(1), 1u);
  EXPECT_EQ(state.count("s2"), 0u);
  // Atomic rename leaves no temp file behind.
  std::ifstream tmp_file(tmp.path + ".tmp");
  EXPECT_FALSE(tmp_file.good());
}

// ---------------------------------------------------------------------------
// Server-side recovery: --recover + RESUME + idempotent re-issue.
// ---------------------------------------------------------------------------

class RecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override { cache::SolveCache::global().clear(); }
  void TearDown() override { cache::SolveCache::global().clear(); }
};

/// True once the server has detached `token`'s session (its control
/// connection was dropped without QUIT); false after 10 s. Each connection
/// is served by its own thread, so disconnects are processed in no fixed
/// order unless the caller waits for each one.
bool wait_detached(const Server& server, const std::string& token) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (std::chrono::steady_clock::now() < deadline) {
    const json::Value stats = json::parse(server.stats_json());
    for (const json::Value& s : stats.at("sessions").items)
      if (s.at("token").as_string() == token && !s.at("attached").as_bool())
        return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// RESUME right after dropping a connection races the server's EOF
/// handling (the session detaches on the reader thread) — retry briefly.
Client resume_with_retry(std::uint16_t port, const std::string& token) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  for (;;) {
    try {
      return Client::resume(port, token);
    } catch (const ServiceError&) {
      if (std::chrono::steady_clock::now() >= deadline) throw;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  }
}

TEST_F(RecoveryTest, JournaledSessionSurvivesControlDisconnect) {
  TempJournal tmp("detach");
  ServerOptions options;
  options.journal_path = tmp.path;
  Server server(options);
  server.start();

  std::string token;
  std::uint64_t id = 0;
  std::string body;
  {
    Client client = Client::connect(server.port());
    token = client.session();
    client.set("points", "3");
    const Client::Result res = client.run("transfer");
    ASSERT_EQ(res.status, "ok");
    id = res.id;
    body = res.body;
    // No QUIT: both channels just drop, like a crashed client.
  }

  // The session must linger detached (journal-backed, has history).
  Client again = resume_with_retry(server.port(), token);
  EXPECT_EQ(again.session(), token);
  ASSERT_EQ(again.acked_ids().size(), 1u);
  EXPECT_EQ(again.acked_ids()[0], id);

  // Re-issue the acked id: answered from the journal, byte-identical, no
  // re-execution (the per-kind accepted counter must not move).
  const std::string stats_before = again.stats();
  const auto sub = again.submit("transfer", "", {0, id});
  EXPECT_TRUE(sub.cached);
  const Client::Result redone = again.wait(id);
  EXPECT_EQ(redone.body, body);
  const json::Value stats = json::parse(again.stats());
  EXPECT_EQ(stats.at("kinds").at("transfer").at("accepted").as_uint(),
            json::parse(stats_before)
                .at("kinds")
                .at("transfer")
                .at("accepted")
                .as_uint());
  again.quit();
  server.stop();
}

TEST_F(RecoveryTest, RecoverRebuildsSessionsFromJournal) {
  TempJournal tmp("recover");
  const std::string acked_event =
      "{\"event\":\"result\",\"id\":1,\"qid\":1,\"kind\":\"transfer\","
      "\"status\":\"ok\",\"exit_code\":0,\"elapsed_s\":0.01,"
      "\"queue_s\":0.0,\"execute_s\":0.01,\"serialize_s\":0.0,"
      "\"body\":\"canned-recovered-body\"}";
  {
    // Craft the journal a crashed ppdd would leave behind: a session with
    // config, an upload, one acked qid and one accepted-but-unacked qid.
    // No close record — the daemon died, it did not drain.
    SessionJournal journal(tmp.path);
    journal.record_open("s7");
    journal.record_set("s7", "points", "3");
    journal.record_upload("s7", "c.bench", kBenchText);
    journal.record_accept("s7", 1, "transfer", "");
    journal.record_ack("s7", 1, acked_event);
    journal.record_accept("s7", 2, "lint", "c.bench");
  }

  ServerOptions options;
  options.journal_path = tmp.path;
  options.recover = true;
  Server server(options);
  server.start();

  // Unknown tokens are refused...
  EXPECT_THROW((void)Client::resume(server.port(), "nope"), ServiceError);
  // ...but the journaled session resumes with its acked-id inventory.
  Client client = Client::resume(server.port(), "s7");
  EXPECT_EQ(client.session(), "s7");
  ASSERT_EQ(client.acked_ids().size(), 1u);
  EXPECT_EQ(client.acked_ids()[0], 1u);

  // Acked qid 1: redelivered from the journal byte-for-byte.
  const auto cached = client.submit("transfer", "", {0, 1});
  EXPECT_TRUE(cached.cached);
  const Client::Result redelivered = client.wait(1);
  EXPECT_EQ(redelivered.raw, acked_event);
  EXPECT_EQ(redelivered.body, "canned-recovered-body");

  // Unacked qid 2: re-issued under the same id, executed exactly once —
  // and the recovered upload + config serve it (points survived too).
  const auto reissued = client.submit("lint", "c.bench", {0, 2});
  EXPECT_FALSE(reissued.cached);
  EXPECT_FALSE(reissued.duplicate);
  EXPECT_EQ(reissued.id, 2u);
  const Client::Result lint = client.wait(2);
  EXPECT_EQ(lint.status, "ok");
  EXPECT_NE(lint.body.find("c.bench"), std::string::npos);

  // Fresh queries never collide with recovered ids.
  const auto fresh = client.submit("transfer");
  ASSERT_FALSE(fresh.busy);
  EXPECT_GT(fresh.id, 2u);
  const Client::Result res = client.wait(fresh.id);
  EXPECT_EQ(res.status, "ok");

  // A second RESUME of the now-attached session is refused.
  EXPECT_THROW((void)Client::resume(server.port(), "s7"), ServiceError);
  client.quit();
  server.stop();
}

TEST_F(RecoveryTest, ReissueOfInFlightIdIsDeduped) {
  TempJournal tmp("dedup");
  ServerOptions options;
  options.journal_path = tmp.path;
  // Slow pickup keeps the first issue in flight while we re-issue it.
  options.debug_pickup_delay_seconds = 0.3;
  Server server(options);
  server.start();

  Client client = Client::connect(server.port());
  client.set("points", "3");
  const auto first = client.submit("transfer");
  ASSERT_FALSE(first.busy);
  const auto second = client.submit("transfer", "", {0, first.id});
  EXPECT_TRUE(second.duplicate);
  // Exactly one result arrives for the id; the next event after it is not
  // another copy (drain event closes the stream instead).
  const Client::Result res = client.wait(first.id);
  EXPECT_EQ(res.status, "ok");
  const json::Value stats = json::parse(client.stats());
  EXPECT_EQ(stats.at("kinds").at("transfer").at("accepted").as_uint(), 1u);
  client.quit();
  server.stop();
}

TEST_F(RecoveryTest, ResumeMustPrecedeQueries) {
  TempJournal tmp("order");
  ServerOptions options;
  options.journal_path = tmp.path;
  Server server(options);
  server.start();

  std::string token;
  {
    Client victim = Client::connect(server.port());
    token = victim.session();
    victim.set("points", "3");
    const Client::Result res = victim.run("transfer");
    ASSERT_EQ(res.status, "ok");
  }

  // A connection that already ran queries cannot rebind: RESUME must be
  // the first thing a recovering client says. Drive the wire directly —
  // the Client API only resumes at connect time by design.
  TcpStream control = TcpStream::connect_loopback(server.port());
  control.write_all("CONTROL\n");
  ASSERT_TRUE(control.read_line().has_value());  // hello
  control.write_all("QUERY transfer\n");
  const auto accepted = control.read_line();
  ASSERT_TRUE(accepted.has_value());
  ASSERT_TRUE(is_ok(*accepted));
  control.write_all("RESUME " + token + "\n");
  const auto refused = control.read_line();
  ASSERT_TRUE(refused.has_value());
  EXPECT_EQ(refused->rfind("ERR", 0), 0u) << *refused;
  control.shutdown_both();
  server.stop();
}

TEST_F(RecoveryTest, DetachedSessionsAreBounded) {
  TempJournal tmp("evict");
  ServerOptions options;
  options.journal_path = tmp.path;
  options.max_detached_sessions = 2;
  Server server(options);
  server.start();

  std::vector<std::string> tokens;
  for (int i = 0; i < 4; ++i) {
    {
      Client client = Client::connect(server.port());
      client.set("points", "3");
      const Client::Result res = client.run("transfer");
      ASSERT_EQ(res.status, "ok");
      tokens.push_back(client.session());
      // Drop without QUIT: session detaches.
    }
    // Wait for the detach, so the sessions detach in token order and
    // "oldest" is well defined.
    ASSERT_TRUE(wait_detached(server, tokens.back())) << tokens.back();
  }
  // Eviction keeps only the newest max_detached_sessions; the server also
  // needs a moment to process the disconnects.
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(10);
  std::size_t active = 99;
  while (std::chrono::steady_clock::now() < deadline) {
    active = server.stats().sessions_active;
    if (active <= options.max_detached_sessions) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_LE(active, options.max_detached_sessions);
  // The oldest tokens are gone; the newest survives.
  EXPECT_THROW((void)Client::resume(server.port(), tokens[0]), ServiceError);
  Client ok = resume_with_retry(server.port(), tokens[3]);
  EXPECT_EQ(ok.session(), tokens[3]);
  ok.quit();
  server.stop();
}

}  // namespace
}  // namespace ppd::net
