// Client side of the ppdd protocol, shared by ppdctl, the service load
// bench and the tests: one CONTROL connection for commands plus one DATA
// connection streaming result events, wrapped behind submit/wait calls.
// A Client is one server session: after a lost connection, connect() again
// and re-send the SETs and UPLOADs before re-issuing queries.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "ppd/net/socket.hpp"

namespace ppd::net {

/// Server-reported failure (an ERR reply or an unexpected stream close) —
/// distinct from NetError, which is the socket itself failing.
class ServiceError : public std::runtime_error {
 public:
  explicit ServiceError(const std::string& what) : std::runtime_error(what) {}
};

class Client {
 public:
  /// Open the control channel, read the session token, then attach the
  /// data channel. Throws NetError / ServiceError.
  [[nodiscard]] static Client connect(std::uint16_t port);

  Client(Client&&) = default;
  Client& operator=(Client&&) = default;

  [[nodiscard]] const std::string& session() const { return session_; }

  /// SET a session config key. Throws ServiceError on ERR.
  void set(const std::string& key, const std::string& value);

  /// UPLOAD a blob under `name`. Throws ServiceError on ERR.
  void upload(const std::string& name, const std::string& text);

  struct Submitted {
    bool busy = false;    ///< true = backpressure/shed, nothing queued
    std::uint64_t id = 0;
    std::string reply;  ///< raw reply line ("BUSY shed ..." vs plain BUSY)
  };
  struct SubmitOptions {
    /// Deadline for the whole query, counted from admission; expired
    /// queries report status "expired" instead of executing. 0 = none.
    std::uint64_t deadline_ms = 0;
  };
  /// QUERY <kind> [<arg>] [deadline_ms=N]. BUSY is a value
  /// (backpressure is a protocol outcome, not a failure); ERR throws
  /// ServiceError.
  [[nodiscard]] Submitted submit(const std::string& kind,
                                 const std::string& arg = {});
  [[nodiscard]] Submitted submit(const std::string& kind,
                                 const std::string& arg,
                                 const SubmitOptions& opts);

  struct Result {
    std::uint64_t id = 0;
    std::uint64_t qid = 0;  ///< server-wide query id (trace correlation)
    std::string kind;
    std::string status;   ///< "ok" | "error" | "cancelled"
    int exit_code = 0;
    double elapsed_s = 0.0;
    double queue_s = 0.0;      ///< admission -> worker pickup
    double execute_s = 0.0;    ///< running the query
    double serialize_s = 0.0;  ///< building the result event
    std::string body;     ///< byte-exact equivalent ppdtool stdout
    std::string error;
    std::string raw;      ///< the JSON event line as received
  };
  /// Block until the result for `id` arrives on the data channel (results
  /// for other ids are buffered). Throws ServiceError when the stream ends
  /// first.
  [[nodiscard]] Result wait(std::uint64_t id);

  /// submit + wait; throws ServiceError when the queue is full.
  [[nodiscard]] Result run(const std::string& kind,
                           const std::string& arg = {});

  /// The one-line STATS JSON.
  [[nodiscard]] std::string stats();

  /// SUBSCRIBE: ask for periodic "metrics" events on the data channel
  /// (period_s <= 0 unsubscribes). Read them with next_event().
  void subscribe(double period_s);

  /// Next raw event line from the data channel (nullopt = stream closed).
  /// Sets drained() when a drain event passes by. Do not mix with wait()
  /// on a session that has queries in flight — both read the same stream.
  [[nodiscard]] std::optional<std::string> next_event();

  /// TRACE: pull the server's Chrome trace-event JSON dump.
  [[nodiscard]] std::string trace_dump();

  /// PING round trip; returns the server's reply line.
  std::string ping();

  /// Polite goodbye (QUIT). The destructor just closes the sockets.
  void quit();

  /// True once the server announced drain on the data channel.
  [[nodiscard]] bool drained() const { return drained_; }

 private:
  Client() = default;
  /// One control round trip; throws ServiceError on ERR or closed stream.
  std::string command(const std::string& line);

  TcpStream control_;
  TcpStream data_;
  std::string session_;
  bool drained_ = false;
  std::map<std::uint64_t, Result> pending_;
};

}  // namespace ppd::net
