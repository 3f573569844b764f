// Wire grammar of the ppdd service, shared by the server, the ppdctl
// client and the tests. Modeled on the PandABlocks-server control/data
// split: a line-based control channel with one-line replies, and a
// server-push data channel streaming one JSON object per line.
//
// Connection handshake (first line selects the channel):
//   CONTROL                     -> OK ppdd <ver> session <token>
//   DATA <token>                -> OK stream
//
// Control commands:
//   SET <key> <value>           -> OK | ERR <msg>
//   UPLOAD <name> <nbytes>\n<raw bytes>
//                               -> OK upload <name> <nbytes> | ERR <msg>
//   QUERY <kind> [<arg>] [deadline_ms=<N>]
//                               -> OK <id> | BUSY[ <reason>] | ERR <msg>
//                                  kind: transfer|calibrate|coverage|rmin|lint
//                                  deadline_ms: if the query is still queued
//                                  when the deadline (measured from admission)
//                                  elapses, it is never executed and its
//                                  result event carries status "expired".
//                                  <id> is session-local: 1, 2, ... in
//                                  admission order, restarting in every
//                                  new session.
//   STATS                       -> one nested JSON object:
//                                  {"server":{...},"cache":{...},
//                                   "kinds":{"<kind>":{accepted,ok,error,
//                                    cancelled,busy,expired,shed,replayed,
//                                    "queue_s":{hist},"execute_s":{hist}},
//                                    ...},
//                                   "sessions":[{token,in_flight,window,
//                                    accepted,undelivered,subscribed},...]}
//                                  hist = {"count","sum","mean","min","max",
//                                   "p50","p99","underflow","overflow",
//                                   "bins":[[lo,hi,count],...]}
//   SUBSCRIBE [<period_s>]      -> OK subscribe <period> | OK subscribe off
//                                  periodic "metrics" events on the session's
//                                  data channel; period <= 0 (or omitted arg
//                                  defaults to 1.0) unsubscribes
//   TRACE                       -> OK trace <nbytes> followed by <nbytes> of
//                                  Chrome trace-event JSON on the control
//                                  stream (recent served-query spans)
//   PING                        -> OK pong
//   QUIT                        -> OK bye (server closes the session)
//
// A session lives exactly as long as its control connection; a dropped
// connection (or a server restart) ends it. To recover, a client opens a
// new session, re-sends its SETs and UPLOADs and re-issues every query it
// has no result event for: the bodies are the same bytes (see below).
//
// Overload and quota replies (typed, never a silent drop or a crash):
//   BUSY                        window full (per-session in-flight cap)
//   BUSY server (...)           process-wide in-flight ceiling reached
//   BUSY shed (...)             queue depth above the shed watermark; low-
//                               priority kinds (coverage, rmin) shed first,
//                               then calibrate, then transfer/lint/sta
//   BUSY backlog (...)          undelivered-result backlog cap reached
//   ERR quota.size              UPLOAD nbytes not a plain decimal <= 19
//                               digits (connection is dropped — the payload
//                               length is unknowable, so the stream cannot
//                               be resynchronised)
//   ERR quota.upload_bytes      UPLOAD exceeds the per-session byte budget
//                               (payload is drained; connection survives)
//   ERR quota.uploads           per-session netlist count cap
//   ERR quota.name              UPLOAD name with path separators / dotdot
//   ERR quota.line              control line longer than --max-line-bytes
//                               (stream resyncs at the next newline)
//
// Data events (one JSON object per line):
//   {"event":"hello","session":"<token>"}
//   {"event":"result","id":N,"qid":N,"kind":"...",
//    "status":"ok|error|cancelled|expired","exit_code":N,"elapsed_s":X,
//    "queue_s":X,"execute_s":X,"serialize_s":X,"body":"...","error":"..."}
//   {"event":"metrics","seq":N,"interval_s":X,"stats":{<STATS object>},
//    "interval":{"<kind>":{"ok":N,"execute_s_count":N,"execute_s_sum":X,
//     "queue_s_sum":X},...}}
//   {"event":"drain"}
//
// A result's "qid" is the server-wide query id minted at admission — the
// same id tags every trace span the query produced (args.qid in a TRACE
// dump), correlating a client's query with its server-side cost. The
// timing breakdown is queue-wait (admission -> worker pickup), execute
// (running the query), serialize (building the result event).
//
// A result's "body" is the byte-exact stdout of the equivalent single-shot
// ppdtool invocation (JSON-escaped on the wire by ppd::util::json, the
// codec every event and reply goes through): the determinism contract
// extends across the socket — ids and timings ride in separate fields so
// they never perturb the payload bytes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace ppd::net {

inline constexpr int kProtocolVersion = 1;
/// Default control port (the paper year, shifted into the user range).
inline constexpr std::uint16_t kDefaultPort = 7207;

/// Reply-line helpers (control channel).
[[nodiscard]] std::string ok_reply(const std::string& detail = {});
[[nodiscard]] std::string err_reply(const std::string& message);
[[nodiscard]] bool is_ok(std::string_view reply);

/// Flag parsers shared by the service tools (ppdd, ppdctl, chaosproxy).
/// Both throw ppd::ParseError naming --key. A port is an integer in
/// [0, 65535] (0 = ephemeral); seconds are a finite number >= 0.
[[nodiscard]] std::uint16_t parse_port(const std::string& key,
                                       const std::string& value);
[[nodiscard]] double parse_seconds(const std::string& key,
                                   const std::string& value);

}  // namespace ppd::net
