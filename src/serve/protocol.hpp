// Request protocol shared by the TCP server and the stdio loop: JSON lines
// plus a negotiated length-prefixed binary framing for the hot ops.
//
// One request path serves both wire modes. Each mode's decoder turns its
// bytes into one decoded request; one op table (protocol.cpp) names every
// op once, with its JSON name, its native opcode if it has one, and the one
// function that executes it against the SessionRegistry; two small
// encoders write the reply as a JSON line or as a frame. Accounting (request
// ids, per-op metrics, error classes, slow-request tracing) wraps that path
// once, so both modes count and fail the same way.
//
// JSON mode (the default): one request per line, one response per line;
// both are single JSON objects. Requests carry an "op" plus op-specific
// members:
//
//   {"op":"ping"}
//   {"op":"hello","mode":"binary"}            (switch framing, see below)
//   {"op":"metrics"}                          (telemetry snapshot, in-band)
//   {"op":"open","session":"s1","estimator":"bmf","early":{...},
//    "config":{...},"nominal":[...]}          (spec: serve/session.hpp)
//   {"op":"observe","session":"s1","samples":[[..],[..]]}
//   {"op":"absorb","session":"s1","shard":{...stat_wire JSON...}}
//   {"op":"stats","session":"s1","shard_id":7}
//   {"op":"estimate","session":"s1"}
//   {"op":"close","session":"s1"}
//   {"op":"shutdown"}
//
// Multi-population fusion sessions ({"estimator":"fusion"}, see
// serve/session.hpp for the spec) add an optional "population" member to
// observe and stats that selects the target stream (default 0); absorb
// routes by the population id carried inside the shard itself, and
// estimate answers the joint snapshot (one fused + independent estimate
// per population).
//
// Every response is {"ok":true,...} or, on failure,
// {"ok":false,"error":{"type":"DataError","message":"..."}} — errors are
// answered in-band and never tear down the connection. The handler is
// stateless apart from the shared SessionRegistry, so any number of
// connections (or an in-process test) can drive it concurrently.
//
// Observability: every request draws a process-wide monotonic request id
// (echoed by "ping" and "metrics" responses and carried on every
// ProtocolResult). "ping" and "hello" responses report server_version,
// wire_version and uptime_s so peers can assert compatibility. Requests
// slower than the process-wide slow-request threshold
// (set_slow_request_threshold_us, default off) emit a structured
// BMF_LOG_WARN with op/session/request id/latency/bytes and bump the
// serve.slow_requests counter. Per-op counters (serve.<op>.requests) and
// latency histograms (serve.<op>.latency_us) are recorded for both wire
// modes; error responses additionally tick a per-class counter
// (serve.errors.<class>).
//
// Binary mode: a connection that sends {"op":"hello","mode":"binary"} and
// reads the {"ok":true,...} acknowledgement switches both directions to
// fixed-header frames (wire::kHeaderBytes, little-endian):
//
//   u8 magic (0xBF) | u8 opcode | u16 flags | u32 payload_length | payload
//
// Request payloads (id = u16 length + bytes of the session id; with flag
// bit kFlagPopulation set, a u32 population id follows the session id):
//   kObserve  id, [u32 population,] u32 rows, u32 cols, rows*cols f64
//             (row-major)
//   kAbsorb   id, stat_wire binary shard frame (population rides in the
//             shard itself)
//   kStats    id, [u32 population,] u64 shard_id
//   kPing     (empty)
//   kJson     one JSON request line (any op; the escape hatch that keeps
//             estimate/open/close/shutdown available without re-encoding)
//
// Response frames echo the request opcode. flags bit 0 set marks an error;
// the payload is then u16 type-length, type bytes, message bytes. Success
// payloads:
//   kObserve  u32 observed_rows, u64 session_total
//   kAbsorb   u8 duplicate, u64 session_total
//   kStats    stat_wire binary shard frame
//   kPing     (empty)
//   kJson     the JSON response object text
//
// The sample matrix and the shard travel as raw doubles / the stat_wire
// frame, so the binary path never touches JSON.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

#include "serve/session.hpp"

namespace bmfusion::serve {

/// Server build version, stamped from the CMake project version and
/// reported by ping/hello responses and the admin /statusz endpoint.
#ifndef BMFUSION_VERSION
#define BMFUSION_VERSION "0.0.0-dev"
#endif
inline constexpr const char* kServerVersion = BMFUSION_VERSION;

/// Shard wire-format generation this server speaks (stat_wire v2 carries
/// population ids); peers with a different generation must re-negotiate.
inline constexpr std::uint32_t kWireVersion = 2;

/// Process start time (latched on first call; bmf_serve calls it at boot)
/// and the uptime derived from it, reported by ping/hello//statusz.
[[nodiscard]] std::uint64_t process_start_ns();
[[nodiscard]] double process_uptime_s();

/// Draws the next process-wide monotonic request id (first id is 1).
[[nodiscard]] std::uint64_t next_request_id();

/// Requests taking at least `us` microseconds log a structured warning and
/// tick serve.slow_requests. 0 (the default) disables the check. Applies
/// process-wide to both wire modes and the stdio loop.
void set_slow_request_threshold_us(double us);
[[nodiscard]] double slow_request_threshold_us();

namespace wire {

inline constexpr std::uint8_t kMagic = 0xBF;
inline constexpr std::size_t kHeaderBytes = 8;
inline constexpr std::uint16_t kFlagError = 0x1;
/// Request flag: a u32 population id follows the session id (kObserve and
/// kStats frames of multi-population fusion sessions).
inline constexpr std::uint16_t kFlagPopulation = 0x2;

enum Opcode : std::uint8_t {
  kObserve = 0x01,
  kAbsorb = 0x02,
  kStats = 0x03,
  kPing = 0x04,
  kJson = 0x7F,
};

inline void append_u16(std::string& out, std::uint16_t v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

inline void append_u32(std::string& out, std::uint32_t v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

inline void append_u64(std::string& out, std::uint64_t v) {
  char bytes[sizeof v];
  std::memcpy(bytes, &v, sizeof v);
  out.append(bytes, sizeof v);
}

/// Appends the 8-byte header for a `payload_size`-byte payload; the caller
/// appends the payload itself (avoids copying bulk sample data twice).
inline void append_frame_header(std::string& out, std::uint8_t opcode,
                                std::uint16_t flags,
                                std::uint32_t payload_size) {
  out += static_cast<char>(kMagic);
  out += static_cast<char>(opcode);
  append_u16(out, flags);
  append_u32(out, payload_size);
}

/// Appends a whole frame (header + payload).
inline void append_frame(std::string& out, std::uint8_t opcode,
                         std::uint16_t flags, std::string_view payload) {
  append_frame_header(out, opcode, flags,
                      static_cast<std::uint32_t>(payload.size()));
  out.append(payload);
}

/// Appends a u16-length-prefixed string (session ids, error types).
inline void append_string(std::string& out, std::string_view text) {
  append_u16(out, static_cast<std::uint16_t>(text.size()));
  out.append(text);
}

/// Appends an error frame: a header with kFlagError set, then the
/// u16-length-prefixed error type and the message bytes.
inline void append_error_frame(std::string& out, std::uint8_t opcode,
                               std::string_view type,
                               std::string_view message) {
  append_frame_header(
      out, opcode, kFlagError,
      static_cast<std::uint32_t>(sizeof(std::uint16_t) + type.size() +
                                 message.size()));
  append_string(out, type);
  out.append(message);
}

}  // namespace wire

/// JSON text writers shared by the protocol and the admin plane.
/// append_json_escaped writes `text` as the inside of a JSON string (every
/// control byte escaped); append_json_number writes 17 significant digits,
/// which round-trip doubles exactly, and null for non-finite values.
void append_json_escaped(std::string& out, std::string_view text);
void append_json_number(std::string& out, double value);

/// {"ok":false,"error":{"type":<type>,"message":<message>}} (no newline).
[[nodiscard]] std::string json_error(std::string_view type,
                                     std::string_view message);

struct ProtocolResult {
  /// The reply: one JSON object without a trailing newline from
  /// handle_request, one complete frame (header + payload) from
  /// handle_binary_request.
  std::string response;
  bool shutdown = false;  ///< true after a "shutdown" op
  /// True after {"op":"hello","mode":"binary"}: the transport should switch
  /// this connection to binary frames once `response` is on the wire. The
  /// stdio loop ignores it (pipes stay JSON).
  bool switch_to_binary = false;
  /// The monotonic id assigned to this request.
  std::uint64_t request_id = 0;
};

/// Parses and executes one request line against `registry`. All protocol
/// and estimation errors are converted into {"ok":false,...} responses;
/// only non-exception failures (e.g. std::bad_alloc) propagate.
[[nodiscard]] ProtocolResult handle_request(SessionRegistry& registry,
                                            std::string_view line);

/// Executes one binary frame (already stripped of its header) against
/// `registry` and builds the response frame. Malformed payloads answer
/// with an error frame, exactly like the JSON path answers in-band.
/// `flags` are the request's header flags (wire::kFlagPopulation switches
/// the payload layout of kObserve/kStats); unknown bits are ignored.
[[nodiscard]] ProtocolResult handle_binary_request(SessionRegistry& registry,
                                                   std::uint8_t opcode,
                                                   std::uint16_t flags,
                                                   std::string_view payload);

}  // namespace bmfusion::serve
