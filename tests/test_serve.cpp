// Serve-layer contracts: the JSON-lines protocol over an in-process TCP
// server (happy paths, in-band errors, idempotent shard absorption,
// concurrent clients, pipelining, framing edge cases, fd hygiene), the
// stdio loop, and the observability plane (admin HTTP endpoints, request
// ids, slow-request tracing, per-op counters).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "core/mle.hpp"
#include "linalg/matrix.hpp"
#include "log/log.hpp"
#include "serve/admin.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "telemetry/telemetry.hpp"

namespace bmfusion {
namespace {

using linalg::Matrix;
using linalg::Vector;
using serve::Server;
using serve::SessionRegistry;

/// serve::LineClient with test-friendly connect-on-construct and a
/// parse-the-response round trip.
class TestClient {
 public:
  explicit TestClient(std::uint16_t port)
      : connected_(client_.connect_to(port)) {}

  [[nodiscard]] bool connected() const { return connected_; }

  /// Sends one request line, returns the parsed response object.
  JsonValue round_trip(const std::string& request) {
    std::string line;
    if (!client_.request(request, line)) {
      ADD_FAILURE() << "connection dropped during: " << request;
      return JsonValue{};
    }
    return parse_json(line);
  }

 private:
  serve::LineClient client_;
  bool connected_ = false;
};

bool is_ok(const JsonValue& response) {
  const JsonValue* ok = response.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

std::string error_type(const JsonValue& response) {
  const JsonValue* error = response.find("error");
  return error == nullptr ? "" : error->string_or("type", "");
}

std::string observe_request(const std::string& session, const Matrix& rows) {
  std::ostringstream out;
  out.precision(17);
  out << "{\"op\":\"observe\",\"session\":\"" << session
      << "\",\"samples\":[";
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    out << (r == 0 ? "[" : ",[");
    for (std::size_t c = 0; c < rows.cols(); ++c) {
      if (c != 0) out << ',';
      out << rows(r, c);
    }
    out << ']';
  }
  out << "]}";
  return out.str();
}

double counter_value(const std::string& name) {
  const telemetry::MetricsSnapshot snapshot =
      telemetry::Registry::instance().snapshot();
  for (const auto& counter : snapshot.counters) {
    if (counter.name == name) return counter.value;
  }
  return 0.0;
}

Matrix test_samples(std::size_t rows, std::size_t cols, double shift) {
  Matrix out(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) {
      out(r, c) = shift + std::sin(static_cast<double>(r * cols + c + 1));
    }
  }
  return out;
}

TEST(ServeTcp, OpenObserveEstimateClose) {
  Server server;
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  EXPECT_TRUE(is_ok(client.round_trip("{\"op\":\"ping\"}")));
  EXPECT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"open\",\"session\":\"s1\",\"estimator\":\"mle\"}")));

  const Matrix samples = test_samples(48, 3, 2.0);
  const JsonValue observed = client.round_trip(observe_request("s1", samples));
  ASSERT_TRUE(is_ok(observed));
  EXPECT_EQ(observed.number_or("total", 0.0), 48.0);

  const JsonValue response =
      client.round_trip("{\"op\":\"estimate\",\"session\":\"s1\"}");
  ASSERT_TRUE(is_ok(response));
  const JsonValue* estimate = response.find("estimate");
  ASSERT_NE(estimate, nullptr);
  const JsonValue* mean = estimate->find("mean");
  ASSERT_NE(mean, nullptr);
  const core::GaussianMoments reference = core::estimate_mle(samples);
  ASSERT_EQ(mean->as_array().size(), reference.mean.size());
  for (std::size_t j = 0; j < reference.mean.size(); ++j) {
    EXPECT_NEAR(mean->as_array()[j].as_number(), reference.mean[j], 1e-12);
  }

  EXPECT_TRUE(is_ok(
      client.round_trip("{\"op\":\"close\",\"session\":\"s1\"}")));
  EXPECT_EQ(server.sessions().size(), 0u);
  server.stop();
}

TEST(ServeTcp, ErrorsAreInBandAndNonFatal) {
  Server server;
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());

  EXPECT_EQ(error_type(client.round_trip("this is not json")), "DataError");
  EXPECT_EQ(error_type(client.round_trip("{\"op\":\"wat\"}")), "DataError");
  EXPECT_EQ(error_type(client.round_trip(
                "{\"op\":\"estimate\",\"session\":\"ghost\"}")),
            "DataError");
  EXPECT_EQ(error_type(client.round_trip(
                "{\"op\":\"open\",\"session\":\"s1\","
                "\"estimator\":\"mystery\"}")),
            "DataError");
  // Estimating an empty session surfaces the estimator's contract error.
  EXPECT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"open\",\"session\":\"s1\",\"estimator\":\"mle\"}")));
  EXPECT_EQ(error_type(client.round_trip(
                "{\"op\":\"estimate\",\"session\":\"s1\"}")),
            "ContractError");
  EXPECT_EQ(error_type(client.round_trip(
                "{\"op\":\"open\",\"session\":\"s1\","
                "\"estimator\":\"mle\"}")),
            "DataError");  // duplicate id
  // The connection survived every error.
  EXPECT_TRUE(is_ok(client.round_trip("{\"op\":\"ping\"}")));
  server.stop();
}

TEST(ServeTcp, AbsorbShardsIsIdempotentPerSession) {
  Server server;
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"open\",\"session\":\"s1\",\"estimator\":\"mle\"}")));

  core::MleEstimator local;
  const Matrix samples = test_samples(100, 2, -1.0);
  local.observe(samples);
  const std::string shard_json =
      stats::shard_to_json(local.export_shard(42));
  const std::string request = "{\"op\":\"absorb\",\"session\":\"s1\","
                              "\"shard\":" +
                              shard_json + "}";
  const JsonValue first = client.round_trip(request);
  ASSERT_TRUE(is_ok(first));
  EXPECT_EQ(first.number_or("total", 0.0), 100.0);
  const JsonValue* duplicate = first.find("duplicate");
  ASSERT_NE(duplicate, nullptr);
  EXPECT_FALSE(duplicate->as_bool());

  // Retrying the same shard id must not double-count.
  const JsonValue second = client.round_trip(request);
  ASSERT_TRUE(is_ok(second));
  EXPECT_TRUE(second.find("duplicate")->as_bool());
  EXPECT_EQ(second.number_or("total", 0.0), 100.0);
  server.stop();
}

TEST(ServeTcp, StatsExportRoundTripsTheStream) {
  Server server;
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"open\",\"session\":\"s1\",\"estimator\":\"mle\"}")));
  const Matrix samples = test_samples(70, 2, 0.5);
  ASSERT_TRUE(is_ok(client.round_trip(observe_request("s1", samples))));

  const JsonValue response = client.round_trip(
      "{\"op\":\"stats\",\"session\":\"s1\",\"shard_id\":9}");
  ASSERT_TRUE(is_ok(response));
  const JsonValue* shard_json = response.find("shard");
  ASSERT_NE(shard_json, nullptr);
  const stats::StatsShard shard = stats::shard_from_json(*shard_json);
  EXPECT_EQ(shard.shard_id, 9u);
  EXPECT_EQ(shard.estimator, "mle");
  EXPECT_EQ(shard.count(), 70u);

  core::MleEstimator local;
  local.observe(samples);
  const stats::StatsShard reference = local.export_shard(9);
  ASSERT_EQ(shard.folds.size(), reference.folds.size());
  EXPECT_TRUE(shard.folds[0] == reference.folds[0]);
  server.stop();
}

TEST(ServeTcp, ConcurrentClientsOnSeparateSessions) {
  Server server;
  server.start();
  const std::uint16_t port = server.port();
  std::vector<std::thread> workers;
  std::vector<int> failures(4, 0);
  for (std::size_t i = 0; i < 4; ++i) {
    workers.emplace_back([port, i, &failures] {
      TestClient client(port);
      if (!client.connected()) {
        failures[i] = 1;
        return;
      }
      const std::string id = "c" + std::to_string(i);
      if (!is_ok(client.round_trip("{\"op\":\"open\",\"session\":\"" + id +
                                   "\",\"estimator\":\"mle\"}"))) {
        failures[i] = 2;
        return;
      }
      const Matrix samples =
          test_samples(64, 2, static_cast<double>(i));
      for (int round = 0; round < 20; ++round) {
        if (!is_ok(client.round_trip(observe_request(id, samples)))) {
          failures[i] = 3;
          return;
        }
      }
      const JsonValue estimate = client.round_trip(
          "{\"op\":\"estimate\",\"session\":\"" + id + "\"}");
      if (!is_ok(estimate) ||
          estimate.number_or("count", 0.0) != 64.0 * 20.0) {
        failures[i] = 4;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures, std::vector<int>({0, 0, 0, 0}));
  EXPECT_EQ(server.sessions().size(), 4u);
  server.stop();
}

TEST(ServeTcp, ShutdownRequestStopsTheServer) {
  Server server;
  server.start();
  {
    TestClient client(server.port());
    ASSERT_TRUE(client.connected());
    EXPECT_TRUE(is_ok(client.round_trip("{\"op\":\"shutdown\"}")));
  }
  server.wait();  // returns because the shutdown request closed the listener
  EXPECT_FALSE(TestClient(server.port()).connected());
}

TEST(ServeTcp, PipelinedRequestsInOnePacketAnswerInOrder) {
  Server server;
  server.start();
  serve::LineClient client;
  ASSERT_TRUE(client.connect_to(server.port()));

  // Three requests in a single send: the server must drain every complete
  // line from the read event and answer all of them, in order.
  ASSERT_TRUE(client.send_raw(
      "{\"op\":\"ping\"}\n"
      "{\"op\":\"open\",\"session\":\"p\",\"estimator\":\"mle\"}\n"
      "{\"op\":\"observe\",\"session\":\"p\",\"samples\":[[1,2],[3,4]]}\n"));
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  EXPECT_TRUE(is_ok(parse_json(line)));  // ping
  ASSERT_TRUE(client.recv_line(line));
  EXPECT_TRUE(is_ok(parse_json(line)));  // open
  ASSERT_TRUE(client.recv_line(line));
  const JsonValue observed = parse_json(line);
  ASSERT_TRUE(is_ok(observed));
  EXPECT_EQ(observed.number_or("total", 0.0), 2.0);
  server.stop();
}

TEST(ServeTcp, RequestSplitAcrossRecvBoundariesIsReassembled) {
  Server server;
  server.start();
  serve::LineClient client;
  ASSERT_TRUE(client.connect_to(server.port()));

  const std::string request =
      "{\"op\":\"open\",\"session\":\"frag\",\"estimator\":\"mle\"}\n";
  // Dribble the request a few bytes per send so the server sees it across
  // several read events; no response may be emitted before the newline.
  for (std::size_t i = 0; i < request.size(); i += 7) {
    ASSERT_TRUE(client.send_raw(request.substr(i, 7)));
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  EXPECT_TRUE(is_ok(parse_json(line)));
  EXPECT_EQ(server.sessions().size(), 1u);
  server.stop();
}

TEST(ServeTcp, OversizedRequestLineIsRejectedAndConnectionClosed) {
  serve::ServerConfig config;
  config.max_request_bytes = 1024;
  Server server(config);
  server.start();
  serve::LineClient client;
  ASSERT_TRUE(client.connect_to(server.port()));

  // 4 KiB of newline-free garbage: over the 1 KiB cap even before a line
  // terminator arrives.
  std::string huge(4096, 'x');
  huge += '\n';
  ASSERT_TRUE(client.send_raw(huge));
  std::string line;
  ASSERT_TRUE(client.recv_line(line));
  const JsonValue response = parse_json(line);
  EXPECT_EQ(error_type(response), "DataError");
  EXPECT_NE(response.find("error")->string_or("message", "")
                .find("max_request_bytes"),
            std::string::npos);
  // The server hangs up after the in-band error.
  EXPECT_FALSE(client.recv_line(line));
  server.stop();
}

std::size_t open_fd_count() {
  std::size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(ServeTcp, ManyShortConnectionsReturnFdCountToBaseline) {
  Server server;
  server.start();
  const std::uint16_t port = server.port();
  {
    // Warm-up cycle so lazily-created fds (epoll wakeups etc.) exist
    // before the baseline is taken.
    TestClient warmup(port);
    ASSERT_TRUE(warmup.connected());
    EXPECT_TRUE(is_ok(warmup.round_trip("{\"op\":\"ping\"}")));
  }
  const std::size_t baseline = open_fd_count();

  for (int cycle = 0; cycle < 1000; ++cycle) {
    TestClient client(port);
    ASSERT_TRUE(client.connected()) << "cycle " << cycle;
    ASSERT_TRUE(is_ok(client.round_trip("{\"op\":\"ping\"}")))
        << "cycle " << cycle;
  }

  // Server-side close is asynchronous (the loop reaps on the EOF event),
  // so poll briefly instead of asserting instantly.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t now = open_fd_count();
  while (now > baseline && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    now = open_fd_count();
  }
  EXPECT_LE(now, baseline);
  server.stop();
}

/// u32 rows, u32 cols, then the row-major doubles: a kObserve payload
/// after the session id (and the population, when flagged).
std::string observe_body(const Matrix& rows) {
  std::string payload;
  serve::wire::append_u32(payload, static_cast<std::uint32_t>(rows.rows()));
  serve::wire::append_u32(payload, static_cast<std::uint32_t>(rows.cols()));
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    for (std::size_t c = 0; c < rows.cols(); ++c) {
      const double value = rows(r, c);
      char bytes[sizeof(double)];
      std::memcpy(bytes, &value, sizeof(double));
      payload.append(bytes, sizeof(double));
    }
  }
  return payload;
}

/// A binary payload: the u16-prefixed session id, then `rest`.
std::string framed(const std::string& session, const std::string& rest) {
  std::string payload;
  serve::wire::append_string(payload, session);
  return payload + rest;
}

std::string binary_observe_payload(const std::string& session,
                                   const Matrix& rows) {
  return framed(session, observe_body(rows));
}

/// The error type of a complete response frame; empty when it is ok.
std::string frame_error(const std::string& reply) {
  std::uint16_t flags = 0;
  std::memcpy(&flags, reply.data() + 2, sizeof flags);
  if ((flags & serve::wire::kFlagError) == 0) return "";
  std::uint16_t type_size = 0;
  std::memcpy(&type_size, reply.data() + serve::wire::kHeaderBytes,
              sizeof type_size);
  return reply.substr(serve::wire::kHeaderBytes + 2, type_size);
}

TEST(ServeBinary, ObserveAndStatsMatchJsonMode) {
  Server server;
  server.start();
  const Matrix samples = test_samples(60, 3, 1.25);

  // JSON-mode reference session.
  TestClient json_client(server.port());
  ASSERT_TRUE(json_client.connected());
  ASSERT_TRUE(is_ok(json_client.round_trip(
      "{\"op\":\"open\",\"session\":\"j\",\"estimator\":\"mle\"}")));
  ASSERT_TRUE(is_ok(json_client.round_trip(observe_request("j", samples))));
  const JsonValue stats_json = json_client.round_trip(
      "{\"op\":\"stats\",\"session\":\"j\",\"shard_id\":7}");
  ASSERT_TRUE(is_ok(stats_json));
  const stats::StatsShard reference =
      stats::shard_from_json(*stats_json.find("shard"));

  // Binary-mode session over the same server.
  serve::LineClient binary;
  ASSERT_TRUE(binary.connect_to(server.port()));
  ASSERT_TRUE(binary.negotiate_binary());
  serve::Frame frame;
  ASSERT_TRUE(binary.request_frame(
      serve::wire::kJson,
      "{\"op\":\"open\",\"session\":\"b\",\"estimator\":\"mle\"}", frame));
  ASSERT_TRUE(frame.ok());

  ASSERT_TRUE(binary.request_frame(
      serve::wire::kObserve, binary_observe_payload("b", samples), frame));
  ASSERT_TRUE(frame.ok());
  ASSERT_EQ(frame.payload.size(), 12u);  // u32 rows + u64 total
  std::uint32_t rows = 0;
  std::uint64_t total = 0;
  std::memcpy(&rows, frame.payload.data(), sizeof rows);
  std::memcpy(&total, frame.payload.data() + 4, sizeof total);
  EXPECT_EQ(rows, 60u);
  EXPECT_EQ(total, 60u);

  std::string stats_payload;
  serve::wire::append_string(stats_payload, "b");
  serve::wire::append_u64(stats_payload, 7);
  ASSERT_TRUE(
      binary.request_frame(serve::wire::kStats, stats_payload, frame));
  ASSERT_TRUE(frame.ok());
  const stats::StatsShard shard = stats::parse_shard(frame.payload);

  // Same samples, same shard id: the binary shard must match the JSON one
  // exactly (both sides go through the same estimator).
  EXPECT_EQ(shard.shard_id, reference.shard_id);
  EXPECT_EQ(shard.estimator, reference.estimator);
  EXPECT_EQ(shard.count(), reference.count());
  ASSERT_EQ(shard.folds.size(), reference.folds.size());
  for (std::size_t i = 0; i < shard.folds.size(); ++i) {
    EXPECT_TRUE(shard.folds[i] == reference.folds[i]) << "fold " << i;
  }

  // Errors arrive as flagged frames and keep the connection usable.
  std::string ghost_payload;
  serve::wire::append_string(ghost_payload, "ghost");
  serve::wire::append_u64(ghost_payload, 1);
  ASSERT_TRUE(
      binary.request_frame(serve::wire::kStats, ghost_payload, frame));
  EXPECT_FALSE(frame.ok());
  ASSERT_TRUE(binary.request_frame(serve::wire::kPing, "", frame));
  EXPECT_TRUE(frame.ok());
  server.stop();

  // Cross-mode table, transport-free: every row goes to one registry as a
  // JSON line and to another as a frame. Both must answer the same way
  // (ok, or the same error type), report the same totals, leave the same
  // stream behind, and tick the same per-op request counters. A truncated
  // frame's JSON twin is the request cut before a required member, which
  // keeps the op known in both modes.
  SessionRegistry source;
  ASSERT_TRUE(is_ok(parse_json(
      serve::handle_request(source, "{\"op\":\"open\",\"session\":\"src\","
                                    "\"estimator\":\"mle\"}")
          .response)));
  (void)source.get("src")->observe(test_samples(40, 3, -0.5));
  const stats::StatsShard absorbed = source.get("src")->export_shard(3);
  stats::StatsShard foreign = absorbed;
  foreign.population_id = 2;  // out of range for a single-population session
  const std::string shard_bytes = stats::serialize_shard(absorbed);
  const std::string observe_bytes = binary_observe_payload("x", samples);
  std::string population_3;
  serve::wire::append_u32(population_3, 3);
  std::string shard_id_7;
  serve::wire::append_u64(shard_id_7, 7);
  std::string zero_rows;
  serve::wire::append_u32(zero_rows, 0);
  serve::wire::append_u32(zero_rows, 3);

  struct Row {
    std::string json;
    std::uint8_t opcode;
    std::uint16_t flags;
    std::string payload;
    const char* error;  ///< expected error type; nullptr = ok
  };
  const std::string x = "\"session\":\"x\"";
  const std::string absorb_json = "{\"op\":\"absorb\"," + x + ",\"shard\":" +
                                  stats::shard_to_json(absorbed) + "}";
  const std::vector<Row> table = {
      {observe_request("x", samples), serve::wire::kObserve, 0, observe_bytes,
       nullptr},
      {"{\"op\":\"observe\"," + x +
           ",\"population\":3,\"samples\":[[1,2,3]]}",
       serve::wire::kObserve, serve::wire::kFlagPopulation,
       framed("x", population_3 + observe_body(Matrix(1, 3, 1.0))),
       "DataError"},
      {"{\"op\":\"observe\"," + x + ",\"samples\":[]}", serve::wire::kObserve,
       0, framed("x", zero_rows), "DataError"},
      {observe_request("ghost", samples), serve::wire::kObserve, 0,
       binary_observe_payload("ghost", samples), "DataError"},
      {"{\"op\":\"observe\"," + x + "}", serve::wire::kObserve, 0,
       observe_bytes.substr(0, observe_bytes.size() - 5), "DataError"},
      {absorb_json, serve::wire::kAbsorb, 0, framed("x", shard_bytes), nullptr},
      {absorb_json, serve::wire::kAbsorb, 0, framed("x", shard_bytes),
       nullptr},  // duplicate
      {"{\"op\":\"absorb\"," + x + ",\"shard\":" +
           stats::shard_to_json(foreign) + "}",
       serve::wire::kAbsorb, 0,
       framed("x", stats::serialize_shard(foreign)), "DataError"},
      {"{\"op\":\"absorb\",\"session\":\"ghost\",\"shard\":" +
           stats::shard_to_json(absorbed) + "}",
       serve::wire::kAbsorb, 0, framed("ghost", shard_bytes), "DataError"},
      {"{\"op\":\"absorb\"," + x + "}", serve::wire::kAbsorb, 0,
       framed("x", shard_bytes.substr(0, shard_bytes.size() - 4)),
       "DataError"},
      {"{\"op\":\"stats\"," + x + ",\"shard_id\":7}", serve::wire::kStats,
       0, framed("x", shard_id_7), nullptr},
      {"{\"op\":\"stats\"," + x + ",\"population\":3,\"shard_id\":7}",
       serve::wire::kStats, serve::wire::kFlagPopulation,
       framed("x", population_3 + shard_id_7), "DataError"},
      {"{\"op\":\"stats\",\"session\":\"ghost\",\"shard_id\":7}",
       serve::wire::kStats, 0, framed("ghost", shard_id_7), "DataError"},
      {"{\"op\":\"stats\"}", serve::wire::kStats, 0,
       framed("x", shard_id_7.substr(0, 4)), "DataError"},
      {"{\"op\":\"ping\"}", serve::wire::kPing, 0, "", nullptr},
  };

  const char* const counted[] = {"serve.observe.requests",
                                 "serve.absorb.requests",
                                 "serve.stats.requests", "serve.ping.requests"};
  const auto counters = [&counted] {
    std::vector<double> values;
    for (const char* name : counted) values.push_back(counter_value(name));
    return values;
  };
  const std::string open_x =
      "{\"op\":\"open\",\"session\":\"x\",\"estimator\":\"mle\"}";

  SessionRegistry json_registry;
  ASSERT_TRUE(
      is_ok(parse_json(serve::handle_request(json_registry, open_x).response)));
  std::vector<std::string> json_errors;
  std::vector<double> json_totals;
  std::vector<std::string> json_shards;
  const std::vector<double> json_before = counters();
  for (const Row& row : table) {
    const JsonValue reply =
        parse_json(serve::handle_request(json_registry, row.json).response);
    json_errors.push_back(error_type(reply));
    json_totals.push_back(reply.number_or("total", -1.0));
    const JsonValue* shard = reply.find("shard");
    json_shards.push_back(
        shard == nullptr
            ? ""
            : stats::serialize_shard(stats::shard_from_json(*shard)));
  }
  const std::vector<double> json_after = counters();

  SessionRegistry frame_registry;
  ASSERT_TRUE(is_ok(parse_json(
      serve::handle_binary_request(frame_registry, serve::wire::kJson, 0,
                                   open_x)
          .response.substr(serve::wire::kHeaderBytes))));
  const std::vector<double> frame_before = counters();
  for (std::size_t i = 0; i < table.size(); ++i) {
    const Row& row = table[i];
    const std::string reply =
        serve::handle_binary_request(frame_registry, row.opcode, row.flags,
                                     row.payload)
            .response;
    ASSERT_GE(reply.size(), serve::wire::kHeaderBytes) << row.json;
    EXPECT_EQ(static_cast<std::uint8_t>(reply[1]), row.opcode) << row.json;
    const std::string error = frame_error(reply);
    const std::string payload = reply.substr(serve::wire::kHeaderBytes);
    EXPECT_EQ(error, row.error == nullptr ? "" : row.error) << row.json;
    EXPECT_EQ(error, json_errors[i]) << row.json;
    if (!error.empty()) continue;
    if (row.opcode == serve::wire::kObserve ||
        row.opcode == serve::wire::kAbsorb) {
      std::uint64_t total = 0;
      std::memcpy(&total, payload.data() + payload.size() - sizeof total,
                  sizeof total);
      EXPECT_EQ(static_cast<double>(total), json_totals[i]) << row.json;
    }
    if (row.opcode == serve::wire::kStats) {
      EXPECT_EQ(payload, json_shards[i]) << row.json;
    }
  }
  const std::vector<double> frame_after = counters();
  for (std::size_t k = 0; k < std::size(counted); ++k) {
    EXPECT_EQ(json_after[k] - json_before[k], frame_after[k] - frame_before[k])
        << counted[k];
  }
  EXPECT_EQ(stats::serialize_shard(json_registry.get("x")->export_shard(7)),
            stats::serialize_shard(frame_registry.get("x")->export_shard(7)));
  EXPECT_EQ(json_registry.get("x")->observed_count(),
            frame_registry.get("x")->observed_count());
}

TEST(ServeProtocol, StatsShardIdRejectsNonIntegralAndOverflowing) {
  Server server;
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"open\",\"session\":\"s\",\"estimator\":\"mle\"}")));
  ASSERT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"observe\",\"session\":\"s\",\"samples\":[[1],[2]]}")));

  for (const char* bad : {"7.5", "-3", "1e16", "\"9\""}) {
    const JsonValue response = client.round_trip(
        std::string("{\"op\":\"stats\",\"session\":\"s\",\"shard_id\":") +
        bad + "}");
    EXPECT_EQ(error_type(response), "DataError") << bad;
    EXPECT_NE(response.find("error")->string_or("message", "")
                  .find("shard_id"),
              std::string::npos)
        << bad;
  }
  // 2^53 exactly is still representable and accepted.
  EXPECT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"stats\",\"session\":\"s\",\"shard_id\":9007199254740992}")));
  server.stop();
}

TEST(ServeProtocol, FirstPingReportsUptimeSinceProcessStart) {
  // ctest runs this case in a fresh process, so this ping latches the
  // process start: its uptime must be tiny, not a wrapped subtraction.
  SessionRegistry sessions;
  const JsonValue ping = parse_json(
      serve::handle_request(sessions, "{\"op\":\"ping\"}").response);
  ASSERT_TRUE(is_ok(ping));
  const double uptime = ping.number_or("uptime_s", -1.0);
  EXPECT_GE(uptime, 0.0);
  EXPECT_LT(uptime, 3600.0);
}

TEST(ServeProtocol, MalformedSamplesNameTheObserveOperation) {
  SessionRegistry sessions;
  ASSERT_TRUE(is_ok(parse_json(
      serve::handle_request(sessions, "{\"op\":\"open\",\"session\":\"s\","
                                      "\"estimator\":\"mle\"}")
          .response)));
  const JsonValue reply = parse_json(
      serve::handle_request(
          sessions,
          "{\"op\":\"observe\",\"session\":\"s\",\"samples\":[[1,2],[3]]}")
          .response);
  EXPECT_EQ(error_type(reply), "DataError");
  const std::string message =
      reply.find("error")->string_or("message", "");
  EXPECT_NE(message.find("op=serve_observe"), std::string::npos) << message;
  EXPECT_NE(message.find("ragged"), std::string::npos) << message;
  EXPECT_EQ(message.find("estimator spec"), std::string::npos) << message;
}

TEST(ServeStdio, DrivesTheSameProtocol) {
  SessionRegistry sessions;
  std::istringstream in(
      "{\"op\":\"ping\"}\n"
      "{\"op\":\"open\",\"session\":\"s\",\"estimator\":\"mle\"}\n"
      "{\"op\":\"observe\",\"session\":\"s\",\"samples\":[[1,2],[3,4]]}\n"
      "{\"op\":\"estimate\",\"session\":\"s\"}\n"
      "{\"op\":\"shutdown\"}\n"
      "{\"op\":\"ping\"}\n");  // after shutdown: never handled
  std::ostringstream out;
  const std::size_t handled = serve::run_stdio(sessions, in, out);
  EXPECT_EQ(handled, 5u);
  std::istringstream lines(out.str());
  std::string line;
  std::size_t ok_count = 0;
  while (std::getline(lines, line)) {
    EXPECT_TRUE(is_ok(parse_json(line))) << line;
    ++ok_count;
  }
  EXPECT_EQ(ok_count, 5u);
}

TEST(ServeProtocol, HandleRequestIsUsableWithoutTransport) {
  SessionRegistry sessions;
  const serve::ProtocolResult open = serve::handle_request(
      sessions, "{\"op\":\"open\",\"session\":\"x\",\"estimator\":\"mle\"}");
  EXPECT_FALSE(open.shutdown);
  EXPECT_TRUE(is_ok(parse_json(open.response)));
  const serve::ProtocolResult shutdown =
      serve::handle_request(sessions, "{\"op\":\"shutdown\"}");
  EXPECT_TRUE(shutdown.shutdown);
}

/// Open request for a fusion session with `n` 2-D populations sharing one
/// early prior, a fast CV grid, and a mildly correlated prior structure.
std::string fusion_open_request(const std::string& session, std::size_t n) {
  std::ostringstream out;
  out << "{\"op\":\"open\",\"session\":\"" << session
      << "\",\"estimator\":\"fusion\",\"config\":{\"shift_scale\":false,"
         "\"kappa_points\":4,\"nu_points\":4},\"populations\":[";
  for (std::size_t p = 0; p < n; ++p) {
    if (p != 0) out << ',';
    out << "{\"name\":\"pop" << p
        << "\",\"early\":{\"mean\":[0.0,0.5],"
           "\"covariance\":[[1.0,0.0],[0.0,1.0]]}}";
  }
  out << "],\"correlation\":[";
  for (std::size_t r = 0; r < n; ++r) {
    out << (r == 0 ? "[" : ",[");
    for (std::size_t c = 0; c < n; ++c) {
      if (c != 0) out << ',';
      out << (r == c ? "1.0" : "0.6");
    }
    out << ']';
  }
  out << "]}";
  return out.str();
}

/// observe_request with an explicit population routing member.
std::string fusion_observe_request(const std::string& session,
                                   std::size_t population,
                                   const Matrix& rows) {
  std::string request = observe_request(session, rows);
  request.insert(request.size() - 1,
                 ",\"population\":" + std::to_string(population));
  return request;
}

TEST(ServeFusion, JsonSessionRoutesPopulationsAndEstimatesJointly) {
  Server server;
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(is_ok(client.round_trip(fusion_open_request("f", 2))));

  // Per-population observes accumulate into one grand total.
  const Matrix pop0 = test_samples(64, 2, 0.0);
  const Matrix pop1 = test_samples(48, 2, 1.0);
  const JsonValue first =
      client.round_trip(fusion_observe_request("f", 0, pop0));
  ASSERT_TRUE(is_ok(first));
  EXPECT_EQ(first.number_or("population", -1.0), 0.0);
  EXPECT_EQ(first.number_or("total", 0.0), 64.0);
  const JsonValue second =
      client.round_trip(fusion_observe_request("f", 1, pop1));
  ASSERT_TRUE(is_ok(second));
  EXPECT_EQ(second.number_or("population", -1.0), 1.0);
  EXPECT_EQ(second.number_or("total", 0.0), 112.0);

  // Routing errors stay in-band and name the population.
  const JsonValue bad =
      client.round_trip(fusion_observe_request("f", 9, pop0));
  EXPECT_EQ(error_type(bad), "DataError");
  EXPECT_NE(bad.find("error")->string_or("message", "").find("population"),
            std::string::npos);

  // Exported shards carry the population tag for downstream routing.
  const JsonValue stats = client.round_trip(
      "{\"op\":\"stats\",\"session\":\"f\",\"shard_id\":5,"
      "\"population\":1}");
  ASSERT_TRUE(is_ok(stats));
  const stats::StatsShard shard =
      stats::shard_from_json(*stats.find("shard"));
  EXPECT_EQ(shard.population_id, 1u);
  EXPECT_EQ(shard.count(), 48u);

  // ...and absorb back into a sibling session by that tag alone.
  ASSERT_TRUE(is_ok(client.round_trip(fusion_open_request("g", 2))));
  std::string absorb = "{\"op\":\"absorb\",\"session\":\"g\",\"shard\":";
  absorb += stats::shard_to_json(shard);
  absorb += '}';
  ASSERT_TRUE(is_ok(client.round_trip(absorb)));

  // The joint estimate reports every population; only observed ones carry
  // an independent posterior.
  const JsonValue estimate =
      client.round_trip("{\"op\":\"estimate\",\"session\":\"f\"}");
  ASSERT_TRUE(is_ok(estimate));
  EXPECT_EQ(estimate.number_or("observed_populations", 0.0), 2.0);
  EXPECT_EQ(estimate.number_or("count", 0.0), 112.0);
  const JsonValue* populations = estimate.find("populations");
  ASSERT_NE(populations, nullptr);
  ASSERT_EQ(populations->as_array().size(), 2u);
  for (const JsonValue& pop : populations->as_array()) {
    EXPECT_NE(pop.find("fused"), nullptr);
    EXPECT_NE(pop.find("independent"), nullptr);
    EXPECT_EQ(pop.find("fused")->find("mean")->as_array().size(), 2u);
  }

  // The sibling session saw only population 1's shard: population 0 is
  // unobserved there, so its slot has no independent posterior but still
  // answers a fused (shifted-prior) estimate.
  const JsonValue sibling =
      client.round_trip("{\"op\":\"estimate\",\"session\":\"g\"}");
  ASSERT_TRUE(is_ok(sibling));
  EXPECT_EQ(sibling.number_or("observed_populations", 0.0), 1.0);
  const auto& slots = sibling.find("populations")->as_array();
  ASSERT_EQ(slots.size(), 2u);
  EXPECT_EQ(slots[0].find("independent"), nullptr);
  EXPECT_NE(slots[0].find("fused"), nullptr);
  EXPECT_EQ(slots[1].number_or("observed", 0.0), 48.0);
  EXPECT_NE(slots[1].find("independent"), nullptr);
  server.stop();
}

// ------------------------------------------------------ observability plane

/// One raw HTTP exchange against the admin listener: connect, send
/// `request` verbatim, read to EOF (the admin plane closes per response).
std::string admin_exchange(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n = ::send(fd, request.data() + sent,
                             request.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) break;
    sent += static_cast<std::size_t>(n);
  }
  std::string response;
  char buffer[4096];
  while (true) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string admin_get(std::uint16_t port, const std::string& path) {
  return admin_exchange(port, "GET " + path + " HTTP/1.0\r\n\r\n");
}

std::string http_body(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

TEST(ServeAdmin, EndpointsAnswerOverHttp) {
  serve::ServerConfig config;
  config.admin_port = 0;  // ephemeral
  Server server(config);
  server.start();
  ASSERT_NE(server.admin_port(), 0);
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"open\",\"session\":\"adm\",\"estimator\":\"mle\"}")));
  ASSERT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"observe\",\"session\":\"adm\",\"samples\":[[1,2],[3,4]]}")));

  const std::string health = admin_get(server.admin_port(), "/healthz");
  EXPECT_NE(health.find("200 OK"), std::string::npos);
  EXPECT_EQ(http_body(health), "ok\n");

  // /metrics: Prometheus text — every non-comment line is "name value".
  const std::string metrics = admin_get(server.admin_port(), "/metrics");
  EXPECT_NE(metrics.find("200 OK"), std::string::npos);
  std::istringstream lines(http_body(metrics));
  std::string line;
  std::size_t samples = 0;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    const std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    ASSERT_GT(space, 0u) << line;
    EXPECT_NO_THROW((void)std::stod(line.substr(space + 1))) << line;
    ++samples;
  }
  if (telemetry::enabled()) {
    EXPECT_GT(samples, 0u);
    EXPECT_NE(http_body(metrics).find("bmfusion_serve_observe_requests"),
              std::string::npos);
  }

  // /metrics.json: the compact snapshot bmf_doctor --live ingests.
  const JsonValue compact =
      parse_json(http_body(admin_get(server.admin_port(), "/metrics.json")));
  EXPECT_NE(compact.find("counters"), nullptr);
  EXPECT_NE(compact.find("histograms"), nullptr);

  // /statusz: versions, uptime, build flags, per-session summaries.
  const JsonValue statusz =
      parse_json(http_body(admin_get(server.admin_port(), "/statusz")));
  EXPECT_TRUE(is_ok(statusz));
  EXPECT_EQ(statusz.string_or("server_version", ""),
            serve::kServerVersion);
  EXPECT_EQ(statusz.number_or("wire_version", 0.0),
            static_cast<double>(serve::kWireVersion));
  EXPECT_GT(statusz.number_or("uptime_s", -1.0), 0.0);
  const JsonValue* build = statusz.find("build");
  ASSERT_NE(build, nullptr);
  ASSERT_NE(build->find("telemetry"), nullptr);
  EXPECT_EQ(build->find("telemetry")->as_bool(), telemetry::enabled());
  const JsonValue* session_list = statusz.find("sessions");
  ASSERT_NE(session_list, nullptr);
  ASSERT_EQ(session_list->as_array().size(), 1u);
  const JsonValue& entry = session_list->as_array()[0];
  EXPECT_EQ(entry.string_or("id", ""), "adm");
  EXPECT_EQ(entry.string_or("estimator", ""), "mle");
  EXPECT_EQ(entry.number_or("observed", 0.0), 2.0);

  // Unknown paths 404 with a hint; non-GET methods 405. Both leave the
  // serve plane untouched.
  EXPECT_NE(admin_get(server.admin_port(), "/nope").find("404"),
            std::string::npos);
  EXPECT_NE(
      admin_exchange(server.admin_port(), "POST /metrics HTTP/1.0\r\n\r\n")
          .find("405"),
      std::string::npos);
  EXPECT_TRUE(is_ok(client.round_trip("{\"op\":\"ping\"}")));
  server.stop();
}

TEST(ServeAdmin, ScrapesRunConcurrentWithBinaryLoad) {
  serve::ServerConfig config;
  config.admin_port = 0;
  Server server(config);
  server.start();
  const std::uint16_t admin_port = server.admin_port();

  std::atomic<bool> load_failed{false};
  std::thread load([&server, &load_failed] {
    serve::LineClient binary;
    if (!binary.connect_to(server.port()) || !binary.negotiate_binary()) {
      load_failed = true;
      return;
    }
    serve::Frame frame;
    if (!binary.request_frame(
            serve::wire::kJson,
            "{\"op\":\"open\",\"session\":\"load\",\"estimator\":\"mle\"}",
            frame) ||
        !frame.ok()) {
      load_failed = true;
      return;
    }
    const Matrix samples = test_samples(32, 3, 0.5);
    for (int round = 0; round < 200; ++round) {
      if (!binary.request_frame(serve::wire::kObserve,
                                binary_observe_payload("load", samples),
                                frame) ||
          !frame.ok()) {
        load_failed = true;
        return;
      }
    }
  });
  // Scrape every admin endpoint repeatedly while the binary stream runs on
  // the same IoLoops; every response must be complete and well-formed.
  for (int scrape = 0; scrape < 25; ++scrape) {
    EXPECT_NE(admin_get(admin_port, "/healthz").find("200 OK"),
              std::string::npos);
    const std::string metrics = admin_get(admin_port, "/metrics");
    EXPECT_NE(metrics.find("200 OK"), std::string::npos);
    EXPECT_NO_THROW(
        (void)parse_json(http_body(admin_get(admin_port, "/statusz"))));
  }
  load.join();
  EXPECT_FALSE(load_failed);
  server.stop();
}

TEST(ServeObservability, RequestIdsAreMonotonicUnderPipelining) {
  Server server;
  server.start();
  serve::LineClient client;
  ASSERT_TRUE(client.connect_to(server.port()));

  // Three pings in one packet: the ids they echo must be strictly
  // increasing even though all three are handled off a single read event.
  ASSERT_TRUE(client.send_raw(
      "{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n{\"op\":\"ping\"}\n"));
  double previous = 0.0;
  for (int i = 0; i < 3; ++i) {
    std::string line;
    ASSERT_TRUE(client.recv_line(line));
    const JsonValue response = parse_json(line);
    ASSERT_TRUE(is_ok(response));
    const double id = response.number_or("request_id", 0.0);
    EXPECT_GT(id, previous);
    previous = id;
  }
  server.stop();
}

TEST(ServeObservability, SlowRequestsWarnAndCount) {
  // Stderr off for the duration: the test *wants* warn records, just not
  // in the test log.
  log::Logger::instance().set_stderr_enabled(false);
  serve::set_slow_request_threshold_us(1);  // everything is "slow"
  const double before = counter_value("serve.slow_requests");
  const std::uint64_t ring_before =
      log::FlightRecorder::instance().recorded_count();

  Server server;
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  EXPECT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"open\",\"session\":\"slow\",\"estimator\":\"mle\"}")));
  EXPECT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"observe\",\"session\":\"slow\",\"samples\":[[1],[2]]}")));
  server.stop();

  serve::set_slow_request_threshold_us(0);
  log::Logger::instance().set_stderr_enabled(true);
  if (telemetry::enabled()) {
    EXPECT_GE(counter_value("serve.slow_requests"), before + 2.0);
  }
  EXPECT_GT(log::FlightRecorder::instance().recorded_count(), ring_before);
  bool found = false;
  for (const log::LogRecord& rec :
       log::FlightRecorder::instance().snapshot()) {
    if (std::string_view(rec.message) == "slow serve request") found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ServeObservability, ObserveRequestsCounterIsExact) {
  const double before = counter_value("serve.observe.requests");
  Server server;
  server.start();
  TestClient client(server.port());
  ASSERT_TRUE(client.connected());
  ASSERT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"open\",\"session\":\"cnt\",\"estimator\":\"mle\"}")));
  constexpr int kObserves = 7;
  for (int i = 0; i < kObserves; ++i) {
    ASSERT_TRUE(is_ok(client.round_trip(
        "{\"op\":\"observe\",\"session\":\"cnt\",\"samples\":[[1],[2]]}")));
  }
  server.stop();
  if (telemetry::enabled()) {
    EXPECT_EQ(counter_value("serve.observe.requests"), before + kObserves);
  }
}

TEST(ServeObservability, StatuszAndAdminResponderWorkWithoutTransport) {
  // The responder is transport-agnostic: drive it directly, no sockets.
  SessionRegistry sessions;
  const std::string response =
      serve::handle_admin_request("GET", "/statusz", sessions);
  EXPECT_NE(response.find("200 OK"), std::string::npos);
  const JsonValue statusz = parse_json(http_body(response));
  EXPECT_TRUE(is_ok(statusz));
  ASSERT_NE(statusz.find("sessions"), nullptr);
  EXPECT_TRUE(statusz.find("sessions")->as_array().empty());
  EXPECT_NE(
      serve::handle_admin_request("GET", "/gone", sessions).find("404"),
      std::string::npos);
  EXPECT_NE(
      serve::handle_admin_request("PUT", "/metrics", sessions).find("405"),
      std::string::npos);
}

TEST(ServeObservability, StatuszEscapesControlBytesInSessionIds) {
  SessionRegistry sessions;
  ASSERT_TRUE(is_ok(parse_json(
      serve::handle_request(sessions,
                            "{\"op\":\"open\",\"session\":\"a\\u0001\\rb\","
                            "\"estimator\":\"mle\"}")
          .response)));
  const std::string statusz = serve::statusz_json(sessions);
  for (const char c : statusz) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u) << statusz;
  }
  const JsonValue parsed = parse_json(statusz);
  ASSERT_EQ(parsed.find("sessions")->as_array().size(), 1u);
  EXPECT_EQ(parsed.find("sessions")->as_array()[0].string_or("id", ""),
            "a\x01\rb");
}

TEST(ServeBinary, ObserveDimensionsThatOverflowAnswerDataError) {
  // rows * cols * 8 wraps to 0 in 64 bits: the decoder must refuse the
  // frame before it sizes anything from the product.
  SessionRegistry sessions;
  ASSERT_TRUE(is_ok(parse_json(
      serve::handle_request(sessions, "{\"op\":\"open\",\"session\":\"s\","
                                      "\"estimator\":\"mle\"}")
          .response)));
  std::string payload;
  serve::wire::append_string(payload, "s");
  serve::wire::append_u32(payload, 1u << 30);
  serve::wire::append_u32(payload, 1u << 31);
  const std::string reply =
      serve::handle_binary_request(sessions, serve::wire::kObserve, 0, payload)
          .response;
  ASSERT_GT(reply.size(), serve::wire::kHeaderBytes + 2);
  EXPECT_EQ(frame_error(reply), "DataError");
  EXPECT_EQ(sessions.get("s")->observed_count(), 0u);
}

TEST(ServeBinary, PopulationFlagRoutesObserveAndStats) {
  Server server;
  server.start();
  serve::LineClient binary;
  ASSERT_TRUE(binary.connect_to(server.port()));
  ASSERT_TRUE(binary.negotiate_binary());
  serve::Frame frame;
  ASSERT_TRUE(binary.request_frame(serve::wire::kJson,
                                   fusion_open_request("b", 3), frame));
  ASSERT_TRUE(frame.ok());

  // kFlagPopulation inserts a u32 population after the session id.
  const Matrix samples = test_samples(56, 2, 0.25);
  std::string payload;
  serve::wire::append_string(payload, "b");
  serve::wire::append_u32(payload, 2);
  serve::wire::append_u32(payload,
                          static_cast<std::uint32_t>(samples.rows()));
  serve::wire::append_u32(payload,
                          static_cast<std::uint32_t>(samples.cols()));
  for (std::size_t r = 0; r < samples.rows(); ++r) {
    for (std::size_t c = 0; c < samples.cols(); ++c) {
      const double value = samples(r, c);
      char bytes[sizeof(double)];
      std::memcpy(bytes, &value, sizeof(double));
      payload.append(bytes, sizeof(double));
    }
  }
  ASSERT_TRUE(binary.request_frame(serve::wire::kObserve, payload, frame,
                                   serve::wire::kFlagPopulation));
  ASSERT_TRUE(frame.ok());
  std::uint64_t total = 0;
  std::memcpy(&total, frame.payload.data() + 4, sizeof total);
  EXPECT_EQ(total, 56u);

  // Without the flag the same frame layout routes to population 0.
  ASSERT_TRUE(binary.request_frame(
      serve::wire::kObserve, binary_observe_payload("b", samples), frame));
  ASSERT_TRUE(frame.ok());
  std::memcpy(&total, frame.payload.data() + 4, sizeof total);
  EXPECT_EQ(total, 112u);

  // Stats with the flag exports the tagged population's shard.
  std::string stats_payload;
  serve::wire::append_string(stats_payload, "b");
  serve::wire::append_u32(stats_payload, 2);
  serve::wire::append_u64(stats_payload, 11);
  ASSERT_TRUE(binary.request_frame(serve::wire::kStats, stats_payload,
                                   frame, serve::wire::kFlagPopulation));
  ASSERT_TRUE(frame.ok());
  const stats::StatsShard shard = stats::parse_shard(frame.payload);
  EXPECT_EQ(shard.population_id, 2u);
  EXPECT_EQ(shard.count(), 56u);

  // Out-of-range population routes to a flagged error frame, connection
  // stays usable.
  std::string bad_payload;
  serve::wire::append_string(bad_payload, "b");
  serve::wire::append_u32(bad_payload, 9);
  serve::wire::append_u64(bad_payload, 12);
  ASSERT_TRUE(binary.request_frame(serve::wire::kStats, bad_payload, frame,
                                   serve::wire::kFlagPopulation));
  EXPECT_FALSE(frame.ok());
  ASSERT_TRUE(binary.request_frame(serve::wire::kPing, "", frame));
  EXPECT_TRUE(frame.ok());
  server.stop();
}

TEST(ServeProtocol, RejectedObserveBatchLeavesTheSessionUntouched) {
  // A non-finite cell in the last row of a batch (JSON 1e999 overflows to
  // inf; a raw-double frame can carry NaN) rejects the whole batch in both
  // wire modes: the session's count and exported shard bytes stay exactly
  // as they were, and the error names the offending row.
  const std::string open =
      "{\"op\":\"open\",\"session\":\"s\",\"estimator\":\"mle\"}";
  const Matrix good = test_samples(6, 2, 0.5);
  Matrix poisoned = test_samples(3, 2, 0.25);
  poisoned(2, 0) = std::numeric_limits<double>::quiet_NaN();
  const auto shard_bytes = [](SessionRegistry& sessions) {
    return stats::serialize_shard(sessions.get("s")->export_shard(1));
  };

  SessionRegistry json_registry;
  ASSERT_TRUE(
      is_ok(parse_json(serve::handle_request(json_registry, open).response)));
  ASSERT_TRUE(is_ok(parse_json(
      serve::handle_request(json_registry, observe_request("s", good))
          .response)));
  const std::string json_before = shard_bytes(json_registry);
  const JsonValue json_reply = parse_json(
      serve::handle_request(json_registry,
                            "{\"op\":\"observe\",\"session\":\"s\","
                            "\"samples\":[[1,2],[3,4],[1e999,5]]}")
          .response);
  EXPECT_EQ(error_type(json_reply), "DataError");
  EXPECT_NE(json_reply.find("error")->string_or("message", "").find("row 2"),
            std::string::npos);
  EXPECT_EQ(json_registry.get("s")->observed_count(), 6u);
  EXPECT_EQ(shard_bytes(json_registry), json_before);

  SessionRegistry frame_registry;
  ASSERT_TRUE(is_ok(parse_json(
      serve::handle_binary_request(frame_registry, serve::wire::kJson, 0,
                                   open)
          .response.substr(serve::wire::kHeaderBytes))));
  ASSERT_EQ(frame_error(serve::handle_binary_request(
                            frame_registry, serve::wire::kObserve, 0,
                            binary_observe_payload("s", good))
                            .response),
            "");
  const std::string frame_before = shard_bytes(frame_registry);
  EXPECT_EQ(frame_before, json_before);
  EXPECT_EQ(frame_error(serve::handle_binary_request(
                            frame_registry, serve::wire::kObserve, 0,
                            binary_observe_payload("s", poisoned))
                            .response),
            "DataError");
  EXPECT_EQ(frame_registry.get("s")->observed_count(), 6u);
  EXPECT_EQ(shard_bytes(frame_registry), frame_before);
}

/// Every number of a (finite) estimate object in wire order: mean,
/// covariance, kappa0, nu0, score.
std::vector<double> estimate_numbers(const JsonValue& estimate) {
  std::vector<double> out;
  for (const JsonValue& m : estimate.find("mean")->as_array()) {
    out.push_back(m.as_number());
  }
  for (const JsonValue& row : estimate.find("covariance")->as_array()) {
    for (const JsonValue& c : row.as_array()) out.push_back(c.as_number());
  }
  for (const char* key : {"kappa0", "nu0", "score"}) {
    out.push_back(estimate.find(key)->as_number());
  }
  return out;
}

TEST(ServeTcp, ConcurrentObserveAndEstimateOnSharedSessions) {
  // Four connections interleave observes and estimates on one bmf session
  // and one fusion session. snapshot() is const but writes the estimator's
  // memo, so each stream relies on the Session mutex for one-thread-at-a-
  // time access; the TSan stage runs this test. Afterwards a repeated
  // estimate (a memo hit) equals a cold estimate of a session rebuilt from
  // the exported shard.
  Server server;
  server.start();
  const std::uint16_t port = server.port();
  const std::string bmf_spec =
      "\"estimator\":\"bmf\",\"config\":{\"shift_scale\":false,"
      "\"kappa_points\":4,\"nu_points\":4},\"early\":{\"mean\":[0.0,0.5],"
      "\"covariance\":[[1.0,0.0],[0.0,1.0]],\"nominal\":[0.0,0.5]}}";
  constexpr std::size_t kThreads = 4;
  constexpr int kRounds = 12;
  constexpr std::size_t kRows = 4;
  {
    TestClient setup(port);
    ASSERT_TRUE(setup.connected());
    ASSERT_TRUE(is_ok(setup.round_trip(
        "{\"op\":\"open\",\"session\":\"b\"," + bmf_spec)));
    ASSERT_TRUE(is_ok(setup.round_trip(fusion_open_request("f", kThreads))));
  }

  std::vector<std::thread> workers;
  std::vector<int> failures(kThreads, 0);
  for (std::size_t i = 0; i < kThreads; ++i) {
    workers.emplace_back([port, i, &failures] {
      TestClient client(port);
      if (!client.connected()) {
        failures[i] = 1;
        return;
      }
      for (int round = 0; round < kRounds; ++round) {
        const Matrix rows = test_samples(
            kRows, 2, 0.1 * static_cast<double>(i) + 0.01 * round);
        if (!is_ok(client.round_trip(observe_request("b", rows))) ||
            !is_ok(client.round_trip(
                "{\"op\":\"estimate\",\"session\":\"b\"}")) ||
            !is_ok(client.round_trip(fusion_observe_request("f", i, rows))) ||
            !is_ok(client.round_trip(
                "{\"op\":\"estimate\",\"session\":\"f\"}"))) {
          failures[i] = 2 + round;
          return;
        }
      }
    });
  }
  for (std::thread& t : workers) t.join();
  EXPECT_EQ(failures, std::vector<int>(kThreads, 0));

  const double total = static_cast<double>(kThreads * kRounds * kRows);
  TestClient client(port);
  ASSERT_TRUE(client.connected());
  const JsonValue first =
      client.round_trip("{\"op\":\"estimate\",\"session\":\"b\"}");
  const JsonValue repeat =
      client.round_trip("{\"op\":\"estimate\",\"session\":\"b\"}");
  ASSERT_TRUE(is_ok(first));
  ASSERT_TRUE(is_ok(repeat));
  EXPECT_EQ(first.number_or("count", 0.0), total);
  const std::vector<double> served =
      estimate_numbers(*first.find("estimate"));
  EXPECT_EQ(served, estimate_numbers(*repeat.find("estimate")));

  const JsonValue stats =
      client.round_trip("{\"op\":\"stats\",\"session\":\"b\",\"shard_id\":1}");
  ASSERT_TRUE(is_ok(stats));
  ASSERT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"open\",\"session\":\"rebuilt\"," + bmf_spec)));
  ASSERT_TRUE(is_ok(client.round_trip(
      "{\"op\":\"absorb\",\"session\":\"rebuilt\",\"shard\":" +
      stats::shard_to_json(stats::shard_from_json(*stats.find("shard"))) +
      "}")));
  const JsonValue cold =
      client.round_trip("{\"op\":\"estimate\",\"session\":\"rebuilt\"}");
  ASSERT_TRUE(is_ok(cold));
  EXPECT_EQ(served, estimate_numbers(*cold.find("estimate")));

  const JsonValue fused =
      client.round_trip("{\"op\":\"estimate\",\"session\":\"f\"}");
  ASSERT_TRUE(is_ok(fused));
  EXPECT_EQ(fused.number_or("count", 0.0), total);
  EXPECT_EQ(fused.number_or("observed_populations", 0.0),
            static_cast<double>(kThreads));
  server.stop();
}

}  // namespace
}  // namespace bmfusion
